"""Abstract experimental-design problem: prior, noise, forward map, likelihood.

A :class:`ProblemModel` bundles everything an estimator needs: the prior over
the latent parameters theta, the observation-noise distribution, the
deterministic forward simulator ``y = f(design, theta, eps)``, and the
log-likelihood of a simulated observation under an alternative latent value
together with its total design-gradient (the "score", differentiated through
both the simulated observation and the likelihood's explicit design
dependence).

All operations are pure and vectorized: latent/noise arguments carry a
leading batch axis ``n`` and inner latent values carry axes ``(n, M)``.
Randomness never lives here; samplers receive an explicit generator.

A :class:`Design` is the design vector alone.  The box of admissible designs
lives in :class:`~mlmc_boed.optim.BoxDomain`, and each problem's box and
initial design in its run configuration (:mod:`mlmc_boed.config`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class Design:
    """A design vector: one or more finite values."""

    values: np.ndarray

    def __post_init__(self):
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if values.ndim != 1 or values.shape[0] < 1 or not np.isfinite(values).all():
            raise ContractViolationError(
                f"design {values} is not a vector of one or more finite values")
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def replace(self, values: np.ndarray) -> "Design":
        """The design at ``values``, which must have this design's length."""
        new = Design(values)
        if new.dim != self.dim:
            raise ContractViolationError(
                f"design {new.values} does not have dimension {self.dim}")
        return new


class ProblemModel:
    """Capability interface consumed by every estimator.

    Dimensions: ``d`` design parameters, ``s`` latent parameters, ``s_noise``
    noise components, ``t`` observation components.

    A model that supports the ``laplace`` proposal also has three Laplace
    hooks that this class does not define, so that ``hasattr(model,
    "observation_derivs")`` tells whether the fit can run (the fit itself
    needs ``s = 3``):

    - ``prior_hessian(theta)`` returns the Hessian of the prior log-density
      at ``theta (..., s)``, as an array that broadcasts to ``(..., s, s)``:
      the fit's one prior term.
    - ``observation_derivs(design, theta, second)`` returns ``(value, grad,
      hess)``: the mean observation at ``theta (n, s)`` and its
      theta-derivatives, with shapes ``(n, t)``, ``(n, t, s)`` and
      ``(s (s + 1) / 2, n, t)``.  ``hess`` holds the distinct entries of each
      symmetric Hessian, those on and above the diagonal row by row (for
      ``s = 3``: ``(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)``), time
      axis last; it is ``None`` when ``second`` is false.
    - ``observation_variance(value)`` returns the per-component variance of
      the observation noise at mean ``value``, in the shape of ``value``.
    """

    d: int
    s: int
    s_noise: int
    t: int

    # -- sampling ---------------------------------------------------------
    def sample_prior(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` latent vectors from the prior, shape ``(n, s)``."""
        raise NotImplementedError

    def sample_noise(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` noise vectors, shape ``(n, s_noise)``."""
        raise NotImplementedError

    # -- densities --------------------------------------------------------
    def prior_logpdf(self, theta: np.ndarray) -> np.ndarray:
        """Prior log-density, batched over all leading axes of ``theta``."""
        raise NotImplementedError

    # -- forward model ----------------------------------------------------
    def simulate(self, design: Design, theta: np.ndarray, eps: np.ndarray) -> np.ndarray:
        """Deterministic forward map ``y = f(design, theta, eps)``.

        ``theta``: shape ``(..., s)``; ``eps``: shape ``(..., s_noise)``;
        returns shape ``(..., t)``.
        """
        raise NotImplementedError

    def loglik_score(
        self,
        design: Design,
        theta: np.ndarray,
        eps: np.ndarray,
        theta_inner: np.ndarray,
    ):
        """Scored log-likelihood of the simulated observation under ``theta_inner``.

        The observation is ``y = simulate(design, theta, eps)``; the returned
        log-density is a density over observation space (all change-of-variable
        factors included), and the score is the *total* design-gradient,
        differentiating through ``y`` as well as the explicit design
        dependence of the likelihood.

        Shapes: ``theta (n, s)``, ``eps (n, s_noise)``, ``theta_inner
        (n, M, s)``; returns ``(log_rho (n, M), score (n, M, d))``, new
        arrays that the estimators update in place.  Outer rows may repeat:
        the estimators pass a sample's ``(theta, eps)`` once per row of its
        proposal fit, as consecutive equal rows, and the model evaluates each
        row as given.  The self evaluation at ``theta_inner = theta`` uses
        this same code path, in one call per batch of chunks
        (``theta[:, None, :]``).  The model only computes: the estimators
        refuse a non-finite ``log_rho`` with ``NumericalDomainError``.
        """
        raise NotImplementedError

    def _check_dims(self, design: Design, theta: np.ndarray, eps: np.ndarray):
        if design.dim != self.d:
            raise ContractViolationError(f"design has dim {design.dim}, expected {self.d}")
        if theta.shape[-1] != self.s:
            raise ContractViolationError(f"theta has dim {theta.shape[-1]}, expected {self.s}")
        if eps.shape[-1] != self.s_noise:
            raise ContractViolationError(
                f"eps has dim {eps.shape[-1]}, expected {self.s_noise}"
            )
