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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError

LOG_2PI = float(np.log(2.0 * np.pi))


def equal_runs(*rows):
    """``(starts, lengths)`` of the runs of equal consecutive rows.

    Row ``i`` continues the run of row ``i - 1`` when it equals that row in
    every one of the ``(n, k)`` arrays ``rows``.  Estimators repeat an outer
    sample's row once per inner row or block of inner rows, so a batch of
    outer rows is mostly such runs and per-outer work can be done once each.
    """
    n = rows[0].shape[0]
    first = np.zeros(n, dtype=bool)
    first[:1] = True
    for a in rows:
        first[1:] |= (a[1:] != a[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    return starts, np.diff(starts, append=n)


@dataclass(frozen=True)
class Design:
    """A point in the design space with its box-feasible domain.

    Bounds may be infinite.  ``values`` must satisfy
    ``lower <= values <= upper`` componentwise.
    """

    values: np.ndarray
    lower: np.ndarray = field(default=None)  # type: ignore[assignment]
    upper: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        d = values.shape[0]
        lower = self.lower if self.lower is not None else np.full(d, -np.inf)
        upper = self.upper if self.upper is not None else np.full(d, np.inf)
        lower = np.broadcast_to(np.asarray(lower, dtype=float), (d,)).copy()
        upper = np.broadcast_to(np.asarray(upper, dtype=float), (d,)).copy()
        if d < 1:
            raise ContractViolationError("design must have at least one component")
        if not (np.all(lower <= values) and np.all(values <= upper)):
            raise ContractViolationError(
                f"design {values} violates box bounds [{lower}, {upper}]"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def replace(self, values: np.ndarray) -> "Design":
        """This design's box at ``values``; only the new values are checked."""
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if values.shape != self.values.shape:
            raise ContractViolationError(
                f"design {values} does not have dimension {self.dim}")
        if not ((self.lower <= values).all() and (values <= self.upper).all()):
            raise ContractViolationError(
                f"design {values} violates box bounds [{self.lower}, {self.upper}]"
            )
        new = object.__new__(Design)
        object.__setattr__(new, "values", values)
        object.__setattr__(new, "lower", self.lower)
        object.__setattr__(new, "upper", self.upper)
        return new


class ProblemModel:
    """Capability interface consumed by every estimator.

    Dimensions: ``d`` design parameters, ``s`` latent parameters, ``s_noise``
    noise components, ``t`` observation components.

    A model that supports the ``laplace`` proposal also has
    :meth:`prior_logpdf_derivs` and two Laplace hooks that this class does
    not define, so that ``hasattr(model, "observation_derivs")`` tells
    whether the fit can run (the fit itself needs ``s = 3``).  The fit reads
    the prior through :meth:`prior_hessian`, which a model can override to
    skip the density and gradient it does not use.

    - ``observation_derivs(design, theta, second)`` returns ``(value, grad,
      hess)``: the mean observation at ``theta (n, s)`` and its
      theta-derivatives, with shapes ``(n, t)``, ``(n, t, s)`` and
      ``(s (s + 1) / 2, n, t)``.  ``hess`` holds the distinct entries of each
      symmetric Hessian, the upper triangle row by row (for ``s = 3``:
      ``(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)``), time axis last;
      it is ``None`` when ``second`` is false.
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

    def prior_logpdf_derivs(self, theta: np.ndarray):
        """Return ``(logpdf, grad, hess)`` of the prior log-density (a hook
        of the Laplace fit, so only a model with ``observation_derivs`` has it).

        ``theta`` has shape ``(..., s)``; the outputs have shapes ``(...,)``,
        ``(..., s)`` and ``(..., s, s)``.
        """
        raise NotImplementedError

    def prior_hessian(self, theta: np.ndarray) -> np.ndarray:
        """Hessian of the prior log-density at ``theta (..., s)``, as an array
        that broadcasts to ``(..., s, s)``: the one prior term of the Laplace
        fit.  This default takes it from :meth:`prior_logpdf_derivs`."""
        return self.prior_logpdf_derivs(theta)[2]

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
        (n, M, s)``; returns ``(log_rho (n, M), score (n, M, d))``.
        The self-evaluation at ``theta_inner = theta`` uses this same code
        path (pass ``theta[:, None, :]``).
        """
        raise NotImplementedError

    def default_design(self) -> Design:
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
