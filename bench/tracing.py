"""Spans for the traced run, recorded from the benchmark's own files.

Every layer is reached through a pass-through wrapper: subclasses of the
problem models and of ``LevelWeights``, proxies of the proposal factory and
of its fitted proposals, timed stand-ins for ``rng.stream`` in the estimator
modules, and timed estimator entry points in the ``Api`` the units call.
None of them changes an argument or a result, so a traced unit reproduces
the untraced one bit for bit (``run.py`` checks this).

The traced run is single-threaded, so spans nest on one stack; a span's self
time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from mlmc_boed import decay, eig, gradient, rng
from mlmc_boed.levels import LevelWeights
from mlmc_boed.pk import PkProblem
from mlmc_boed.testcase import TestCaseProblem

from workloads import Api, Parts

ESTIMATOR_LAYERS = ("gradient", "eig", "decay")
MODEL_LAYERS = ("testcase", "pk")
LIKELIHOODS = ("loglik", "loglik_score")


class Recorder:
    def __init__(self):
        self.spans = []     # [name, start, end, parent index, count]
        self.fallbacks = 0  # Laplace fits replaced by the prior
        self.levels = []    # level arrays drawn, one per chunk
        self._stack = []

    @contextmanager
    def span(self, name: str, count: int = 0):
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, count])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter()

    def timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper


# ---------------------------------------------------------------------------
# pass-through wrappers


def _inner_count(theta_inner) -> int:
    return int(np.prod(np.shape(theta_inner)[:-1]))


class _TracedModel:
    """Times every model method the estimators and proposals call."""

    rec: Recorder
    layer: str

    def sample_prior(self, rng_, n):
        with self.rec.span(f"{self.layer}.sample_prior", n):
            return super().sample_prior(rng_, n)

    def sample_noise(self, rng_, n):
        with self.rec.span(f"{self.layer}.sample_noise", n):
            return super().sample_noise(rng_, n)

    def prior_logpdf(self, theta):
        with self.rec.span(f"{self.layer}.prior_logpdf", _inner_count(theta)):
            return super().prior_logpdf(theta)

    def prior_logpdf_derivs(self, theta):
        with self.rec.span(f"{self.layer}.prior_logpdf_derivs", _inner_count(theta)):
            return super().prior_logpdf_derivs(theta)

    def simulate(self, design, theta, eps):
        with self.rec.span(f"{self.layer}.simulate", _inner_count(theta)):
            return super().simulate(design, theta, eps)

    def loglik_score(self, design, theta, eps, theta_inner):
        with self.rec.span(f"{self.layer}.loglik_score", _inner_count(theta_inner)):
            return super().loglik_score(design, theta, eps, theta_inner)

    def loglik(self, design, theta, eps, theta_inner):
        with self.rec.span(f"{self.layer}.loglik", _inner_count(theta_inner)):
            return super().loglik(design, theta, eps, theta_inner)


class TracedTestCase(_TracedModel, TestCaseProblem):
    layer = "testcase"


class TracedPk(_TracedModel, PkProblem):
    layer = "pk"

    def observation_derivs(self, design, theta, second):
        with self.rec.span("pk.observation_derivs", _inner_count(theta)):
            return super().observation_derivs(design, theta, second)


@dataclass(frozen=True)
class TracedWeights(LevelWeights):
    rec: Recorder = field(default=None, compare=False, repr=False)

    def sample_levels(self, rng_, n):
        with self.rec.span("levels.sample_levels", n):
            levels = super().sample_levels(rng_, n)
        self.rec.levels.append(levels)
        return levels


class TracedFactory:
    def __init__(self, inner, rec: Recorder):
        self.inner = inner
        self.rec = rec
        self.name = inner.name

    def fit(self, model, design, theta, eps, y):
        with self.rec.span("proposals.fit", theta.shape[0]):
            fitted = self.inner.fit(model, design, theta, eps, y)
        self.rec.fallbacks += fitted.n_fallback
        return TracedFitted(fitted, self.rec)


class TracedFitted:
    def __init__(self, inner, rec: Recorder):
        self.inner = inner
        self.rec = rec
        self.n_fallback = inner.n_fallback

    def sample_inner(self, rng_, m):
        with self.rec.span("proposals.sample_inner", self.inner.n * m):
            return self.inner.sample_inner(rng_, m)


def traced_parts(parts: Parts, rec: Recorder) -> Parts:
    model_cls = {TestCaseProblem: TracedTestCase, PkProblem: TracedPk}[type(parts.model)]
    model = model_cls(parts.model.params)
    model.rec = rec
    w = parts.weights
    weights = TracedWeights(m0=w.m0, tau=w.tau, w0_override=w.w0_override, rec=rec)
    return Parts(model, parts.base, parts.box, weights, TracedFactory(parts.factory, rec))


def traced_api(rec: Recorder) -> Api:
    plain = Api()
    return Api(
        unbiased_gradient=rec.timed("gradient.unbiased_gradient", plain.unbiased_gradient),
        eig_nested=rec.timed("eig.eig_nested", plain.eig_nested),
        eig_unbiased_mlmc=rec.timed("eig.eig_unbiased_mlmc", plain.eig_unbiased_mlmc),
        decay_study=rec.timed("decay.decay_study", plain.decay_study),
        optimize=rec.timed("optim.optimize", plain.optimize),
        hook=rec.timed,
    )


@contextmanager
def traced_streams(rec: Recorder):
    """Time ``rng.stream`` where each estimator module looks it up."""
    modules = (gradient, eig, decay)
    timed = rec.timed("rng.stream", rng.stream)
    for module in modules:
        module.stream = timed
    try:
        yield
    finally:
        for module in modules:
            module.stream = rng.stream


# ---------------------------------------------------------------------------
# per-layer metrics


def span_table(rec: Recorder) -> dict:
    """Per span name: calls, total seconds, self seconds and summed counts."""
    child = [0.0] * len(rec.spans)
    for name, start, end, parent, _ in rec.spans:
        if parent >= 0:
            child[parent] += end - start
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})
    for i, (name, start, end, _, count) in enumerate(rec.spans):
        row = table[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child[i]
        row["count"] += count
    return dict(table)


def _sum(table, names, key):
    return sum(table[n][key] for n in names if n in table)


def _ratio(num, den):
    return num / den if den else 0.0


def _is_likelihood(name: str) -> bool:
    layer, _, method = name.partition(".")
    return layer in MODEL_LAYERS and method in LIKELIHOODS


def layer_metrics(rec: Recorder, wall_s: float, steps: int) -> dict:
    """Per-layer metrics of one traced slice that took ``wall_s`` seconds.

    The generic names (``estimator.*``, ``model.*``) are measured on every
    workload; the module-named ones exist where the workload reaches that
    module.
    """
    table = span_table(rec)
    names = list(table)

    def layer(prefixes):
        return [n for n in names if n.split(".")[0] in prefixes]

    # Likelihood calls made directly by an estimator; the test case's
    # loglik delegates to loglik_score, which must not count twice.
    lik = [s for s in rec.spans
           if _is_likelihood(s[0]) and not (s[3] >= 0 and _is_likelihood(rec.spans[s[3]][0]))]
    lik_s = sum(s[2] - s[1] for s in lik)
    lik_evals = sum(s[4] for s in lik)
    streams = _sum(table, ["rng.stream"], "calls")
    fitted = _sum(table, ["proposals.fit"], "count")
    out = {
        "estimator.self_s": _sum(table, layer(ESTIMATOR_LAYERS), "self_s"),
        "estimator.model_calls_per_chunk": _ratio(len(lik), streams),
        "model.self_s": _sum(table, layer(MODEL_LAYERS), "self_s"),
        "model.lik_ns_per_eval": _ratio(lik_s, lik_evals) * 1e9,
        "proposals.fit_us_per_outer": _ratio(_sum(table, ["proposals.fit"], "total_s"), fitted) * 1e6,
        "proposals.sample_inner_self_s": _sum(table, ["proposals.sample_inner"], "self_s"),
        "proposals.fallback_rate": _ratio(rec.fallbacks, fitted),
        "rng.streams": streams,
        "rng.stream_us": _ratio(_sum(table, ["rng.stream"], "total_s"), streams) * 1e6,
    }
    out["estimator.self_share"] = _ratio(out["estimator.self_s"], wall_s)

    # Module-named metrics, present where the workload reaches the module.
    for module in ESTIMATOR_LAYERS:
        if layer([module]):
            out[f"{module}.self_s"] = _sum(table, layer([module]), "self_s")
    if "gradient.self_s" in out:
        out["gradient.self_share"] = _ratio(out["gradient.self_s"], wall_s)
    for name in ("testcase.loglik_score", "pk.loglik_score", "pk.loglik"):
        evals = [s for s in lik if s[0] == name]
        if evals:
            out[f"{name}.ns_per_eval"] = _ratio(
                sum(s[2] - s[1] for s in evals), sum(s[4] for s in evals)) * 1e9
    if "pk.observation_derivs" in table:
        out["pk.observation_derivs.self_s"] = table["pk.observation_derivs"]["self_s"]
    if rec.levels:
        out["levels.distinct_per_chunk"] = float(np.mean([np.unique(l).size for l in rec.levels]))
        out["levels.max_level"] = int(max(l.max() for l in rec.levels))
    if "optim.optimize" in table and steps:
        out["optim.step_us"] = table["optim.optimize"]["self_s"] / steps * 1e6
    return out
