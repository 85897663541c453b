"""Seeded workload generators and the pipeline each workload runs.

Every workload has two halves:

- ``setup(seed, size)`` generates the data from the seed and constructs a
  fresh ``LgmModel``.  Nothing else: the library only ever sees the model.
- ``run(model, size)`` is the pipeline the ``lgocv fit``/``groups``/``cv``
  commands run: ``build_theta_grid`` -> ``fit_grid_approximations`` ->
  ``build_groups`` -> ``compute_lgocv``, single threaded.  It returns a
  ``Outcome`` with the per-stage wall times and the utilities.

Each ``Workload`` carries the sizes the benchmark measures (``full``) and
the sizes the smoke test uses (``tiny``).  The full sizes keep one
repetition at a few seconds, so a run takes the median of several.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

import lgocv
from lgocv import simulate
from lgocv.components import Besag, FixedEffects
from lgocv.groups import CorrelationSource
from lgocv.likelihoods import Poisson
from lgocv.model import HyperSpec, LgmModel

TIE_TOL = 1e-8          # the CLI default


@dataclass
class Outcome:
    """What one pipeline run produced, with wall times per stage."""

    utilities: list
    grid_points: int
    mode_theta: np.ndarray
    attempted: int = 0
    skipped: int = 0
    stage_s: dict = field(default_factory=dict)


class _Stages:
    """Accumulates wall time per pipeline stage."""

    def __init__(self):
        self.seconds = {}

    def call(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - t0
        return out


def _fit(model, stages):
    grid = stages.call("grid", lgocv.build_theta_grid, model)
    gas = stages.call("refit", lgocv.fit_grid_approximations, model, grid)
    return grid, gas


def _score(model, grid, gas, spec, test, stages, out):
    res = stages.call("cv", lgocv.compute_lgocv, model, grid, spec, gas=gas,
                      test_indices=test, threads=1)
    out.utilities.append(res.utility)
    out.attempted += len(test)
    out.skipped += len(res.skipped)


# -- multilevel-binomial -----------------------------------------------------

def multilevel_setup(seed, size):
    """``lgocv.simulate``'s multilevel-binomial scenario with more classes.

    Same generator as ``simulate.simulate_multilevel`` (class effects from
    N(0, 1), eta = log(10) + s_class, 20 trials), with ``classes`` classes
    of ``per_class`` observations; the model is ``simulate.multilevel_model``.
    """
    rng = np.random.default_rng(seed)
    classes, per_class = size["classes"], size["per_class"]
    s = rng.standard_normal(classes)
    cls = np.arange(classes * per_class) // per_class
    eta = simulate.MULTILEVEL_MU + s[cls]
    p = 1.0 / (1.0 + np.exp(-eta))
    y = rng.binomial(simulate.BINOMIAL_TRIALS, p).astype(float)
    return simulate.multilevel_model({"y": y, "class": cls.astype(float)},
                                     "binomial")


def multilevel_run(model, size):
    """Posterior groups at m = 1 around the theta mode; every obs scored."""
    stages = _Stages()
    grid, gas = _fit(model, stages)
    ga_mode = gas[int(np.argmax(grid.log_posteriors))]
    out = Outcome([], len(grid), ga_mode.theta.values)
    spec = stages.call("groups", lgocv.build_groups,
                       CorrelationSource("posterior"), ga_mode, m=1,
                       tie_tol=TIE_TOL)
    _score(model, grid, gas, spec, list(range(model.n_obs)), stages, out)
    out.stage_s = stages.seconds
    return out


# -- ar1-sweep ---------------------------------------------------------------

def ar1_setup(seed, size):
    """``simulate``'s ar1-forecast scenario; ``n`` < 2000 keeps a prefix."""
    data = simulate.scenario_data("ar1-forecast", seed)
    n = size["n"]
    if n < len(data["y"]):
        data = {k: v[:n] for k, v in data.items()}
    return simulate.scenario_model("ar1-forecast", data)


def ar1_test(model, size):
    return list(range(model.n_obs - size["test"], model.n_obs))


def ar1_run(model, size):
    """Prior groups on ``trend`` for m = 1..max_m, one CV per m."""
    stages = _Stages()
    grid, gas = _fit(model, stages)
    ga = gas[0]
    out = Outcome([], len(grid), ga.theta.values)
    test = ar1_test(model, size)
    source = CorrelationSource("prior", ("trend",))
    for m in range(1, size["max_m"] + 1):
        spec = stages.call("groups", lgocv.build_groups, source, ga, m=m,
                           tie_tol=TIE_TOL, indices=test)
        _score(model, grid, gas, spec, test, stages, out)
    out.stage_s = stages.seconds
    return out


# -- besag-poisson -----------------------------------------------------------

def lattice_adjacency(side):
    """Rook neighbours on a side x side lattice, row-major node numbers."""
    adj = [set() for _ in range(side * side)]
    for r in range(side):
        for c in range(side):
            i = r * side + c
            if c + 1 < side:
                adj[i].add(i + 1)
                adj[i + 1].add(i)
            if r + 1 < side:
                adj[i].add(i + side)
                adj[i + side].add(i)
    return adj


def besag_setup(seed, size):
    """Poisson counts on a lattice: smooth field plus noise, random offsets.

    The field is a few random low-frequency waves (a smooth surface an ICAR
    prior fits well) plus small iid noise; offsets E_i ~ U(5, 20).
    """
    rng = np.random.default_rng(seed)
    side = size["side"]
    n = side * side
    x, y = np.meshgrid(np.arange(side) / side, np.arange(side) / side)
    x, y = x.ravel(), y.ravel()
    field = np.zeros(n)
    for _ in range(4):
        kx, ky = rng.uniform(0.5, 2.0, size=2)
        phase = rng.uniform(0.0, 2 * np.pi)
        field += 0.3 * np.cos(2 * np.pi * (kx * x + ky * y) + phase)
    field += 0.1 * rng.standard_normal(n)
    offset = rng.uniform(5.0, 20.0, size=n)
    counts = rng.poisson(offset * np.exp(field)).astype(float)

    comps = [FixedEffects("intercept", 1, prec=1e-4),
             Besag("spatial", lattice_adjacency(side), log_prec="log_prec_spatial")]
    A = sp.hstack([sp.csr_matrix(np.ones((n, 1))), sp.identity(n, format="csr")],
                  format="csr")
    hypers = [HyperSpec("log_prec_spatial", prior_mean=0.0, prior_prec=1e-4,
                        init=0.0)]
    return LgmModel(comps, A, Poisson(offset=offset), counts, hypers)


def besag_test(model, size):
    return [int(i) for i in
            np.linspace(0, model.n_obs - 1, size["test"]).round().astype(int)]


def besag_run(model, size):
    """Prior groups on ``spatial`` at m = 2 over evenly spaced test regions."""
    stages = _Stages()
    grid, gas = _fit(model, stages)
    ga_mode = gas[int(np.argmax(grid.log_posteriors))]
    out = Outcome([], len(grid), ga_mode.theta.values)
    test = besag_test(model, size)
    spec = stages.call("groups", lgocv.build_groups,
                       CorrelationSource("prior", ("spatial",)), ga_mode,
                       m=size["m"], tie_tol=TIE_TOL, indices=test)
    _score(model, grid, gas, spec, test, stages, out)
    out.stage_s = stages.seconds
    return out


@dataclass(frozen=True)
class Workload:
    """A seeded generator, the pipeline it feeds, and its sizes."""

    setup: object           # (seed, size) -> LgmModel
    run: object             # (model, size) -> Outcome
    check_groups: object    # (model, size) -> [(source, m, i)] for the oracle
    full: dict
    tiny: dict


def _multilevel_checks(model, size):
    n = model.n_obs
    return [(CorrelationSource("posterior"), 1, i) for i in (0, n // 2, n - 1)]


def _ar1_checks(model, size):
    test = ar1_test(model, size)
    src = CorrelationSource("prior", ("trend",))
    return [(src, 1, test[0]), (src, size["max_m"], test[-1])]


def _besag_checks(model, size):
    test = besag_test(model, size)
    src = CorrelationSource("prior", ("spatial",))
    return [(src, size["m"], i) for i in (test[0], test[len(test) // 2], test[-1])]


# The full sizes keep the theta grid the same size for every seed (8 points
# at 25 classes; at 100 classes it is 8 or 9 depending on the seed, which
# moves cv_s by 12% from seed to seed) and one repetition at 3-4 s.
WORKLOADS = {
    "multilevel-binomial": Workload(
        multilevel_setup, multilevel_run, _multilevel_checks,
        full={"classes": 25, "per_class": 10},
        tiny={"classes": 8, "per_class": 4}),
    "ar1-sweep": Workload(
        ar1_setup, ar1_run, _ar1_checks,
        full={"n": simulate.AR1_N, "test": 100, "max_m": 10},
        tiny={"n": 120, "test": 20, "max_m": 3}),
    "besag-poisson": Workload(
        besag_setup, besag_run, _besag_checks,
        full={"side": 20, "test": 100, "m": 2},
        tiny={"side": 6, "test": 8, "m": 2}),
}
