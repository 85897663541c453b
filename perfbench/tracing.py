"""Spans and counters around the library's layer boundaries.

The traced run replaces module attributes where the library's callers look
the functions up (``lgocv.engine.downdate`` rather than
``lgocv.covariance``'s definition, for instance), records one span per call
with its parent, and restores every attribute on exit.  Nothing under
``src/`` knows about it.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import scipy.sparse.linalg

import lgocv
import lgocv.approx
import lgocv.engine
import lgocv.groups
from lgocv.model import LgmModel


class Tracer:
    """In-memory spans ``(id, parent, name, start, end)`` and counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._ids = itertools.count()

    @contextmanager
    def span(self, name):
        """Record the enclosed block as one span under the innermost open one."""
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def wrap(self, fn, name, after=None):
        """``fn`` recording a span per call; ``after(tracer, result, args,
        kwargs)`` runs once the call returns."""

        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(self, out, args, kwargs)
            return out

        return traced

    def count(self, fn, name):
        """``fn`` counting its calls without a span (hot, cheap calls)."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def durations(self):
        """Total duration and call count per span name."""
        total, calls = defaultdict(float), Counter()
        for _, _, name, t0, t1 in self.spans:
            total[name] += t1 - t0
            calls[name] += 1
        return total, calls

    def self_times(self):
        """Per span name: duration minus the time its child spans cover."""
        child = defaultdict(float)
        for _, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for sid, _, name, t0, t1 in self.spans:
            out[name] += (t1 - t0) - child[sid]
        return out


# -- what each wrapped call adds to the counters ------------------------------

def _after_find_mode(tracer, ga, args, kwargs):
    tracer.counts["newton_iters"] += ga.n_iter


def _after_grid(tracer, grid, args, kwargs):
    tracer.counts["grid_points"] += len(grid)


def _distinct(groups, indices):
    return len({tuple(int(j) for j in groups[i]) for i in indices})


def _after_build_groups(tracer, spec, args, kwargs):
    idx = spec.indices()
    tracer.counts["group_tests"] += len(idx)
    tracer.counts["group_distinct"] += _distinct(spec, idx)


def _after_group_from_row(tracer, g, args, kwargs):
    tracer.counts["group_members"] += g.size


def _after_eta_covariance(tracer, em, args, kwargs):
    tracer.counts["rhs_columns"] += em.indices.size


def _after_downdate(tracer, lgm, args, kwargs):
    tracer.counts["downdate_" + lgm.rank_path] += 1


def _after_compute_lgocv(tracer, res, args, kwargs):
    spec = args[2]
    test = kwargs.get("test_indices")
    test = spec.indices() if test is None else [int(i) for i in test]
    tracer.counts["distinct_group_thetas"] += _distinct(spec, test) * res.n_theta


def _targets(tracer):
    """(owner, attribute, replacement) for every instrumented lookup."""
    w, c = tracer.wrap, tracer.count
    out = [
        # pipeline stages, as the benchmark calls them
        (lgocv, "build_theta_grid",
         w(lgocv.build_theta_grid, "stage.grid", _after_grid)),
        (lgocv, "fit_grid_approximations",
         w(lgocv.fit_grid_approximations, "stage.refit")),
        (lgocv, "build_groups",
         w(lgocv.build_groups, "stage.groups", _after_build_groups)),
        (lgocv, "compute_lgocv",
         w(lgocv.compute_lgocv, "stage.cv", _after_compute_lgocv)),
        # approx: the grid search looks find_mode/log_evidence up in
        # lgocv.approx, fit_grid_approximations in lgocv.engine
        (lgocv.approx, "log_evidence",
         w(lgocv.approx.log_evidence, "approx.log_evidence")),
        (scipy.sparse.linalg, "splu", w(scipy.sparse.linalg.splu, "approx.splu")),
        (lgocv.groups, "group_from_row",
         w(lgocv.groups.group_from_row, "groups.group_from_row",
           _after_group_from_row)),
        (lgocv.engine, "eta_covariance",
         w(lgocv.engine.eta_covariance, "covariance.eta_covariance",
           _after_eta_covariance)),
        (lgocv.engine, "downdate",
         w(lgocv.engine.downdate, "engine.downdate", _after_downdate)),
        (lgocv.engine, "theta_correction",
         w(lgocv.engine.theta_correction, "engine.theta_correction")),
        (lgocv.engine, "gh_log_predictive",
         w(lgocv.engine.gh_log_predictive, "engine.gh_log_predictive")),
        (lgocv.engine, "hermgauss", c(lgocv.engine.hermgauss, "hermgauss")),
        (LgmModel, "subset_likelihood",
         c(LgmModel.subset_likelihood, "subset_likelihood")),
    ]
    find_mode = w(lgocv.approx.find_mode, "approx.find_mode", _after_find_mode)
    out += [(lgocv.approx, "find_mode", find_mode),
            (lgocv.engine, "find_mode", find_mode)]
    return out


@contextmanager
def installed(tracer):
    """Instrument the library for the duration of the block."""
    saved = []
    try:
        for owner, attr, replacement in _targets(tracer):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer):
    """The per-layer metrics of one traced pipeline run.

    ``approx.lu_factorizations`` counts every ``splu`` in the pipeline: the
    Newton steps, the prior Gram in ``log_evidence`` and the prior
    correlation engine.  ``groups.rows_s`` is ``build_s`` minus
    ``level_sets_s``: the row solves plus the correlation engine's set-up.
    ``engine.group_reuse`` is downdates per (distinct group, theta point).
    """
    dur, calls = tracer.durations()
    n = tracer.counts
    grid_points = n["grid_points"]
    rows = calls["groups.group_from_row"]
    downdates = calls["engine.downdate"]
    return {
        "approx.grid_s": (dur["stage.grid"], "s"),
        "approx.refit_s": (dur["stage.refit"], "s"),
        "approx.find_mode_calls": (calls["approx.find_mode"], "count"),
        "approx.find_mode_s": (dur["approx.find_mode"], "s"),
        "approx.newton_iters": (n["newton_iters"], "count"),
        "approx.lu_factorizations": (calls["approx.splu"], "count"),
        "approx.log_evidence_calls": (calls["approx.log_evidence"], "count"),
        "approx.log_evidence_s": (dur["approx.log_evidence"], "s"),
        "approx.grid_points": (grid_points, "count"),
        "approx.fits_per_grid_point":
            (calls["approx.find_mode"] / grid_points, "ratio"),
        "groups.build_s": (dur["stage.groups"], "s"),
        "groups.level_sets_s": (dur["groups.group_from_row"], "s"),
        "groups.rows_s":
            (dur["stage.groups"] - dur["groups.group_from_row"], "s"),
        "groups.rows": (rows, "count"),
        "groups.mean_size": (n["group_members"] / rows, "obs"),
        "groups.distinct_frac":
            (n["group_distinct"] / n["group_tests"], "ratio"),
        "covariance.eta_cov_calls": (calls["covariance.eta_covariance"], "count"),
        "covariance.eta_cov_s": (dur["covariance.eta_covariance"], "s"),
        "covariance.rhs_columns": (n["rhs_columns"], "count"),
        "engine.downdate_calls": (downdates, "count"),
        "engine.downdate_eigen_calls": (n["downdate_eigen"], "count"),
        "engine.downdate_s": (dur["engine.downdate"], "s"),
        "engine.theta_correction_s": (dur["engine.theta_correction"], "s"),
        "engine.gh_calls": (calls["engine.gh_log_predictive"], "count"),
        "engine.gh_s": (dur["engine.gh_log_predictive"], "s"),
        "engine.hermgauss_calls": (n["hermgauss"], "count"),
        "engine.group_reuse": (downdates / n["distinct_group_thetas"], "ratio"),
        "model.subset_likelihood_calls": (n["subset_likelihood"], "count"),
    }
