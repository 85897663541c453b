"""Automatic group construction from absolute predictor correlations.

For each observation i the groups union the top-m level sets of the absolute
correlation between eta_i and every other predictor, evaluated at the
hyperparameter mode.  Correlations come either from the posterior precision
Q_f or from a principal submatrix of the prior precision (conditioning on
the unselected effects).  Full correlation matrices are never stored; each
row is one sparse solve.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla
import scipy.sparse as sp

from .covariance import RHS_BATCH

log = logging.getLogger(__name__)

_TINY = 1e-300


class GroupingError(ValueError):
    pass


@dataclass(frozen=True)
class CorrelationSource:
    """Where predictor correlations come from.

    ``kind`` is "posterior" or "prior"; for the prior, ``subset`` optionally
    names the components whose joint prior (conditioned on the rest) drives
    the correlation.
    """

    kind: str = "posterior"
    subset: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("prior", "posterior"):
            raise GroupingError(f"unknown correlation source kind {self.kind!r}")
        if self.subset is not None:
            if not self.subset:
                raise GroupingError("prior subset must be nonempty")
            object.__setattr__(self, "subset", tuple(self.subset))


@dataclass(frozen=True)
class GroupSpec:
    """Index sets I_i keyed by observation, with construction provenance."""

    groups: dict
    m: int
    source: CorrelationSource | None
    tie_tol: float

    def __getitem__(self, i):
        return self.groups[i]

    def indices(self):
        return sorted(self.groups)

    def all_singletons(self):
        return all(len(v) == 1 for v in self.groups.values())


class _SparseCorrEngine:
    """Correlation rows via solves against a factorized precision."""

    def __init__(self, A, solve, constrain, batch=RHS_BATCH):
        self.A = sp.csr_matrix(A)
        self._solve = solve
        self._constrain = constrain
        n = self.A.shape[0]
        var = np.empty(n)
        for start in range(0, n, batch):
            J = np.arange(start, min(start + batch, n))
            X = self._constrain(self._solve(self.A[J].T.toarray()))
            var[J] = np.asarray(self.A[J].multiply(X.T).sum(axis=1)).ravel()
        if np.any(var <= 0):
            raise GroupingError("zero marginal predictor variance; degenerate model")
        self.sd = np.sqrt(var)

    def row(self, i):
        x = self._constrain(self._solve(self.A[i].T.toarray())).ravel()
        cov = self.A @ x
        r = np.abs(cov) / (self.sd * self.sd[i])
        r[i] = 1.0
        return np.minimum(r, 1.0)


class _DenseCorrEngine:
    """Dense fallback for singular (intrinsic) prior submatrices."""

    def __init__(self, A, P_dense, constraints):
        self.A = sp.csr_matrix(A)
        sigma = np.linalg.pinv(P_dense, hermitian=True)
        if constraints is not None:
            C, _ = constraints
            for c in C:
                sc = sigma @ c
                denom = c @ sc
                if denom > 1e-12 * max(np.abs(sigma).max(), 1.0):
                    sigma -= np.outer(sc, sc) / denom
        self.sigma = sigma
        var = np.asarray(self.A.multiply(self.A @ sigma).sum(axis=1)).ravel()
        if np.any(var <= 0):
            raise GroupingError("zero marginal predictor variance; degenerate model")
        self.sd = np.sqrt(var)

    def row(self, i):
        x = self.sigma @ np.asarray(self.A[i].todense()).ravel()
        r = np.abs(self.A @ x) / (self.sd * self.sd[i])
        r[i] = 1.0
        return np.minimum(r, 1.0)


def _selected_columns(model, subset):
    cols = []
    for c in model.components:
        if subset is None or c.name in subset:
            off = model.offsets[c.name]
            cols.extend(range(off, off + c.size))
    if not cols:
        raise GroupingError(f"prior subset matches no components: {subset}")
    known = {c.name for c in model.components}
    if subset is not None:
        bad = set(subset) - known
        if bad:
            raise GroupingError(f"unknown components in prior subset: {sorted(bad)}")
    return np.array(cols, dtype=int)


def _restrict_constraints(model, cols):
    if model.constraints is None:
        return None
    C, e = model.constraints
    colset = set(cols.tolist())
    keep_rows, kept_e = [], []
    for row, val in zip(C, e):
        support = set(np.nonzero(row)[0].tolist())
        if support <= colset:
            keep_rows.append(row[cols])
            kept_e.append(val)
        elif support & colset:
            log.warning("dropping constraint row that crosses the prior subset")
    if not keep_rows:
        return None
    return np.array(keep_rows), np.array(kept_e)


def _make_engine(source, ga):
    model = ga.model
    if source.kind == "posterior":
        return _SparseCorrEngine(model.design, ga.solve, ga.constrain)

    cols = _selected_columns(model, source.subset)
    A_sel = model.design[:, cols]
    if np.any(np.diff(sp.csr_matrix(A_sel).indptr) == 0):
        raise GroupingError("prior subset leaves some observations with no effects")
    P_sel = model.prior_precision(ga.theta)[cols][:, cols].tocsc()
    constraints = _restrict_constraints(model, cols)
    selected = [c for c in model.components
                if source.subset is None or c.name in source.subset]
    if any(c.intrinsic for c in selected):
        return _DenseCorrEngine(A_sel, P_sel.toarray(), constraints)

    from .approx import _splu
    lu = _splu(P_sel)

    def solve(rhs):
        return lu.solve(rhs)

    if constraints is None:
        constrain = lambda x: x
    else:
        from scipy.linalg import cho_factor, cho_solve
        C, _ = constraints
        W = lu.solve(C.T)
        cho = cho_factor(C @ W)
        constrain = lambda x: x - W @ cho_solve(cho, C @ x)
    return _SparseCorrEngine(A_sel, solve, constrain)


def _engine_for(source, ga):
    cache = getattr(ga, "_corr_engines", None)
    if cache is None:
        cache = {}
        setattr(ga, "_corr_engines", cache)
    if source not in cache:
        cache[source] = _make_engine(source, ga)
    return cache[source]


def correlation_row(source, ga, i):
    """|corr(eta_i, eta_j)| for all j, with exact 1 at j = i."""
    if not 0 <= i < ga.model.n_obs:
        raise IndexError(f"observation index {i} out of range")
    return _engine_for(source, ga).row(i)


def level_set_partition(r, tie_tol):
    """Sort |correlations| descending and split into near-tie runs.

    Returns (order, ends): ``order`` is the descending index permutation
    (ties broken by observation index) and ``ends`` the exclusive end offset
    of each level set within ``order``.
    """
    order = np.argsort(-r, kind="stable")
    vals = r[order]
    ends = []
    k = 0
    n = vals.size
    while k < n:
        ref = vals[k]
        k += 1
        while k < n and ref - vals[k] <= tie_tol * max(ref, _TINY):
            k += 1
        ends.append(k)
    return order, ends


def group_from_row(r, m, tie_tol):
    """Union of the top-m level sets of one absolute-correlation row."""
    order, ends = level_set_partition(r, tie_tol)
    end = ends[min(m, len(ends)) - 1]
    return np.sort(order[:end])


def build_groups(source, ga, m, tie_tol=1e-8, indices=None, max_size=None):
    """Algorithm: per-observation union of the top-m correlation level sets."""
    if m < 1:
        raise GroupingError("level-set count m must be >= 1")
    n = ga.model.n_obs
    cap = n if max_size is None else int(max_size)
    engine = _engine_for(source, ga)
    idx = range(n) if indices is None else indices
    groups = {}
    for i in idx:
        g = group_from_row(engine.row(i), m, tie_tol)
        if g.size > cap:
            log.warning("group for observation %d has %d members (cap %d); "
                        "a level set exploded", i, g.size, cap)
        groups[int(i)] = g
    return GroupSpec(groups, m, source, tie_tol)


def singleton_groups(indices):
    """Groups {i} for every index: LGOCV degenerates to LOOCV."""
    return GroupSpec({int(i): np.array([int(i)]) for i in indices},
                     m=1, source=None, tie_tol=0.0)


def write_groups(path, spec):
    """Line-oriented export "i: j1 j2 ..." with 1-indexed observations."""
    with open(path, "w") as fh:
        for i in spec.indices():
            members = " ".join(str(j + 1) for j in spec.groups[i])
            fh.write(f"{i + 1}: {members}\n")


def read_groups(path, n_obs):
    groups = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#")[0].strip()
            if not line:
                continue
            try:
                head, tail = line.split(":", 1)
                i = int(head) - 1
                members = np.array(sorted({int(t) - 1 for t in tail.split()}))
            except ValueError as exc:
                raise GroupingError(f"{path}:{lineno}: malformed group line") from exc
            if not 0 <= i < n_obs:
                raise GroupingError(f"{path}:{lineno}: test index {i + 1} out of range")
            if members.size and (members.min() < 0 or members.max() >= n_obs):
                raise GroupingError(f"{path}:{lineno}: group member out of range")
            if i not in members:
                raise GroupingError(f"{path}:{lineno}: group must contain its own index")
            groups[i] = members
    if not groups:
        raise GroupingError(f"{path}: no groups found")
    return GroupSpec(groups, m=0, source=None, tie_tol=0.0)
