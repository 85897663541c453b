"""Automatic group construction from absolute predictor correlations.

For each observation i the groups union the top-m level sets of the absolute
correlation between eta_i and every other predictor, evaluated at the
hyperparameter mode.  Correlations come either from the posterior precision
Q_f or from a principal submatrix P of the prior precision (conditioning on
the unselected effects).  One sparse engine serves both; an intrinsic P is
bordered with a basis of its null space, which gives P^+ without forming
it.  No dense covariance or full correlation matrix is formed: the
marginal variances and the rows come from solves in slabs of
``covariance.slab_width`` columns, each reduced as soon as it is solved.
Rows come in blocks of at most ``RHS_BATCH`` observations, written slab by
slab into the block, and only the top-m level sets of each row are
located.  An engine keeps its last block, so a sweep over m on the same
rows solves them once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor

from .approx import _splu, kriging
from .covariance import RHS_BATCH, row_slabs

log = logging.getLogger(__name__)

_TINY = 1e-300
_ROUNDOFF = 1e-12   # relative size below which a variance is zero
_HEAD = 64          # sorted values the level-set walk steps through one by one


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
    """Index sets I_i keyed by observation."""

    groups: dict

    def __getitem__(self, i):
        return self.groups[i]

    def indices(self):
        return sorted(self.groups)

    def all_singletons(self):
        return all(len(v) == 1 for v in self.groups.values())


def _quad(AJ, X):
    """diag(AJ X) for a sparse row block AJ and dense columns X."""
    return np.asarray(AJ.multiply(X.T).sum(axis=1)).ravel()


class _SparseCorrEngine:
    """Correlation rows via solves against a factorized precision."""

    def __init__(self, A, solve, constrain):
        self.A = sp.csr_matrix(A)
        self._solve = solve
        self._constrain = constrain
        self._last = None           # (indices, rows) of the last block
        n = self.A.shape[0]
        var, free = np.empty(n), np.empty(n)
        for J, AJ in row_slabs(self.A):
            x = self._solve(AJ.T.toarray())
            free[J] = _quad(AJ, x)
            var[J] = _quad(AJ, self._constrain(x))
        # kriging leaves a fully constrained eta_i a roundoff residue of its
        # unconstrained variance
        if np.any(var <= _ROUNDOFF * free):
            raise GroupingError("zero marginal predictor variance; degenerate model")
        self.sd = np.sqrt(var)

    def rows(self, idx):
        """(len(idx), n) read-only |corr| rows; the last block is kept for a repeat."""
        idx = np.array(idx, dtype=int)
        last = self._last
        if last is not None and np.array_equal(idx, last[0]):
            return last[1]
        # allocated first, the kept block sits below the temporaries in the heap
        block = np.empty((idx.size, self.A.shape[0]))
        for J, AJ in row_slabs(self.A[idx]):
            X = self._constrain(self._solve(AJ.T.toarray()))
            np.divide(np.abs((self.A @ X).T), np.outer(self.sd[idx[J]], self.sd),
                      out=block[J])
        block[np.arange(idx.size), idx] = 1.0
        np.minimum(block, 1.0, out=block)
        block.flags.writeable = False
        self._last = (idx, block)
        return block


def _selected_components(model, subset):
    comps = [c for c in model.components if subset is None or c.name in subset]
    if not comps:
        raise GroupingError(f"prior subset matches no components: {subset}")
    if subset is not None:
        bad = set(subset) - {c.name for c in model.components}
        if bad:
            raise GroupingError(f"unknown components in prior subset: {sorted(bad)}")
    return comps


def _restrict_constraints(model, cols):
    """Constraint rows supported on ``cols``, restricted to them."""
    if model.constraints is None:
        return np.zeros((0, cols.size))
    outside = np.ones(model.latent_size, dtype=bool)
    outside[cols] = False
    rows = []
    for row in model.constraints[0]:
        if not row[outside].any():
            rows.append(row[cols])
        elif row[cols].any():
            log.warning("dropping constraint row that crosses the prior subset")
    return np.array(rows).reshape(-1, cols.size)


def _make_engine(source, ga):
    model = ga.model
    if source.kind == "posterior":
        # not the fit's bound methods, which would tie fit and engine in a cycle
        return _SparseCorrEngine(model.design, ga._solve, ga._kriging)

    comps = _selected_components(model, source.subset)
    cols = np.concatenate([model.offsets[c.name] + np.arange(c.size) for c in comps])
    A_sel = model.design[:, cols]
    if np.any(np.diff(sp.csr_matrix(A_sel).indptr) == 0):
        raise GroupingError("prior subset leaves some observations with no effects")
    P_sel = model.prior_precision(ga.theta)[cols][:, cols].tocsc()
    # Border P_sel with a basis N of its null space: the first p rows of
    # K^-1 [b; 0], K = [[P, N], [N', 0]], are P^+ b (Rue & Held 2005, ch. 3).
    N = sp.block_diag([c.null_basis() if c.intrinsic else np.zeros((c.size, 0))
                       for c in comps], format="csc")
    p, k = N.shape
    lu, _ = _splu(sp.bmat([[P_sel, N], [N.T, None]], format="csc") if k else P_sel)

    def solve(rhs):
        if k:
            rhs = np.vstack([rhs, np.zeros((k, rhs.shape[1]))])
        return lu.solve(rhs)[:p]

    # krige onto the constraint rows; those in the null space (P^+ c = 0)
    # the border already enforces
    C = _restrict_constraints(model, cols)
    W = solve(C.T)
    keep = np.einsum("ij,ji->i", C, W) > _ROUNDOFF * max(np.abs(W).max(initial=0.0), 1.0)
    C, W = C[keep], W[:, keep]
    return _SparseCorrEngine(A_sel, solve,
                             kriging(C, W, cho_factor(C @ W) if keep.any() else None))


def _engine_for(source, ga):
    cache = ga.__dict__.setdefault("_corr_engines", {})
    if source not in cache:
        cache[source] = _make_engine(source, ga)
    return cache[source]


def correlation_row(source, ga, i):
    """|corr(eta_i, eta_j)| for all j, with exact 1 at j = i (read-only)."""
    if not 0 <= i < ga.model.n_obs:
        raise IndexError(f"observation index {i} out of range")
    return _engine_for(source, ga).rows([i])[0]


def level_set_partition(r, tie_tol, m=None):
    """Sort |correlations| descending and split into near-tie runs.

    Returns (order, ends): ``order`` is the descending index permutation
    (ties broken by observation index) and ``ends`` the exclusive end offset
    of each level set within ``order``; with ``m`` only the first m sets.
    A set ends at the first value more than ``tie_tol`` (relative) below
    its leading value.  The first ``_HEAD`` sorted values are walked one at
    a time; past them one vectorized comparison finds a set's end.
    """
    order = np.argsort(-r, kind="stable")
    vals = r[order]
    head = vals[:_HEAD].tolist()
    n, h = vals.size, len(head)
    ends, k = [], 0
    while k < n and (m is None or len(ends) < m):
        ref = head[k] if k < h else vals[k]
        tol = tie_tol * max(ref, _TINY)
        k += 1
        while k < h and ref - head[k] <= tol:
            k += 1
        if h <= k < n:
            tied = ref - vals[k:] <= tol
            k = n if tied.all() else k + int(np.argmin(tied))
        ends.append(k)
    return order, ends


def group_from_row(r, m, tie_tol):
    """Union of the top-m level sets of one absolute-correlation row."""
    order, ends = level_set_partition(r, tie_tol, m)
    return np.sort(order[:ends[-1]])


def build_groups(source, ga, m, tie_tol=1e-8, indices=None):
    """Algorithm: per-observation union of the top-m correlation level sets."""
    if m < 1:
        raise GroupingError("level-set count m must be >= 1")
    n = ga.model.n_obs
    engine = _engine_for(source, ga)
    idx = np.arange(n) if indices is None else np.asarray(indices, dtype=int)
    groups = {}
    starts = range(0, idx.size, RHS_BATCH)
    for start in starts:
        block = idx[start:start + RHS_BATCH]
        for i, r in zip(block, engine.rows(block)):
            groups[int(i)] = group_from_row(r, m, tie_tol)
    sizes = [g.size for g in groups.values()]
    log.debug("build_groups: m=%d, %d rows in %d RHS blocks, group size "
              "mean %.3f max %d", m, idx.size, len(starts),
              np.mean(sizes) if sizes else 0.0, max(sizes, default=0))
    return GroupSpec(groups)


def singleton_groups(indices):
    """Groups {i} for every index: LGOCV degenerates to LOOCV."""
    return GroupSpec({int(i): np.array([int(i)]) for i in indices})


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
    return GroupSpec(groups)
