"""Automatic group construction from absolute predictor correlations.

For each observation i the groups union the top-m level sets of the absolute
correlation between eta_i and every other predictor, evaluated at the
hyperparameter mode.  Correlations come either from the posterior precision
Q_f or from a principal submatrix P of the prior precision (conditioning on
the unselected effects).  One sparse engine serves both; an intrinsic P is
bordered with a basis of its null space, which gives P^+ without forming
it.  No dense covariance or full correlation matrix is formed: the rows
come from solves in slabs of ``covariance.slab_width`` columns, each
reduced as soon as it is solved.  The marginal variances of a prior engine
come from a selected inversion of its LU (Takahashi recursions) when
SuperLU pivoted on the diagonal and the factor's pattern holds every pair
of effects a design row reads; otherwise, and for the posterior, from
solving every unit column in slabs.  Rows come in blocks of at most
``RHS_BATCH`` observations, written slab by slab into the block, and only
the top-m level sets of each row are located.  An engine keeps its last
block and each row's descending order, so a sweep over m on the same rows
solves and sorts them once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve

from .approx import _pairs, _splu, kriging
from .covariance import RHS_BATCH, _quad, row_slabs

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


class _SparseCorrEngine:
    """Correlation rows via solves against a factorized precision.

    ``variances`` = (free, var), the unconstrained and constrained diagonals
    of A Sigma A', if already known; without it they come from solving every
    unit column of A'.
    """

    def __init__(self, A, solve, constrain, variances=None):
        self.A = sp.csr_matrix(A)
        self._solve = solve
        self._constrain = constrain
        self._last = None           # (indices, rows, descending orders)
        self.variances = "solved" if variances is None else "selected"
        if variances is None:
            n = self.A.shape[0]
            free, var = np.empty(n), np.empty(n)
            for J, AJ in row_slabs(self.A):
                x = self._solve(AJ.T.toarray())
                free[J] = _quad(AJ, x)
                var[J] = _quad(AJ, self._constrain(x))
        else:
            free, var = variances
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
        order = np.empty(block.shape, dtype=np.int32)
        for k, r in enumerate(block):
            order[k] = np.argsort(-r, kind="stable")
        block.flags.writeable = order.flags.writeable = False
        self._last = (idx, block, order)
        return block

    def orders(self, idx):
        """Each row of ``rows(idx)`` argsorted descending, kept with it."""
        self.rows(idx)
        return self._last[2]


def _selected_variances(lu, A):
    """diag(A K^-1 A') from the factor L U = Pi K Pi' alone, or None.

    A selected inversion (Erisman & Tinney 1975): with U = D U~, Z = (L U)^-1
    on the pattern of L + U comes column by column from the last, k over the
    below-diagonal entries of column j,

        Z_ij = -sum_k Z_ik L_kj,  Z_ji = -sum_k U~_jk Z_ki   (i > j),
        Z_jj = 1/d_j - sum_k U~_jk Z_kj.

    Needs pivots on the diagonal (perm_r == perm_c) and every pair a column
    or a row of A (K's first columns) reads inside the pattern; None when
    SuperLU pivoted off it or a pair falls outside.
    """
    perm = lu.perm_c
    if not np.array_equal(lu.perm_r, perm):
        return None
    L, U = lu.L.tocoo(), lu.U.tocoo()
    N = perm.size
    d = U.diagonal()
    # the strictly lower pattern of L + U', column-major; L_ij at l, U~_ji at u
    below, above = L.row > L.col, U.col > U.row
    lkey = L.col[below].astype(np.int64) * N + L.row[below]
    ukey = U.row[above].astype(np.int64) * N + U.col[above]
    keys = np.union1d(lkey, ukey)
    E = keys.size
    l, u = np.zeros(E), np.zeros(E)
    l[np.searchsorted(keys, lkey)] = L.data[below]
    u[np.searchsorted(keys, ukey)] = U.data[above] / d[U.row[above]]
    col, row = np.divmod(keys, N)
    ptr = np.searchsorted(col, np.arange(N + 1))
    keys = np.append(keys, N * N)       # a sentinel past every key

    def locate(i, j):
        """Slots of Z_ij in z = [diagonal | lower entries | upper entries]."""
        key = np.minimum(i, j) * N + np.maximum(i, j)
        e = np.searchsorted(keys, key)
        inside = (i == j) | (keys[e] == key)
        return np.where(i == j, i, N + e + E * (i < j)), inside.all()

    _, a, b = _pairs(ptr)
    zp, inside = locate(row[a], row[b])
    zt, _ = locate(row[b], row[a])
    A = sp.csr_matrix(A)
    obs, a, b = _pairs(A.indptr)
    zq, covered = locate(perm[A.indices[a]], perm[A.indices[b]])
    if not (inside and covered):
        return None
    starts = np.concatenate(([0], np.cumsum(np.diff(ptr) ** 2)))   # column j's pairs
    z = [0.0] * (N + 2 * E)
    zp, zt, ptr, starts, l, u, d = (x.tolist() for x in (zp, zt, ptr, starts, l, u, d))
    NE = N + E
    for j in range(N - 1, -1, -1):
        e0, e1, q = ptr[j], ptr[j + 1], starts[j]
        zjj = 1.0 / d[j]
        for i in range(e0, e1):
            lower = upper = 0.0
            for k in range(e0, e1):
                lower -= z[zp[q]] * l[k]        # Z_{r_i r_k} L_{r_k j}
                upper -= u[k] * z[zt[q]]        # U~_{j r_k} Z_{r_k r_i}
                q += 1
            z[N + i], z[NE + i] = lower, upper
            zjj -= u[i] * lower
        z[j] = zjj
    z = np.array(z)
    return np.bincount(obs, weights=A.data[a] * A.data[b] * z[zq], minlength=A.shape[0])


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
        return _SparseCorrEngine(model.design, ga.solve, ga.constrain)

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
    cho = cho_factor(C @ W) if keep.any() else None
    return _SparseCorrEngine(A_sel, solve, kriging(C, W, cho),
                             _prior_variances(lu, A_sel, W, cho))


def _prior_variances(lu, A, W, cho):
    """(free, var): diag(A Sigma A') by selected inversion, and with the
    constraints var_i = free_i - (a_i W) (C W)^-1 (a_i W)'; None where the
    factor does not serve (see ``_selected_variances``)."""
    free = _selected_variances(lu, A)
    if free is None:
        return None
    if cho is None:
        return free, free
    AW = A @ W
    return free, free - np.einsum("ij,ji->i", AW, cho_solve(cho, AW.T))


def _engine_for(source, ga):
    cache = ga.__dict__.setdefault("_corr_engines", {})
    if source not in cache:
        cache[source] = _make_engine(source, ga)
    return cache[source]


def level_set_partition(r, tie_tol, m=None, order=None):
    """Sort |correlations| descending and split into near-tie runs.

    Returns (order, ends): ``order`` is the descending index permutation
    (ties broken by observation index), given or sorted here, and ``ends``
    the exclusive end offset of each level set within ``order``; with ``m``
    only the first m sets.  A set ends at the first value more than
    ``tie_tol`` (relative) below its leading value.  The first ``_HEAD``
    sorted values are walked one at a time; past them one vectorized
    comparison finds a set's end.
    """
    if order is None:
        order = np.argsort(-r, kind="stable")
    head = r[order[:_HEAD]].tolist()
    n, h = r.size, len(head)
    ends, k = [], 0
    while k < n and (m is None or len(ends) < m):
        ref = head[k] if k < h else r[order[k]]
        tol = tie_tol * max(ref, _TINY)
        k += 1
        while k < h and ref - head[k] <= tol:
            k += 1
        if h <= k < n:
            tied = ref - r[order[k:]] <= tol
            k = n if tied.all() else k + int(np.argmin(tied))
        ends.append(k)
    return order, ends


def group_from_row(r, m, tie_tol, order=None):
    """Union of the top-m level sets of one absolute-correlation row, whose
    descending ``order`` may be given."""
    order, ends = level_set_partition(r, tie_tol, m, order)
    return np.sort(order[:ends[-1]]).astype(np.intp, copy=False)


def build_groups(source, ga, m, tie_tol=1e-8, indices=None):
    """Algorithm: per-observation union of the top-m correlation level sets."""
    if m < 1:
        raise GroupingError("level-set count m must be >= 1")
    if not 0 <= tie_tol < np.inf:
        # below 0 an observation's own |corr| of 1 can leave its first level set
        raise GroupingError(f"tie tolerance must be finite and >= 0, got {tie_tol!r}")
    n = ga.model.n_obs
    idx = np.arange(n) if indices is None else np.asarray(indices, dtype=int)
    if idx.size and not (0 <= idx.min() and idx.max() < n):
        raise IndexError(f"observation index out of range [0, {n})")
    engine = _engine_for(source, ga)
    groups = {}
    starts = range(0, idx.size, RHS_BATCH)
    for start in starts:
        block = idx[start:start + RHS_BATCH]
        rows, orders = engine.rows(block), engine.orders(block)
        for i, r, order in zip(block, rows, orders):
            groups[int(i)] = group_from_row(r, m, tie_tol, order)
    sizes = [g.size for g in groups.values()]
    log.debug("build_groups: m=%d, %d rows in %d RHS blocks, variances=%s, "
              "group size mean %.3f max %d", m, idx.size, len(starts),
              engine.variances, np.mean(sizes) if sizes else 0.0,
              max(sizes, default=0))
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
