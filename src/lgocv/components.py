"""Latent Gaussian components and their sparse precision blocks.

Each component contributes one diagonal block to the joint latent prior
precision.  Intrinsic components (rw1, rw2, besag) are rank deficient and
register sum-to-zero constraints per connected block.

Hyper-linked parameters are given as a hyperparameter name (string) and
resolved from the internal-scale hyperparameter dictionary; plain floats are
fixed values on the natural scale (precision, lag-one correlation).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp


class ComponentError(ValueError):
    pass


def _resolve_log_prec(value, hyper):
    """Precision from a fixed natural-scale float or a log-precision hyper."""
    if isinstance(value, str):
        return float(np.exp(hyper[value]))
    tau = float(value)
    if tau <= 0:
        raise ComponentError("precision must be strictly positive")
    return tau


def _resolve_rho(value, hyper):
    """Lag-one correlation from a fixed float or an atanh-scale hyper."""
    if isinstance(value, str):
        return float(np.tanh(hyper[value]))
    rho = float(value)
    if not -1.0 < rho < 1.0:
        raise ComponentError("ar1 correlation must lie in (-1, 1)")
    return rho


def on_pattern(pattern, u, scale):
    """``pattern`` holding u * scale, exact zeros included: the graph, and so
    the pattern, does not change with the values."""
    return sp.csc_matrix((u * scale, pattern.indices, pattern.indptr),
                         shape=pattern.shape)


class _Block:
    """A precision block on a fixed, sorted CSC ``_pattern`` (by default the
    identity), whose entries ``precision_values(hyper)`` gives as
    (u, scale): by default the pattern's own entries and the precision."""

    @cached_property
    def _pattern(self):
        return sp.identity(self.size, format="csc")

    def precision_values(self, hyper):
        return self._pattern.data, _resolve_log_prec(self.log_prec, hyper)

    def precision(self, hyper):
        return on_pattern(self._pattern, *self.precision_values(hyper))

    def hypers(self):
        """Names of the hyperparameters the block's entries depend on."""
        return tuple(v for v in (getattr(self, "log_prec", None),
                                 getattr(self, "rho", None)) if isinstance(v, str))

    def constraint_rows(self):
        return []


@dataclass(frozen=True)
class FixedEffects(_Block):
    """Fixed-effects block with a proper vague Gaussian prior."""

    name: str
    size: int
    prec: float = 1e-4

    kind = "fixed"
    intrinsic = False

    def __post_init__(self):
        if not 0 < self.prec < np.inf:
            raise ComponentError(f"component {self.name}: precision must be "
                                 "finite and positive")

    def precision_values(self, hyper):
        return self._pattern.data, self.prec

    def log_det(self, hyper):
        return self.size * np.log(self.prec)


@dataclass(frozen=True)
class Iid(_Block):
    name: str
    size: int
    log_prec: float | str = 1.0

    kind = "iid"
    intrinsic = False

    def log_det(self, hyper):
        tau = _resolve_log_prec(self.log_prec, hyper)
        return self.size * np.log(tau)


@dataclass(frozen=True)
class Ar1(_Block):
    """Stationary AR(1) block parameterized by marginal precision and rho."""

    name: str
    size: int
    log_prec: float | str = 1.0
    rho: float | str = 0.0

    kind = "ar1"
    intrinsic = False

    @cached_property
    def _pattern(self):
        s = self.size
        return sp.diags([np.ones(s - 1), np.full(s, 2.0), np.ones(s - 1)],
                        [-1, 0, 1], format="csc").sorted_indices()

    def precision_values(self, hyper):
        """-rho off the diagonal, 1 + rho^2 on it and 1 at its two ends (the
        first and last entries), scaled by tau / (1 - rho^2)."""
        tau = _resolve_log_prec(self.log_prec, hyper)
        rho = _resolve_rho(self.rho, hyper)
        if self.size == 1:
            return np.array([tau]), 1.0
        u = np.where(self._pattern.data == 2.0, 1.0 + rho * rho, -rho)
        u[[0, -1]] = 1.0
        return u, tau / (1.0 - rho * rho)

    def log_det(self, hyper):
        tau = _resolve_log_prec(self.log_prec, hyper)
        rho = _resolve_rho(self.rho, hyper)
        # covariance is the Toeplitz rho^|i-j| / tau
        return self.size * np.log(tau) - (self.size - 1) * np.log1p(-rho * rho)


class _IntrinsicStructure(_Block):
    """An intrinsic component's fixed structure matrix ``_structure``."""

    @property
    def _pattern(self):
        return self._structure

    def null_basis(self):
        """(size, k) basis of the null space of ``_structure``: by default
        the sum-to-zero constraint rows, one per connected block."""
        return np.column_stack(self.constraint_rows())

    @property
    def null_dim(self):
        return self.null_basis().shape[1]

    @cached_property
    def _structure_logdet(self):
        """Log pseudo-determinant of ``_structure``, computed once."""
        w = np.linalg.eigvalsh(self._structure.toarray())
        tol = max(w.max(), 1.0) * 1e-10
        return float(np.sum(np.log(w[w > tol])))

    def log_det(self, hyper):
        tau = _resolve_log_prec(self.log_prec, hyper)
        return (self.size - self.null_dim) * np.log(tau) + self._structure_logdet


@dataclass(frozen=True)
class Rw1(_IntrinsicStructure):
    name: str
    size: int
    log_prec: float | str = 1.0
    cyclic: bool = False

    kind = "rw1"
    intrinsic = True

    @cached_property
    def _structure(self):
        s = self.size
        if self.cyclic:
            rows = np.repeat(np.arange(s), 2)
            cols = np.column_stack([np.arange(s), (np.arange(s) + 1) % s]).ravel()
            vals = np.tile([1.0, -1.0], s)
            D = sp.csc_matrix((vals, (rows, cols)), shape=(s, s))
        else:
            D = sp.diags([np.ones(s - 1), -np.ones(s - 1)], [0, 1],
                         shape=(s - 1, s), format="csc")
        return (D.T @ D).tocsc()

    def constraint_rows(self):
        return [np.ones(self.size)]


@dataclass(frozen=True)
class Rw2(_IntrinsicStructure):
    name: str
    size: int
    log_prec: float | str = 1.0

    kind = "rw2"
    intrinsic = True

    @cached_property
    def _structure(self):
        s = self.size
        if s < 3:
            raise ComponentError("rw2 needs size >= 3")
        D = sp.diags([np.ones(s - 2), -2.0 * np.ones(s - 2), np.ones(s - 2)],
                     [0, 1, 2], shape=(s - 2, s), format="csc")
        return (D.T @ D).tocsc()

    def constraint_rows(self):
        return [np.ones(self.size)]

    def null_basis(self):
        """Constants and linear trends, one direction more than the single
        sum-to-zero row constrains.  The trend is centred: against 0..size-1
        it leaves the bordered prior solve 30x less accurate at size 200."""
        s = self.size
        return np.column_stack([np.ones(s), np.arange(s) - (s - 1) / 2])


def read_graph(path):
    """Edge list ("node_a node_b" per line, 0-indexed) -> adjacency sets."""
    edges = []
    nmax = -1
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#")[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ComponentError(f"{path}:{lineno}: expected 'node_a node_b'")
            a, b = int(parts[0]), int(parts[1])
            if a < 0 or b < 0 or a == b:
                raise ComponentError(f"{path}:{lineno}: invalid edge {a} {b}")
            edges.append((a, b))
            nmax = max(nmax, a, b)
    adj = [set() for _ in range(nmax + 1)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _connected_blocks(adj):
    n = len(adj)
    seen = [False] * n
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        blocks.append(sorted(comp))
    return blocks


@dataclass(frozen=True)
class Besag(_IntrinsicStructure):
    """Unscaled ICAR block: degree on the diagonal, -1 for neighbours."""

    name: str
    adjacency: tuple
    log_prec: float | str = 1.0

    kind = "besag"
    intrinsic = True

    def __post_init__(self):
        object.__setattr__(self, "adjacency",
                           tuple(frozenset(a) for a in self.adjacency))

    @property
    def size(self):
        return len(self.adjacency)

    @cached_property
    def _blocks(self):
        return _connected_blocks(self.adjacency)

    @cached_property
    def _structure(self):
        s = self.size
        degree = [len(nbrs) for nbrs in self.adjacency]
        rows = np.repeat(np.arange(s), degree)
        cols = np.array([j for nbrs in self.adjacency for j in nbrs], dtype=int)
        R = sp.csc_matrix((np.full(rows.size, -1.0), (rows, cols)), shape=(s, s))
        if np.any(rows == cols) or (R - R.T).count_nonzero():
            raise ComponentError(f"besag {self.name}: neighbours must be mutual "
                                 "and exclude the node itself")
        return (R + sp.diags(np.array(degree, dtype=float))).tocsc()

    def constraint_rows(self):
        rows = []
        for comp in self._blocks:
            v = np.zeros(self.size)
            v[comp] = 1.0
            rows.append(v)
        return rows


COMPONENT_KINDS = {
    "fixed": FixedEffects,
    "iid": Iid,
    "ar1": Ar1,
    "rw1": Rw1,
    "rw2": Rw2,
    "besag": Besag,
}
