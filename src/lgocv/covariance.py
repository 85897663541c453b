"""Posterior moments of linear predictors, entry by entry via sparse solves.

The posterior covariance of eta_I is never assembled for all observations:
each requested column comes from a sparse solve against the factorized
posterior precision, with the constraint correction applied through the
per-theta kriging workspace precomputed on the GaussianApprox.  Solves run
in slabs of ``slab_width(p)`` right-hand sides, ``SLAB_BYTES`` of them but
no fewer than ``SLAB_MIN``, and each slab is reduced to its columns of Sigma
before the next.
A fit keeps the slabs of overlapping calls (see ``eta_covariance``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RHS_BATCH = 512     # rows per kept correlation block, columns per CV chunk
# Bytes of right-hand sides per sparse solve: a solve runs in slabs of
# SLAB_BYTES // (8 p) columns of length p, each reduced as soon as it is
# solved.  Solve time per column against columns per call, one BLAS thread:
# at p = 2001 (AR(1)) 29 us at 32-64 columns but 63 us at 512, whose 8 MB
# block leaves the cache; at p = 401 (20 x 20 Besag) 20-23 us from 32 to
# 512 columns.  Below about 32 columns a solve costs more per column again
# (70 x 70 bordered Besag K, p = 4901: 2093, 1653 and 1563 us at 8, 16 and
# 32), hence a floor of SLAB_MIN columns.  The width never changes an answer.
SLAB_BYTES = 512 * 1024
SLAB_MIN = 32


def slab_width(p):
    """Right-hand sides of length p per solve."""
    return max(SLAB_MIN, SLAB_BYTES // (8 * p))


def row_slabs(A):
    """(J, A[J]) for slices J of ``slab_width(p)`` rows of a CSR matrix A
    with p columns; A itself when one slab holds every row."""
    k, p = A.shape
    w = slab_width(p)
    for s in range(0, k, w):
        J = slice(s, s + w)
        yield J, A if w >= k else A[J]


def _quad(AJ, X):
    """diag(AJ X) for a CSR row block AJ and dense columns X: each row's
    products summed in stored order, as ``AJ.multiply(X.T).sum(axis=1)``."""
    rows = np.repeat(np.arange(AJ.shape[0]), np.diff(AJ.indptr))
    return np.bincount(rows, weights=AJ.data * X[AJ.indices, rows], minlength=AJ.shape[0])


@dataclass(frozen=True)
class EtaMoments:
    """Mean and covariance of eta_I given (theta, y); ``solved`` RHS columns."""

    indices: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    solved: int = 0

    def __post_init__(self):
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=int))


def eta_covariance(ga, I):
    """Posterior moments of eta_I from multi-RHS solves, one per slab.

    Solves Q_f X = A_J' for each slab J of I reusing the stored
    factorization, corrects the solution columns for linear constraints, and
    reads off the slab's columns Sigma_IJ = A_I X.  No latent-size block of
    all |I| columns is formed within a call.  The result is symmetrized
    against solver roundoff.  Once a call overlaps the previous one on the
    same fit, as an m-sweep's unions do, the fit keeps its slabs and the next
    call solves only the members they lack; a sweep so holds up to p x |I|
    floats plus one slab between calls.  Columns do not depend on their
    slab-mates, so kept and fresh ones are the same bits.
    """
    I = np.asarray(I, dtype=int)
    if I.size == 0:
        raise IndexError("index set is empty")
    if I.min() < 0 or I.max() >= ga.model.n_obs:
        raise IndexError(f"observation index out of range [0, {ga.model.n_obs})")
    if np.unique(I).size != I.size:
        raise IndexError("index set contains duplicates")
    AI = ga.model.design[I]
    last, kept = ga.__dict__.get("_eta_columns", (frozenset(), []))
    members = frozenset(I.tolist())
    keep = not last.isdisjoint(members)
    order = np.argsort(I)
    sigma = np.empty((I.size, I.size))
    done = np.zeros(I.size, dtype=bool)
    slabs = []                  # (member of each column or -1, constrained X)
    for M, X in kept:
        k = order[np.minimum(np.searchsorted(I[order], M), I.size - 1)]
        hit = I[k] == M
        if hit.any():
            sigma[:, k[hit]] = AI @ (X if hit.all() else X[:, hit])
            done[k[hit]] = True
            slabs.append((np.where(hit, M, -1), X))
    fresh = np.flatnonzero(~done)
    for J, AJ in row_slabs(AI if fresh.size == I.size else AI[fresh]):
        X = ga.constrain(ga.solve(AJ.T.toarray()))
        sigma[:, fresh[J]] = AI @ X
        if keep:
            slabs.append((I[fresh[J]], X))
    if sum((M < 0).sum() for M, _ in slabs) > slab_width(AI.shape[1]):
        slabs = [(M, X) if M.min() >= 0 else (M[M >= 0], X[:, M >= 0])
                 for M, X in slabs]
    ga.__dict__["_eta_columns"] = (members, slabs)
    sigma = 0.5 * (sigma + sigma.T)
    return EtaMoments(I, AI @ ga.mu, sigma, fresh.size)
