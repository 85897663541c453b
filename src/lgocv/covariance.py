"""Posterior moments of linear predictors, entry by entry via sparse solves.

The posterior covariance of eta_I is never assembled for all observations:
each requested column comes from a sparse solve against the factorized
posterior precision, with the constraint correction applied through the
per-theta kriging workspace precomputed on the GaussianApprox.  Solves run
in slabs of ``slab_width(p)`` right-hand sides, at most ``SLAB_BYTES`` of
them, and each slab is reduced to its columns of Sigma before the next.
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
# 512 columns.  The width never changes an answer.
SLAB_BYTES = 512 * 1024


def slab_width(p):
    """Right-hand sides of length p per solve."""
    return max(1, SLAB_BYTES // (8 * p))


def row_slabs(A):
    """(J, A[J]) for slices J of ``slab_width(p)`` rows of a CSR matrix A
    with p columns; A itself when one slab holds every row."""
    k, p = A.shape
    w = slab_width(p)
    for s in range(0, k, w):
        J = slice(s, s + w)
        yield J, A if w >= k else A[J]


@dataclass(frozen=True)
class EtaMoments:
    """Mean and covariance of eta_I given (theta, y)."""

    indices: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=int))


def eta_covariance(ga, I):
    """Posterior moments of eta_I from multi-RHS solves, one per slab.

    Solves Q_f X = A_J' for each slab J of I reusing the stored
    factorization, corrects the solution columns for linear constraints, and
    reads off the slab's columns Sigma_IJ = A_I X.  No latent-size block of
    all |I| columns is formed.  The result is symmetrized against solver
    roundoff.
    """
    I = np.asarray(I, dtype=int)
    if I.size == 0:
        raise IndexError("index set is empty")
    if I.min() < 0 or I.max() >= ga.model.n_obs:
        raise IndexError(f"observation index out of range [0, {ga.model.n_obs})")
    if np.unique(I).size != I.size:
        raise IndexError("index set contains duplicates")
    AI = ga.model.design[I]
    cols = [AI @ ga.constrain(ga.solve(AJ.T.toarray())) for _, AJ in row_slabs(AI)]
    sigma = cols[0] if len(cols) == 1 else np.hstack(cols)
    sigma = 0.5 * (sigma + sigma.T)
    return EtaMoments(I, AI @ ga.mu, sigma)
