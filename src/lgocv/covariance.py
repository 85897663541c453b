"""Posterior moments of linear predictors, entry by entry via sparse solves.

The posterior covariance of eta_I is never assembled for all observations:
each requested entry comes from one sparse solve against the factorized
posterior precision, with the constraint correction applied through the
per-theta kriging workspace precomputed on the GaussianApprox.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RHS_BATCH = 512     # right-hand sides per multi-RHS solve, bounding its memory


@dataclass(frozen=True)
class EtaMoments:
    """Mean and covariance of eta_I given (theta, y)."""

    indices: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=int))


def eta_covariance(ga, I):
    """Posterior moments of eta_I from one multi-RHS solve.

    Solves Q_f X = A_I' reusing the stored factorization, corrects the
    solution columns for linear constraints, and reads off
    Sigma_ij = A_j x_i.  The result is symmetrized against solver roundoff.
    """
    I = np.asarray(I, dtype=int)
    if I.size == 0:
        raise IndexError("index set is empty")
    if I.min() < 0 or I.max() >= ga.model.n_obs:
        raise IndexError(f"observation index out of range [0, {ga.model.n_obs})")
    if np.unique(I).size != I.size:
        raise IndexError("index set contains duplicates")
    AI = ga.model.design[I]
    X = ga.solve(AI.T.toarray())
    X = ga.constrain(X)
    sigma = AI @ X
    sigma = 0.5 * (sigma + sigma.T)
    return EtaMoments(I, AI @ ga.mu, sigma)
