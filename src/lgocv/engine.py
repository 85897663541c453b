"""Leave-group-out predictive densities without refitting.

``leave_group_moments`` is the one path from a fit and distinct groups to
their leave-out moments: ``eta_covariance`` of each chunk of groups (member
union of at most ``RHS_BATCH`` observations) gives the moments of eta over
the union, each group's are a sub-block, and one kernel call per chunk and
group size removes the groups' likelihood contributions (one Cholesky of
I - D sigma_I D per group, D = diag(sqrt(c_I)), whatever its rank) and
corrects the theta weight by a Laplace approximation of
pi(y_I | theta, y_-I).  ``compute_lgocv`` takes these per theta grid point,
then one batched adaptive Gauss-Hermite call evaluates every test
observation's one-dimensional predictive integral.  Theta points are
independent, which is what ``threads`` runs in parallel.  ``downdate`` and
``theta_correction`` are single-group forms that no library module calls:
the benchmark's oracle check and tracer name them.
"""

from __future__ import annotations

import functools
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .covariance import RHS_BATCH, eta_covariance
from .approx import find_mode

log = logging.getLogger(__name__)

DEFAULT_GH_ORDER = 15
NEG_PREC_TOL = 1e-8       # tolerance on the eigenvalues of I - D sigma_I D
DEGENERATE_VARIANCE = "degenerate leave-out variance for quadrature"
NON_FINITE_CORRECTION = "non-finite Laplace correction"


class DowndateError(RuntimeError):
    """Removing y_I leaves eta_I prior-unidentified at this theta."""


@dataclass(frozen=True)
class LeaveGroupMoments:
    """Moments of eta_I with y_I removed, plus what the Laplace ratio needs.

    ``downdate``'s result.  ``log_ratio`` is log piG(eta*_I | y_-I) -
    log piG(eta*_I | y) at the full-data mean; ``sigma`` may be singular,
    as sigma_I may be.
    """

    indices: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    log_ratio: float


def _downdate_stack(mu, sigma, cI, bI):
    """Downdate a stack of k groups of s members each at once.

    ``mu`` is (k, s), ``sigma`` (k, s, s), and ``cI``, ``bI`` (k, s) are the
    groups' curvature and linearization.  With D = diag(sqrt(c_I)) and
    M = I - D sigma D = L L', the push-through form of the Woodbury identity
    gives (sigma^-1 - C_I)^-1 = sigma + G'G, G = L^-1 D sigma, and
    det(I - sigma C_I) = det M, for sigma of any rank; groups of different
    rank share the stack.  Returns the leave-out ``mu`` and ``sigma``,
    ``log_ratio``, and {row: reason} for the groups that failed, whose
    ``log_ratio`` is nan.
    """
    k, s = mu.shape
    d = np.sqrt(cI)
    DS = d[..., None] * sigma
    M = np.eye(s) - DS * d[:, None, :]
    v = bI - cI * mu                       # mu_minus = mu - Sigma_minus v
    w = (sigma @ v[..., None])[..., 0]

    ok = sigma.reshape(k, -1).any(axis=1)
    reasons = {int(j): "eta_I covariance is identically zero"
               for j in np.flatnonzero(~ok)}
    try:                                   # M = I where sigma_I = 0
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:         # one group failed the whole stack
        L = np.zeros_like(M) + np.eye(s)   # a failed group keeps a unit factor
        for j in np.flatnonzero(ok):
            try:
                L[j] = np.linalg.cholesky(M[j])
            except np.linalg.LinAlgError as exc:
                # c >= 0 keeps M's eigenvalues <= 1, so an M whose Cholesky
                # succeeds has lambda_min >= -O(s eps) > -NEG_PREC_TOL
                e = np.linalg.eigvalsh(M[j])[0]
                reasons[int(j)] = (
                    f"leave-out precision has eigenvalue {e:.3e} (scale 1.000e+00); "
                    "observation skipped" if e < -NEG_PREC_TOL else
                    f"leave-out precision not positive definite: {exc}")
                ok[j] = False

    # [G | h] = L^{-1} D [sigma | w];  G'[G | h] = [Sigma_minus - sigma | G'h]
    X = np.linalg.solve(L, np.concatenate([DS, (d * w)[..., None]], axis=2))
    Y = X[..., :s].transpose(0, 2, 1) @ X
    sigma_minus = sigma + Y[..., :s]
    # log_ratio = 0.5 logdet M - 0.5 v' Sigma_minus v
    log_ratio = np.where(ok, np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
                         - 0.5 * (np.sum(v * w, axis=1)
                                  + np.sum(X[..., s] ** 2, axis=1)), np.nan)
    return (mu - (w + Y[..., s]),
            0.5 * (sigma_minus + sigma_minus.transpose(0, 2, 1)),
            log_ratio, reasons)


def downdate(em, ga):
    """Remove the group's likelihood information from the eta_I moments:
    the kernel on a stack of one, the bits of ``leave_group_moments`` on
    the group alone."""
    I = em.indices
    mu, sigma, log_ratio, reasons = _downdate_stack(
        em.mu[None], em.sigma[None], ga.c[I][None], ga.b[I][None])
    if reasons:
        raise DowndateError(reasons[0])
    return LeaveGroupMoments(I, mu[0], sigma[0], float(log_ratio[0]))


def theta_correction(lgm, em, ga):
    """log pi_LA(y_I | theta, y_-I): likelihood at the full-data predictor
    mode times the ratio of the leave-out to full Gaussian densities there."""
    val = float(np.sum(ga.g[lgm.indices])) + lgm.log_ratio
    if not np.isfinite(val):
        raise DowndateError(NON_FINITE_CORRECTION)
    return val


@functools.lru_cache(maxsize=None)
def _gauss_hermite(order):
    """Gauss-Hermite nodes and weights, computed once per order."""
    nodes, wts = hermgauss(order)
    nodes.setflags(write=False)
    wts.setflags(write=False)
    return nodes, wts


def _integrand_modes(fam, hyper, mean, var, tol=1e-10, max_iter=60):
    """Modes and curvature scales of pi(y_i|eta) N(eta; mean_i, var_i), for
    ``fam`` the likelihood observed at y (``observe``).

    Each integrand is strictly log-concave (log-concave likelihood plus a
    Gaussian), so a safeguarded 1-D Newton always converges.  The Newton
    runs on all entries at once; an entry stops moving once it has
    converged, and its line search stops once it accepts a step, so every
    entry follows the iterates of a Newton run on it alone.
    """
    eta = mean.copy()
    g, g1, g2 = fam.derivatives(eta, hyper)
    val = g - 0.5 * (eta - mean) ** 2 / var
    active = np.ones(eta.size, dtype=bool)
    for _ in range(max_iter):
        step = -(g1 - (eta - mean) / var) / (g2 - 1.0 / var)
        eta_new, val_new = eta.copy(), val.copy()
        alpha = np.ones(eta.size)
        search = active.copy()
        for _ in range(40):
            eta_new[search] = eta[search] + alpha[search] * step[search]
            with np.errstate(over="ignore"):     # an overflow is inf, rejected
                t, t1, t2 = fam.derivatives(eta_new, hyper)
            vt = t - 0.5 * (eta_new - mean) ** 2 / var
            g[search], g1[search], g2[search] = t[search], t1[search], t2[search]
            val_new[search] = vt[search]
            search &= ~(np.isfinite(vt)
                        & (vt >= val - 1e-13 * np.maximum(1.0, np.abs(val))))
            if not search.any():
                break
            alpha[search] *= 0.5
        active &= ~(np.abs(eta_new - eta) <= tol * (1.0 + np.abs(eta)))
        eta, val = eta_new, val_new
        if not active.any():
            break
    return eta, np.sqrt(-1.0 / (g2 - 1.0 / var))


def gh_log_predictive(model, theta, idx, mean, var, order=DEFAULT_GH_ORDER):
    """log of the inner integral of pi(y_i|eta) against N(eta; mean, var).

    Adaptive Gauss-Hermite: nodes are centered at the mode of the integrand
    and scaled by its curvature there, which makes the rule exact when the
    likelihood is Gaussian however narrow it is relative to N(mean, var).
    ``idx``, ``mean`` and ``var`` are arrays of equal length; one batched
    Newton gives one value per entry.  The likelihood's data-only terms are
    computed once for every node.
    """
    idx = np.asarray(idx, dtype=int)
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float)
    if np.any(var <= 0):
        raise DowndateError(DEGENERATE_VARIANCE)
    hyper = model.hyper_dict(getattr(theta, "values", theta))
    fam = model.subset_likelihood(idx).observe(model.y[idx])
    eta_hat, scale = _integrand_modes(fam, hyper, mean, var)
    nodes, wts = _gauss_hermite(order)
    eta = eta_hat + np.sqrt(2.0) * scale * nodes[:, None]     # (order, n)
    logf = (fam.log_density(eta, hyper)
            - 0.5 * (eta - mean) ** 2 / var + (nodes ** 2)[:, None])
    mx = logf.max(axis=0)
    log_sum = mx + np.log(wts @ np.exp(logf - mx))
    return (log_sum + 0.5 * np.log(2.0 * scale ** 2)
            - 0.5 * np.log(2.0 * np.pi * var))


@dataclass
class LgocvResult:
    """Per-observation leave-group-out predictive scores and the utility."""

    indices: np.ndarray
    density: np.ndarray
    log_score: np.ndarray
    group_size: np.ndarray
    utility: float
    skipped: list
    n_theta: int

    @property
    def skipped_frac(self):
        """Skipped share of the requested observations (nan if none)."""
        total = len(self.indices) + len(self.skipped)
        return len(self.skipped) / total if total else float("nan")

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("index,group_size,density,log_score\n")
            for i, gs, d, ls in zip(self.indices, self.group_size,
                                    self.density, self.log_score):
                fh.write(f"{i + 1},{gs},{float(d)!r},{float(ls)!r}\n")

    def write_summary(self, path, extra=None):
        lines = {
            "u_lgocv": repr(self.utility),
            "negated_utility": repr(-self.utility),
            "n_evaluated": str(len(self.indices)),
            "n_skipped": str(len(self.skipped)),
            "skipped_frac": repr(self.skipped_frac),
            "n_theta": str(self.n_theta),
        }
        if extra:
            lines.update(extra)
        with open(path, "w") as fh:
            for k, v in lines.items():
                fh.write(f"{k} = {v}\n")


def fit_grid_approximations(model, grid):
    """One converged GaussianApprox per theta grid point.

    These are the grid's own fits when ``build_theta_grid`` made the grid
    for ``model``.  A grid that carries no fits (restored from saved state,
    or without free hyperparameters) or was built for another model is
    fitted again, cold, point by point.
    """
    if grid.fits is not None and grid.fits[0].model is model:
        return list(grid.fits)
    return [find_mode(model, hp) for hp in grid.points]


def _distinct_groups(groups, test):
    """The distinct groups of the test observations, in first-use order.

    Returns the member arrays, the group of each test observation and the
    observation's position within its group.
    """
    keys, members, group_of, at = {}, [], [], []
    for i in np.asarray(test, dtype=int).tolist():
        I = np.asarray(groups[i], dtype=int)
        key = tuple(I.tolist())
        g = keys.setdefault(key, len(members))
        if g == len(members):
            if len(set(key)) != len(key):
                raise IndexError("index set contains duplicates")
            members.append(I)
        if i not in key:
            raise IndexError(f"the group of observation {i} does not contain it")
        group_of.append(g)
        at.append(key.index(i))
    return members, np.array(group_of, dtype=int), np.array(at, dtype=int)


def _union_chunks(members, limit):
    """Runs of consecutive groups whose member union stays within ``limit``
    columns; a larger group forms a run of its own.

    Each run is (group ids, sorted member union, the positions of each
    group's members in the union).
    """
    runs, ids, union = [], [], set()
    for g, I in enumerate(members):
        if ids and len(union.union(I.tolist())) > limit:
            runs.append(ids)
            ids, union = [], set()
        ids.append(g)
        union.update(I.tolist())
    if ids:
        runs.append(ids)
    out = []
    for ids in runs:
        U = np.unique(np.concatenate([members[g] for g in ids]))
        out.append((ids, U, [np.searchsorted(U, members[g]) for g in ids]))
    return out


@dataclass(frozen=True)
class GroupMoments:
    """Leave-out moments of distinct groups at one fit, as the kernel stacks
    them: ``stacks`` holds (group ids, mu (k, s), sigma (k, s, s)) per chunk
    and group size s, failed groups included; ``log_corr`` is each group's
    log pi_LA(y_I | theta, y_-I) = sum(g_I) + log_ratio, nan where
    ``reasons`` (group -> reason) says why it failed; ``solved`` counts the
    RHS columns solved, not kept from an earlier call."""

    stacks: list
    log_corr: np.ndarray
    reasons: dict
    solved: int


def leave_group_moments(ga, members, chunks=None):
    """Leave-out moments of the groups ``members`` (observation arrays, no
    two equal) at the fit ``ga``: ``eta_covariance`` once per chunk of
    ``_union_chunks(members, RHS_BATCH)`` (or ``chunks``), and
    ``_downdate_stack`` once per chunk and group size."""
    if chunks is None:
        chunks = _union_chunks(members, RHS_BATCH)
    log_corr = np.full(len(members), np.nan)
    stacks, reasons, solved = [], {}, 0
    for ids, U, pos in chunks:
        em = eta_covariance(ga, U)
        solved += em.solved
        sizes = np.array([members[g].size for g in ids])
        for s in np.unique(sizes):
            sel = np.flatnonzero(sizes == s)
            gs = np.asarray(ids)[sel]
            P = np.array([pos[j] for j in sel])            # (k, s) in U
            G = U[P]                                       # (k, s) observations
            mu, sigma, log_ratio, why = _downdate_stack(
                em.mu[P], em.sigma[P[:, :, None], P[:, None, :]], ga.c[G], ga.b[G])
            corr = ga.g[G].sum(axis=1) + log_ratio
            done = np.isfinite(corr)
            for j in np.flatnonzero(~done):
                reasons[int(gs[j])] = why.get(j, NON_FINITE_CORRECTION)
            log_corr[gs[done]] = corr[done]
            stacks.append((gs, mu, sigma))
    return GroupMoments(stacks, log_corr, reasons, solved)


def _score_theta(model, ga, test, members, group_of, at, chunks, gh_order):
    """One theta point's share of the mixture over the grid: the groups'
    log corrections (``leave_group_moments``), the log inner integral of
    each test observation whose group downdated (nan where skipped, from one
    Gauss-Hermite call), {test position: reason} for the skipped ones, and
    the RHS columns solved."""
    lg = leave_group_moments(ga, members, chunks)
    offset = np.cumsum([0] + [I.size for I in members])
    loo_mu = np.zeros(offset[-1])
    loo_var = np.zeros(offset[-1])
    for gs, mu, sigma in lg.stacks:
        flat = offset[gs][:, None] + np.arange(mu.shape[1])
        loo_mu[flat] = mu
        loo_var[flat] = np.diagonal(sigma, axis1=1, axis2=2)

    flat = offset[group_of] + at
    mean, var = loo_mu[flat], loo_var[flat]
    downdated = np.isfinite(lg.log_corr[group_of])
    degenerate = downdated & (var <= 0)
    failures = {int(n): lg.reasons[group_of[n]]
                for n in np.flatnonzero(~downdated)}
    failures.update((int(n), DEGENERATE_VARIANCE)
                    for n in np.flatnonzero(degenerate))
    score = downdated & ~degenerate
    log_inner = np.full(len(test), np.nan)
    if score.any():
        log_inner[score] = gh_log_predictive(model, ga.theta, test[score],
                                             mean[score], var[score], gh_order)
    return lg.log_corr, log_inner, failures, lg.solved


def compute_lgocv(model, grid, groups, gas=None, test_indices=None,
                  gh_order=DEFAULT_GH_ORDER, threads=1):
    """Leave-group-out predictive density for every requested observation.

    Works one theta point at a time.  The test observations' groups are
    deduplicated and chunked once; at each theta point
    ``leave_group_moments`` gives every distinct group's leave-out moments
    and theta correction, and one batched Gauss-Hermite call scores every
    test observation.  ``threads`` runs theta points in parallel.  A debug
    record counts the theta points, test observations, distinct groups, RHS
    columns solved and reused, successful downdates and skips.

    An observation whose group cannot be downdated, or whose leave-out
    variance is degenerate, at some theta point is skipped with the first
    such reason in grid order; skips are collected as diagnostics instead
    of aborting.  Results are in observation order and do not depend on
    ``threads``.
    """
    if gas is None:
        gas = fit_grid_approximations(model, grid)
    if test_indices is None:
        test_indices = groups.indices()
    test = np.sort(np.array([int(i) for i in test_indices], dtype=int))
    members, group_of, at = _distinct_groups(groups, test)
    chunks = _union_chunks(members, RHS_BATCH)

    def one(ga):
        return _score_theta(model, ga, test, members, group_of, at, chunks,
                            gh_order)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_theta = list(pool.map(one, gas))
    else:
        per_theta = [one(ga) for ga in gas]

    log_corrs, inners, failures, solves = zip(*per_theta)
    reasons = {}
    for fails in failures:            # grid order: the first failure wins
        for n, msg in fails.items():
            reasons.setdefault(n, msg)
    skipped = [(int(test[n]), reasons[n]) for n in sorted(reasons)]
    for i, msg in skipped:
        log.warning("observation %d skipped: %s", i, msg)
    ok = np.ones(len(test), dtype=bool)
    ok[list(reasons)] = False

    log_corr = np.array(log_corrs)
    log_inner = np.array(inners)[:, ok]
    logw = np.log(grid.weights)[:, None] - log_corr[:, group_of[ok]]
    logw -= logw.max(axis=0)
    w = np.exp(logw)
    w /= w.sum(axis=0)
    dens = np.einsum("kn,kn->n", w, np.exp(log_inner))

    solved = sum(solves)
    log.debug("lgocv: %d theta points, %d test observations, %d distinct "
              "groups, RHS columns solved=%d reused=%d, downdates=%d, "
              "%d skipped", len(gas), len(test), len(members), solved,
              len(gas) * sum(U.size for _, U, _ in chunks) - solved,
              int(np.isfinite(log_corr).sum()), len(skipped))

    log_score = np.log(dens)
    utility = float(np.mean(log_score)) if len(dens) else float("nan")
    sizes = np.array([members[g].size for g in group_of[ok]], dtype=int)
    return LgocvResult(test[ok], dens, log_score, sizes, utility, skipped,
                       len(gas))

