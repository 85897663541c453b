"""Randomized engine-vs-oracle verification of the downdate machinery.

Draws small models with random designs, families, components and constraint
patterns, and checks that the sparse no-refit leave-group moments match a
dense brute-force assembly entry by entry.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .approx import find_mode
from .components import Ar1, FixedEffects, Iid, Rw1
from .covariance import eta_covariance
from .engine import downdate, DowndateError
from .likelihoods import Binomial, Gaussian, Poisson
from .model import LgmModel, HyperSpec
from .oracle import OracleReport, dense_downdate_oracle

VERIFY_TOL = 1e-9


def random_model(rng):
    """A small random LGM mixing component kinds, families and constraints."""
    n = int(rng.integers(12, 30))
    comps = [FixedEffects("intercept", 1, prec=1e-4)]
    designs = [sp.csr_matrix(np.ones((n, 1)))]

    kind = rng.choice(["iid", "ar1", "rw1"])
    size = int(rng.integers(4, 9))
    idx = rng.integers(0, size, size=n)
    idx[:size] = np.arange(size)          # every level observed
    inc = sp.csr_matrix((np.ones(n), (np.arange(n), idx)), shape=(n, size))
    if kind == "iid":
        comps.append(Iid("block", size, log_prec=float(rng.uniform(0.5, 3.0))))
    elif kind == "ar1":
        comps.append(Ar1("block", size, log_prec=float(rng.uniform(0.5, 3.0)),
                         rho=float(rng.uniform(-0.8, 0.8))))
    else:
        comps.append(Rw1("block", size, log_prec=float(rng.uniform(0.5, 3.0))))
    designs.append(inc)
    A = sp.hstack(designs, format="csr")

    eta = np.clip(rng.normal(0.0, 0.7, size=n), -2.5, 2.5)
    family = rng.choice(["gaussian", "poisson", "binomial"])
    if family == "gaussian":
        lik = Gaussian(precision=float(rng.uniform(0.5, 5.0)))
        y = eta + rng.normal(0.0, 0.5, size=n)
    elif family == "poisson":
        lik = Poisson(offset=rng.uniform(0.5, 3.0, size=n))
        y = rng.poisson(np.asarray(lik.offset) * np.exp(eta)).astype(float)
    else:
        trials = rng.integers(3, 15, size=n).astype(float)
        lik = Binomial(n_trials=trials)
        y = rng.binomial(trials.astype(int), expit(eta)).astype(float)
    return LgmModel(comps, A, lik, y)


def random_group(rng, model):
    size = int(rng.integers(1, 5))
    return np.sort(rng.choice(model.n_obs, size=size, replace=False))


def run_verification(cases=50, seed=0, tolerance=VERIFY_TOL):
    """Compare sparse downdated moments with the dense oracle on random models."""
    rng = np.random.default_rng(seed)
    report = OracleReport(tolerance=tolerance, relative=False)
    done = 0
    while done < cases:
        model = random_model(rng)
        theta = model.hyper_point(np.zeros(0))
        ga = find_mode(model, theta)
        I = random_group(rng, model)
        warm = np.union1d(I[:1], (I + 1) % model.n_obs)     # overlaps I
        for _ in range(2):          # the second call keeps columns I reuses
            eta_covariance(ga, warm)
        try:
            lgm = downdate(eta_covariance(ga, I), ga)
        except DowndateError:
            continue                      # draw another case
        oracle = dense_downdate_oracle(model, theta, I, ga=ga)
        scale = max(np.abs(oracle.mu).max(), np.abs(oracle.sigma).max(), 1.0)
        mu_err = np.abs(lgm.mu - oracle.mu).max() / scale
        sig_err = np.abs(lgm.sigma - oracle.sigma).max() / scale
        report.add(f"case{done}:mu", mu_err, 0.0)
        report.add(f"case{done}:sigma", sig_err, 0.0)
        done += 1
    return report
