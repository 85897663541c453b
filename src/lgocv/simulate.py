"""Simulation scenarios: multilevel models with three response families and
an AR(1) forecasting study.

Each scenario generates data with a seeded generator, builds the matching
model programmatically, and can emit spec/data files for the CLI.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .components import FixedEffects, Iid, Ar1
from .likelihoods import Gaussian, Poisson, Binomial, Exponential
from .model import LgmModel, HyperSpec

SCENARIOS = ("multilevel-gaussian", "multilevel-binomial",
             "multilevel-exponential", "ar1-forecast")

MULTILEVEL_N = 100
MULTILEVEL_CLASSES = 10
MULTILEVEL_MU = np.log(10.0)
GAUSSIAN_SD = 0.1
BINOMIAL_TRIALS = 20
AR1_N = 2000
AR1_RHO = 0.9
AR1_MU = 2.0


def simulate_multilevel(family, seed):
    """10 class means from N(0,1); eta_i = log(10) + s_ceil(i/10); n = 100."""
    rng = np.random.default_rng(seed)
    s = rng.standard_normal(MULTILEVEL_CLASSES)
    cls = np.arange(MULTILEVEL_N) // (MULTILEVEL_N // MULTILEVEL_CLASSES)
    eta = MULTILEVEL_MU + s[cls]
    if family == "gaussian":
        y = eta + GAUSSIAN_SD * rng.standard_normal(MULTILEVEL_N)
    elif family == "binomial":
        y = rng.binomial(BINOMIAL_TRIALS, expit(eta)).astype(float)
    elif family == "exponential":
        y = rng.exponential(np.exp(eta))
    else:
        raise ValueError(f"unknown multilevel family {family!r}")
    return {"y": y, "class": cls.astype(float)}


def _intercept_design(index, k):
    """CSR [1 | E]: an intercept, then row i's indicator of ``index[i]`` of k."""
    n = index.size
    cols = np.empty(2 * n, dtype=np.int32)
    cols[0::2], cols[1::2] = 0, index + 1
    indptr = np.arange(0, 2 * n + 1, 2, dtype=np.int32)
    return sp.csr_matrix((np.ones(2 * n), cols, indptr), shape=(n, k + 1))


def multilevel_model(data, family):
    cls = data["class"].astype(int)
    k = int(cls.max()) + 1
    comps = [FixedEffects("intercept", 1, prec=1e-4),
             Iid("class", k, log_prec="log_prec_class")]
    A = _intercept_design(cls, k)
    if family == "gaussian":
        lik = Gaussian(precision=1.0 / GAUSSIAN_SD ** 2)
    elif family == "binomial":
        lik = Binomial(n_trials=float(BINOMIAL_TRIALS))
    elif family == "exponential":
        lik = Exponential()
    else:
        raise ValueError(f"unknown multilevel family {family!r}")
    hypers = [HyperSpec("log_prec_class", prior_mean=0.0, prior_prec=1e-4, init=0.0)]
    return LgmModel(comps, A, lik, data["y"], hypers)


def simulate_ar1(seed):
    """u_i = 0.9 u_{i-1} + eps, stationary start; y_i = 2 + u_i + 0.1 N."""
    rng = np.random.default_rng(seed)
    u = [float(rng.standard_normal() / np.sqrt(1.0 - AR1_RHO ** 2))]
    for e in rng.standard_normal(AR1_N - 1).tolist():
        u.append(AR1_RHO * u[-1] + e)
    eta = AR1_MU + np.array(u)
    y = eta + GAUSSIAN_SD * rng.standard_normal(AR1_N)
    return {"y": y, "tindex": np.arange(AR1_N, dtype=float)}


def ar1_model(data):
    n = len(data["y"])
    comps = [FixedEffects("intercept", 1, prec=1e-4),
             Ar1("trend", n, log_prec=1.0 - AR1_RHO ** 2, rho=AR1_RHO)]
    A = _intercept_design(np.arange(n), n)
    lik = Gaussian(precision=1.0 / GAUSSIAN_SD ** 2)
    return LgmModel(comps, A, lik, data["y"])


def scenario_data(name, seed):
    if name == "ar1-forecast":
        return simulate_ar1(seed)
    if name.startswith("multilevel-"):
        return simulate_multilevel(name.split("-", 1)[1], seed)
    raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIOS}")


def scenario_model(name, data):
    if name == "ar1-forecast":
        return ar1_model(data)
    return multilevel_model(data, name.split("-", 1)[1])


def scenario_spec_text(name):
    """Model spec file matching the programmatic scenario model."""
    if name == "ar1-forecast":
        return (
            "[likelihood]\n"
            "family = gaussian\n"
            "response = y\n"
            f"precision = {1.0 / GAUSSIAN_SD ** 2!r}\n\n"
            "[component intercept]\n"
            "kind = fixed\n"
            "covariates = 1\n\n"
            "[component trend]\n"
            "kind = ar1\n"
            "index = tindex\n"
            f"size = {AR1_N}\n"
            f"precision = {1.0 - AR1_RHO ** 2!r}\n"
            f"rho = {AR1_RHO!r}\n"
        )
    family = name.split("-", 1)[1]
    lik = {
        "gaussian": f"precision = {1.0 / GAUSSIAN_SD ** 2!r}\n",
        "binomial": f"trials = {BINOMIAL_TRIALS}\n",
        "exponential": "",
    }[family]
    return (
        "[likelihood]\n"
        f"family = {family}\n"
        "response = y\n"
        f"{lik}\n"
        "[component intercept]\n"
        "kind = fixed\n"
        "covariates = 1\n\n"
        "[component class]\n"
        "kind = iid\n"
        "index = class\n"
        f"size = {MULTILEVEL_CLASSES}\n"
        "precision = hyper:log_prec_class\n\n"
        "[hyper log_prec_class]\n"
        "mean = 0\n"
        "precision = 1e-4\n"
        "init = 0\n"
    )
