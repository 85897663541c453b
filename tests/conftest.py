"""Shared model builders for the test suite."""

import numpy as np
import pytest
import scipy.sparse as sp

from lgocv import simulate
from lgocv.components import Besag, FixedEffects, Iid
from lgocv.likelihoods import Gaussian, Poisson
from lgocv.model import HyperSpec, LgmModel


def conjugate_pair(y1=0.0, y2=0.0):
    """y_k | f ~ N(f, 1) for k = 1, 2 and f ~ N(0, 1); eta_k = f."""
    A = sp.csr_matrix(np.ones((2, 1)))
    return LgmModel([Iid("f", 1, log_prec=1.0)], A, Gaussian(precision=1.0),
                    [y1, y2])


def iid_identity_model(n=4, obs_prec=1.0, prior_prec=1.0, y=None):
    """n independent effects observed directly: A = I."""
    if y is None:
        y = np.zeros(n)
    return LgmModel([Iid("f", n, log_prec=prior_prec)],
                    sp.identity(n, format="csr"),
                    Gaussian(precision=obs_prec), y)


def multilevel_poisson(seed=5, offset=50.0, classes=10, per_class=10):
    """Poisson multilevel toy with informative counts; theta fixed."""
    rng = np.random.default_rng(seed)
    n = classes * per_class
    s = rng.standard_normal(classes) * 0.5
    cls = np.arange(n) // per_class
    eta = np.log(10.0) + s[cls]
    y = rng.poisson(offset * np.exp(eta)).astype(float)
    comps = [FixedEffects("intercept", 1, prec=1e-4),
             Iid("class", classes, log_prec=1.0)]
    A = sp.hstack([
        sp.csr_matrix(np.ones((n, 1))),
        sp.csr_matrix((np.ones(n), (np.arange(n), cls)), shape=(n, classes)),
    ], format="csr")
    return LgmModel(comps, A, Poisson(offset=offset), y)


def ar1_scenario(n=60):
    """The first n observations of ``simulate``'s ar1-forecast scenario."""
    data = {k: v[:n] for k, v in simulate.simulate_ar1(0).items()}
    return simulate.ar1_model(data)


def besag_lattice(side=5, log_prec=0.5):
    """Poisson counts with offsets on a side x side lattice: intercept plus
    a Besag field (auto sum-to-zero constraint).  A string ``log_prec``
    makes the field's log precision a free hyperparameter."""
    adj = [set() for _ in range(side * side)]
    for i in range(side * side):
        r, c = divmod(i, side)
        for j in ([i + 1] if c + 1 < side else []) + \
                 ([i + side] if r + 1 < side else []):
            adj[i].add(j)
            adj[j].add(i)
    n = side * side
    rng = np.random.default_rng(2)
    offset = rng.uniform(5.0, 20.0, size=n)
    y = rng.poisson(offset * np.exp(0.3 * np.sin(np.arange(n)))).astype(float)
    A = sp.hstack([sp.csr_matrix(np.ones((n, 1))), sp.identity(n, format="csr")],
                  format="csr")
    hypers = [HyperSpec(log_prec, prior_prec=1e-4)] if isinstance(log_prec, str) else []
    return LgmModel([FixedEffects("intercept", 1, prec=1e-4),
                     Besag("spatial", adj, log_prec=log_prec)],
                    A, Poisson(offset=offset), y, hypers)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
