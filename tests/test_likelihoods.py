import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgocv.likelihoods import (Binomial, Exponential, Gaussian,
                               LikelihoodError, Poisson, FAMILIES)

FD_STEP = 1e-5
FD_RTOL = 1e-5


def fd_check(fam, y, eta):
    y = np.asarray(y, float)
    g, g1, g2 = fam.derivatives(y, eta)
    gp, g1p, _ = fam.derivatives(y, eta + FD_STEP)
    gm, g1m, _ = fam.derivatives(y, eta - FD_STEP)
    fd1 = (gp - gm) / (2 * FD_STEP)
    fd2 = (g1p - g1m) / (2 * FD_STEP)   # second derivative via analytic g'
    scale1 = np.maximum(np.abs(g1), 1.0)
    scale2 = np.maximum(np.abs(g2), 1.0)
    assert np.all(np.abs(g1 - fd1) <= FD_RTOL * scale1)
    assert np.all(np.abs(g2 - fd2) <= FD_RTOL * scale2)


ETA_GRID = np.linspace(-5.0, 5.0, 41)


def test_gaussian_centered_quadratic():
    g, g1, g2 = Gaussian(precision=1.0).derivatives(np.zeros(1), np.zeros(1))
    assert g1[0] == 0.0
    assert g2[0] == -1.0


def test_poisson_unit_example():
    g, g1, g2 = Poisson(offset=1.0).derivatives(np.ones(1), np.zeros(1))
    assert g1[0] == pytest.approx(0.0, abs=1e-15)
    assert g2[0] == pytest.approx(-1.0)


def test_binomial_half_example():
    g, g1, g2 = Binomial(n_trials=20.0).derivatives(np.full(1, 10.0), np.zeros(1))
    assert g1[0] == pytest.approx(0.0, abs=1e-12)
    assert g2[0] == pytest.approx(-5.0)


def test_finite_difference_grid():
    cases = [
        (Gaussian(precision=2.5), np.full_like(ETA_GRID, 0.3)),
        (Poisson(offset=np.full_like(ETA_GRID, 1.7)), np.full_like(ETA_GRID, 4.0)),
        (Binomial(n_trials=np.full_like(ETA_GRID, 12.0)), np.full_like(ETA_GRID, 5.0)),
        (Exponential(), np.full_like(ETA_GRID, 0.8)),
    ]
    for fam, y in cases:
        fd_check(fam, y, ETA_GRID)


@settings(max_examples=60, deadline=None)
@given(eta=st.floats(-5.0, 5.0), y=st.integers(0, 30))
def test_poisson_derivatives_property(eta, y):
    fd_check(Poisson(offset=2.0), np.array([float(y)]), np.array([eta]))


@settings(max_examples=60, deadline=None)
@given(eta=st.floats(-5.0, 5.0), y=st.integers(0, 20))
def test_binomial_derivatives_property(eta, y):
    fd_check(Binomial(n_trials=20.0), np.array([float(y)]), np.array([eta]))


@settings(max_examples=60, deadline=None)
@given(eta=st.floats(-5.0, 5.0), y=st.floats(0.01, 50.0))
def test_exponential_derivatives_property(eta, y):
    fd_check(Exponential(), np.array([y]), np.array([eta]))


def test_log_concavity_all_families():
    for fam, y in [(Gaussian(precision=3.0), 1.0),
                   (Poisson(offset=2.0), 3.0),
                   (Binomial(n_trials=7.0), 4.0),
                   (Exponential(), 0.5)]:
        _, _, g2 = fam.derivatives(np.full_like(ETA_GRID, y), ETA_GRID)
        assert np.all(g2 <= 0.0)


def test_support_validation():
    with pytest.raises(LikelihoodError):
        Poisson(offset=1.0).validate(np.array([-1.0]))
    with pytest.raises(LikelihoodError):
        Poisson(offset=-1.0).validate(np.array([1.0]))
    with pytest.raises(LikelihoodError, match="offsets"):
        Poisson(offset=np.array([1.0, np.nan])).validate(np.array([1.0, 2.0]))
    with pytest.raises(LikelihoodError):
        Binomial(n_trials=3.0).validate(np.array([4.0]))
    with pytest.raises(LikelihoodError):
        Binomial(n_trials=0.0).validate(np.array([0.0]))
    for bad in (np.inf, np.nan):
        with pytest.raises(LikelihoodError, match="integers >= 1"):
            Binomial(n_trials=np.array([3.0, bad])).validate(np.array([1.0, 2.0]))
    with pytest.raises(LikelihoodError):
        Exponential().validate(np.array([0.0]))


def test_family_registry():
    assert set(FAMILIES) == {"gaussian", "poisson", "binomial", "exponential"}
