"""Observation likelihood families.

Each family provides the per-observation log density g_i(eta_i) and its
first two derivatives in the linear predictor.  All supported families are
log-concave in eta, so the curvature -g'' is nonnegative everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, expit


class LikelihoodError(ValueError):
    """Response or parameter outside the family's support."""


def _as_vector(x, n, name):
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = np.full(n, float(a))
    if a.shape != (n,):
        raise LikelihoodError(f"{name} must be a scalar or a length-{n} vector")
    return a


@dataclass(frozen=True)
class Gaussian:
    """Gaussian response with known or hyper-linked observation precision.

    ``precision`` is either a positive float or the name of a hyperparameter
    holding the log precision.
    """

    precision: float | str = 1.0

    kind = "gaussian"
    n_trials = None
    offset = None

    def validate(self, y):
        """Every finite response is in the support."""

    def _prec(self, hyper):
        if isinstance(self.precision, str):
            return float(np.exp(hyper[self.precision]))
        return float(self.precision)

    def log_density(self, y, eta, hyper=None):
        tau = self._prec(hyper or {})
        return 0.5 * np.log(tau / (2.0 * np.pi)) - 0.5 * tau * (y - eta) ** 2

    def derivatives(self, y, eta, hyper=None):
        tau = self._prec(hyper or {})
        g = 0.5 * np.log(tau / (2.0 * np.pi)) - 0.5 * tau * (y - eta) ** 2
        g1 = tau * (y - eta)
        g2 = np.full_like(np.asarray(eta, dtype=float), -tau)
        return g, g1, g2


@dataclass(frozen=True)
class Poisson:
    """Poisson counts with strictly positive per-observation offsets E_i."""

    offset: np.ndarray | float = 1.0

    kind = "poisson"
    n_trials = None

    def validate(self, y):
        if np.any(y < 0) or np.any(y != np.floor(y)):
            raise LikelihoodError("poisson responses must be nonnegative integers")
        E = np.asarray(self.offset, dtype=float)
        if not np.all(np.isfinite(E) & (E > 0)):
            raise LikelihoodError("poisson offsets must be finite and positive")

    def _E(self, n):
        return _as_vector(self.offset, n, "offset")

    def log_density(self, y, eta, hyper=None):
        E = self._E(np.size(y))
        lam = E * np.exp(eta)
        return y * (np.log(E) + eta) - lam - gammaln(y + 1.0)

    def derivatives(self, y, eta, hyper=None):
        E = self._E(np.size(y))
        lam = E * np.exp(eta)
        g = y * (np.log(E) + eta) - lam - gammaln(y + 1.0)
        return g, y - lam, -lam


@dataclass(frozen=True)
class Binomial:
    """Binomial counts with logit link and per-observation trial counts."""

    n_trials: np.ndarray | float = 1.0

    kind = "binomial"
    offset = None

    def validate(self, y):
        n = _as_vector(self.n_trials, np.size(y), "n_trials")
        if np.any(n < 1) or np.any(n != np.floor(n)):
            raise LikelihoodError("binomial trial counts must be integers >= 1")
        if np.any(y < 0) or np.any(y > n):
            raise LikelihoodError("binomial responses must satisfy 0 <= y <= n")

    def log_density(self, y, eta, hyper=None):
        n = _as_vector(self.n_trials, np.size(y), "n_trials")
        # y*eta - n*log(1+e^eta), with the stable log1p(exp(.)) form
        lse = np.logaddexp(0.0, eta)
        lc = gammaln(n + 1.0) - gammaln(y + 1.0) - gammaln(n - y + 1.0)
        return lc + y * eta - n * lse

    def derivatives(self, y, eta, hyper=None):
        n = _as_vector(self.n_trials, np.size(y), "n_trials")
        p = expit(eta)
        g = self.log_density(y, eta)
        return g, y - n * p, -n * p * (1.0 - p)


@dataclass(frozen=True)
class Exponential:
    """Exponential responses with mean exp(eta), i.e. rate exp(-eta)."""

    kind = "exponential"
    n_trials = None
    offset = None

    def validate(self, y):
        if np.any(y <= 0):
            raise LikelihoodError("exponential responses must be strictly positive")

    def log_density(self, y, eta, hyper=None):
        return -eta - y * np.exp(-eta)

    def derivatives(self, y, eta, hyper=None):
        w = y * np.exp(-eta)
        return -eta - w, -1.0 + w, -w


FAMILIES = {
    "gaussian": Gaussian,
    "poisson": Poisson,
    "binomial": Binomial,
    "exponential": Exponential,
}
