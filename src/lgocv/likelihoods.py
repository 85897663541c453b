"""Observation likelihood families.

Each family's ``observe(y)`` gives the per-observation log density
g_i(eta_i) and its first two derivatives in the linear predictor at fixed
responses y, with the data-only terms computed once: the binomial trial
counts and log binomial coefficients, the Poisson log offsets and log y!.
A Newton iteration or a quadrature rule evaluates it at many eta.  All
supported families are log-concave in eta, so the curvature -g'' is
nonnegative everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


class Observed(NamedTuple):
    """A family at fixed responses: functions of (eta, hyper=None)."""

    log_density: object         # g per observation
    derivatives: object         # (g, g', g'') per observation


@dataclass(frozen=True)
class Gaussian:
    """Gaussian response with known or hyper-linked observation precision.

    ``precision`` is either a positive float or the name of a hyperparameter
    holding the log precision.
    """

    precision: float | str = 1.0

    kind = "gaussian"

    def validate(self, y):
        """Every finite response is in the support; a fixed precision must be
        finite and positive."""
        if not isinstance(self.precision, str) and not 0 < self.precision < np.inf:
            raise LikelihoodError("gaussian precision must be finite and positive")

    def _prec(self, hyper):
        if isinstance(self.precision, str):
            return float(np.exp(hyper[self.precision]))
        return float(self.precision)

    def observe(self, y):
        def log_density(eta, hyper=None):
            tau = self._prec(hyper or {})
            return 0.5 * np.log(tau / (2.0 * np.pi)) - 0.5 * tau * (y - eta) ** 2

        def derivatives(eta, hyper=None):
            tau = self._prec(hyper or {})
            g2 = np.full_like(np.asarray(eta, dtype=float), -tau)
            return log_density(eta, hyper), tau * (y - eta), g2

        return Observed(log_density, derivatives)


@dataclass(frozen=True)
class Poisson:
    """Poisson counts with strictly positive per-observation offsets E_i."""

    offset: np.ndarray | float = 1.0

    kind = "poisson"

    def validate(self, y):
        if np.any(y < 0) or np.any(y != np.floor(y)):
            raise LikelihoodError("poisson responses must be nonnegative integers")
        E = np.asarray(self.offset, dtype=float)
        if not np.all(np.isfinite(E) & (E > 0)):
            raise LikelihoodError("poisson offsets must be finite and positive")

    def observe(self, y):
        E = _as_vector(self.offset, np.size(y), "offset")
        log_e, log_fact = np.log(E), gammaln(y + 1.0)

        def log_density(eta, hyper=None):
            return y * (log_e + eta) - E * np.exp(eta) - log_fact

        def derivatives(eta, hyper=None):
            lam = E * np.exp(eta)
            return y * (log_e + eta) - lam - log_fact, y - lam, -lam

        return Observed(log_density, derivatives)


@dataclass(frozen=True)
class Binomial:
    """Binomial counts with logit link and per-observation trial counts."""

    n_trials: np.ndarray | float = 1.0

    kind = "binomial"

    def validate(self, y):
        n = _as_vector(self.n_trials, np.size(y), "n_trials")
        if not np.all(np.isfinite(n) & (n >= 1) & (n == np.floor(n))):
            raise LikelihoodError("binomial trial counts must be integers >= 1")
        if np.any(y < 0) or np.any(y > n):
            raise LikelihoodError("binomial responses must satisfy 0 <= y <= n")

    def observe(self, y):
        n = _as_vector(self.n_trials, np.size(y), "n_trials")
        lc = gammaln(n + 1.0) - gammaln(y + 1.0) - gammaln(n - y + 1.0)

        def log_density(eta, hyper=None):
            # y*eta - n*log(1+e^eta), with the stable log1p(exp(.)) form
            return lc + y * eta - n * np.logaddexp(0.0, eta)

        def derivatives(eta, hyper=None):
            p = expit(eta)
            return log_density(eta), y - n * p, -n * p * (1.0 - p)

        return Observed(log_density, derivatives)


@dataclass(frozen=True)
class Exponential:
    """Exponential responses with mean exp(eta), i.e. rate exp(-eta)."""

    kind = "exponential"

    def validate(self, y):
        if np.any(y <= 0):
            raise LikelihoodError("exponential responses must be strictly positive")

    def observe(self, y):
        def log_density(eta, hyper=None):
            return -eta - y * np.exp(-eta)

        def derivatives(eta, hyper=None):
            w = y * np.exp(-eta)
            return -eta - w, -1.0 + w, -w

        return Observed(log_density, derivatives)


FAMILIES = {
    "gaussian": Gaussian,
    "poisson": Poisson,
    "binomial": Binomial,
    "exponential": Exponential,
}
