"""Latent Gaussian model: components, design matrix, likelihood, constraints.

The joint latent vector f stacks all component blocks; the sparse design
matrix A maps f to the linear predictors eta = A f.  Hyperparameters live on
an internal unconstrained scale (log precisions, atanh correlations).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .components import on_pattern
from .likelihoods import LikelihoodError


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class HyperSpec:
    """One internal-scale hyperparameter with a Gaussian prior.

    ``prior_prec`` follows the convention that the second Gaussian parameter
    is a precision.  A ``fixed`` value removes the hyperparameter from the
    estimation problem.
    """

    name: str
    prior_mean: float = 0.0
    prior_prec: float = 1e-4
    init: float = 0.0
    fixed: float | None = None


@dataclass(frozen=True)
class HyperPoint:
    """A point in the internal-scale hyperparameter space."""

    values: np.ndarray
    log_prior: float = 0.0

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if not np.all(np.isfinite(v)):
            raise ModelError("hyperparameter values must be finite")
        object.__setattr__(self, "values", v)


class LgmModel:
    """Immutable model description.

    Parameters
    ----------
    components : list of latent components (see :mod:`lgocv.components`)
    design : sparse (n x p) matrix, p the total latent size
    likelihood : a family from :mod:`lgocv.likelihoods`
    y : response vector, length n
    hypers : list of HyperSpec covering every hyper name used by the
        components or the likelihood
    extra_constraints : optional (C, e) with C dense (k x p)
    """

    def __init__(self, components, design, likelihood, y, hypers=(),
                 extra_constraints=None):
        self.components = tuple(components)
        names = [c.name for c in self.components]
        if len(set(names)) != len(names):
            raise ModelError("component names must be unique")

        self.offsets = {}
        pos = 0
        for c in self.components:
            self.offsets[c.name] = pos
            pos += c.size
        self.latent_size = pos

        A = sp.csr_matrix(design, dtype=float)
        if A.shape[1] != self.latent_size:
            raise ModelError(
                f"design has {A.shape[1]} columns, latent size is {self.latent_size}")
        if A.shape[0] == 0:
            raise ModelError("a model needs at least one observation")
        if not np.all(np.isfinite(A.data)):
            raise ModelError("design entries must be finite")
        row_nnz = np.diff(A.indptr)
        if np.any(row_nnz == 0):
            raise ModelError("every observation needs a nonzero design row")
        self.design = A
        self.n_obs = A.shape[0]

        self.y = np.asarray(y, dtype=float)
        if self.y.shape != (self.n_obs,):
            raise ModelError("response length must match the design row count")
        if not np.all(np.isfinite(self.y)):
            raise LikelihoodError("responses must be finite")
        self.likelihood = likelihood
        likelihood.validate(self.y)

        self.hypers = tuple(hypers)
        known = {h.name for h in self.hypers}
        used = set()
        for c in self.components:
            used.update(c.hypers())
        if isinstance(getattr(likelihood, "precision", None), str):
            used.add(likelihood.precision)
        missing = used - known
        if missing:
            raise ModelError(f"no HyperSpec for hyperparameters: {sorted(missing)}")
        self.free_hypers = tuple(h for h in self.hypers if h.fixed is None)

        # auto sum-to-zero rows for intrinsic blocks, then user rows
        rows, vals = [], []
        for c in self.components:
            off = self.offsets[c.name]
            for r in c.constraint_rows():
                full = np.zeros(self.latent_size)
                full[off:off + c.size] = r
                rows.append(full)
                vals.append(0.0)
        if extra_constraints is not None:
            C_extra, e_extra = extra_constraints
            C_extra = np.atleast_2d(np.asarray(C_extra, dtype=float))
            e_extra = np.atleast_1d(np.asarray(e_extra, dtype=float))
            if C_extra.shape != (e_extra.size, self.latent_size):
                raise ModelError("constraint matrix shape mismatch")
            rows.extend(list(C_extra))
            vals.extend(list(e_extra))
        if rows:
            C = np.array(rows)
            if np.linalg.matrix_rank(C) != C.shape[0]:
                raise ModelError("constraint rows must be linearly independent")
            self.constraints = (C, np.array(vals))
        else:
            self.constraints = None

    # -- hyperparameters ---------------------------------------------------

    @property
    def theta_dim(self):
        return len(self.free_hypers)

    def theta_init(self):
        return np.array([h.init for h in self.free_hypers])

    def hyper_dict(self, theta):
        """Internal-scale name -> value map for a free-hyper vector theta."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.size != self.theta_dim:
            raise ModelError(f"theta must have length {self.theta_dim}")
        out = {h.name: h.fixed for h in self.hypers if h.fixed is not None}
        out.update({h.name: t for h, t in zip(self.free_hypers, theta)})
        return out

    def log_hyper_prior(self, theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        lp = 0.0
        for h, t in zip(self.free_hypers, theta):
            lp += 0.5 * np.log(h.prior_prec / (2 * np.pi))
            lp -= 0.5 * h.prior_prec * (t - h.prior_mean) ** 2
        return float(lp)

    def hyper_point(self, theta):
        return HyperPoint(np.atleast_1d(np.asarray(theta, dtype=float)),
                          self.log_hyper_prior(theta))

    # -- assembly ----------------------------------------------------------

    @property
    def has_intrinsic(self):
        return any(c.intrinsic for c in self.components)

    def prior_rank(self):
        return self.latent_size - sum(
            c.null_dim for c in self.components if c.intrinsic)

    @cached_property
    def prior_pattern(self):
        """P_f's pattern for every theta: its components' block-diagonally."""
        return sp.block_diag([c._pattern for c in self.components], format="csc")

    def prior_precision(self, theta):
        """Block-diagonal joint prior precision P_f(theta), on ``prior_pattern``."""
        hyper = self.hyper_dict(getattr(theta, "values", theta))
        u, scale = zip(*(c.precision_values(hyper) for c in self.components))
        P = on_pattern(self.prior_pattern, np.concatenate(u),
                       np.repeat(scale, [v.size for v in u]))
        if not np.all(np.isfinite(P.data)):
            raise ModelError("non-finite prior precision entries")
        return P

    def prior_log_det(self, theta):
        """Generalized log determinant of P_f (pseudo-det for intrinsic blocks)."""
        hyper = self.hyper_dict(getattr(theta, "values", theta))
        return float(sum(c.log_det(hyper) for c in self.components))

    def loglik_derivatives(self, theta, eta):
        """(g, g', g'') per observation at linear predictors eta."""
        eta = np.asarray(eta, dtype=float)
        if not np.all(np.isfinite(eta)):
            raise LikelihoodError("linear predictors must be finite")
        hyper = self.hyper_dict(getattr(theta, "values", theta))
        return self.likelihood.derivatives(self.y, eta, hyper)

    def loglik(self, theta, eta):
        """Log likelihood value per observation at linear predictors eta."""
        hyper = self.hyper_dict(getattr(theta, "values", theta))
        return self.likelihood.log_density(self.y, np.asarray(eta, dtype=float),
                                           hyper)

    def subset_likelihood(self, idx):
        """Likelihood family restricted to observations ``idx``."""
        fam = self.likelihood
        kw = {}
        if fam.offset is not None:
            E = np.asarray(fam.offset, dtype=float)
            kw["offset"] = E[idx] if E.ndim else E
        if fam.n_trials is not None:
            nt = np.asarray(fam.n_trials, dtype=float)
            kw["n_trials"] = nt[idx] if nt.ndim else nt
        if hasattr(fam, "precision"):
            kw["precision"] = fam.precision
        return type(fam)(**kw)

    def drop_observations(self, idx):
        """New model with observations ``idx`` removed (components shared)."""
        idx = np.asarray(idx, dtype=int)
        keep = np.setdiff1d(np.arange(self.n_obs), idx)
        return self.keep_observations(keep)

    def keep_observations(self, keep):
        keep = np.asarray(keep, dtype=int)
        extra = None
        if self.constraints is not None:
            n_auto = sum(len(c.constraint_rows()) for c in self.components)
            C, e = self.constraints
            if C.shape[0] > n_auto:
                extra = (C[n_auto:], e[n_auto:])
        return LgmModel(self.components, self.design[keep], self.subset_likelihood(keep),
                        self.y[keep], self.hypers, extra)

