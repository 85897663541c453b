"""Declarative model specification files and observation data CSVs.

A model spec is an INI-style text file with one ``[likelihood]`` section,
one ``[component NAME]`` section per latent component, optional
``[hyper NAME]`` sections for estimated or fixed hyperparameters and
optional ``[constraint NAME]`` sections for extra linear constraints.
Values of the form ``hyper:NAME`` link a parameter to a hyperparameter;
plain numbers fix it on the natural scale.
"""

from __future__ import annotations

import configparser
import csv
import os

import numpy as np
import scipy.sparse as sp

from . import components as comp
from .likelihoods import FAMILIES
from .model import LgmModel, HyperSpec


class SpecError(ValueError):
    pass


def load_data(path):
    """CSV with a header row -> dict of float column arrays."""
    if not os.path.exists(path):
        raise SpecError(f"data file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SpecError(f"{path}: empty data file") from None
        header = [h.strip() for h in header]
        cols = {h: [] for h in header}
        if len(cols) < len(header):
            twice = next(h for h in header if header.count(h) > 1)
            raise SpecError(f"{path}: column {twice!r} appears twice in the header")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise SpecError(f"{path}:{lineno}: expected {len(header)} fields, "
                                f"got {len(row)}")
            for h, c in zip(header, row):
                try:
                    cols[h].append(float(c))
                except ValueError:
                    raise SpecError(f"{path}:{lineno}: non-numeric value "
                                    f"{c!r} in column {h!r}") from None
    if not cols or not next(iter(cols.values())):
        raise SpecError(f"{path}: no data rows")
    return {h: np.array(v) for h, v in cols.items()}


def write_data(path, data):
    names = list(data)
    n = len(next(iter(data.values())))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(n):
            writer.writerow([repr(float(data[k][i])) for k in names])


def _linked(value):
    """'hyper:NAME' -> NAME; otherwise a float."""
    value = value.strip()
    if value.startswith("hyper:"):
        return value[len("hyper:"):].strip()
    try:
        return float(value)
    except ValueError:
        raise SpecError(f"expected a number or hyper:NAME, got {value!r}") from None


def _column(data, key, where):
    if key not in data:
        raise SpecError(f"{where}: data has no column {key!r}")
    return data[key]


def _parse_spec(path):
    if not os.path.exists(path):
        raise SpecError(f"model spec not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise SpecError(f"{path}: {exc}") from None
    return parser


def _index_column(data, sec, name, size):
    raw = _column(data, sec["index"], f"component {name}")
    if not np.all(np.isfinite(raw) & (raw == np.round(raw))):
        raise SpecError(f"component {name}: index column must hold integers")
    idx = raw.astype(int)
    if size is None:
        size = int(sec.get("size", idx.max() + 1))
    if idx.min() < 0 or idx.max() >= size:
        raise SpecError(f"component {name}: index outside [0, {size})")
    return idx, size


def _build_component(name, sec, data, graph_path=None):
    kind = sec.get("kind")
    if kind not in comp.COMPONENT_KINDS:
        raise SpecError(f"component {name}: unknown kind {kind!r}")

    if kind == "fixed":
        covs = sec.get("covariates", "").split()
        if not covs:
            raise SpecError(f"component {name}: fixed block needs covariates")
        cols = []
        n = len(next(iter(data.values())))
        for cname in covs:
            if cname == "1":
                cols.append(np.ones(n))
            else:
                cols.append(_column(data, cname, f"component {name}"))
        block = comp.FixedEffects(name, len(covs),
                                  prec=float(sec.get("precision", 1e-4)))
        return block, np.column_stack(cols)

    if "index" not in sec:
        raise SpecError(f"component {name}: needs an index column")

    if kind == "besag":
        gpath = sec.get("graph", graph_path)
        if gpath is None:
            raise SpecError(f"component {name}: besag needs a graph file")
        adjacency = comp.read_graph(gpath)
        block = comp.Besag(name, tuple(adjacency),
                           log_prec=_linked(sec.get("precision", "1.0")))
        idx, _ = _index_column(data, sec, name, block.size)
    else:
        idx, size = _index_column(data, sec, name, None)
        prec = _linked(sec.get("precision", "1.0"))
        if kind == "iid":
            block = comp.Iid(name, size, log_prec=prec)
        elif kind == "ar1":
            block = comp.Ar1(name, size, log_prec=prec,
                             rho=_linked(sec.get("rho", "0.0")))
        elif kind == "rw1":
            block = comp.Rw1(name, size, log_prec=prec,
                             cyclic=sec.getboolean("cyclic", False))
        else:
            block = comp.Rw2(name, size, log_prec=prec)

    n = idx.size
    design = sp.csr_matrix((np.ones(n), (np.arange(n), idx)),
                           shape=(n, block.size))
    return block, design


def _build_likelihood(sec, data):
    family = sec.get("family")
    if family not in FAMILIES:
        raise SpecError(f"likelihood: unknown family {family!r}")
    if "response" not in sec:
        raise SpecError("likelihood: missing response column")
    y = _column(data, sec["response"], "likelihood")
    if family == "gaussian":
        fam = FAMILIES[family](precision=_linked(sec.get("precision", "1.0")))
    elif family == "poisson":
        off = sec.get("offset", "1.0")
        offset = _column(data, off, "likelihood") if off in data else float(off)
        fam = FAMILIES[family](offset=offset)
    elif family == "binomial":
        tr = sec.get("trials", "1")
        trials = _column(data, tr, "likelihood") if tr in data else float(tr)
        fam = FAMILIES[family](n_trials=trials)
    else:
        fam = FAMILIES[family]()
    return fam, y


def load_model(spec_path, data_path, graph_path=None):
    """Parse a model spec and a data CSV into an LgmModel."""
    parser = _parse_spec(spec_path)
    data = load_data(data_path)

    if "likelihood" not in parser:
        raise SpecError(f"{spec_path}: missing [likelihood] section")
    likelihood, y = _build_likelihood(parser["likelihood"], data)

    blocks, designs = [], []
    hyper_specs = []
    constraints = []
    for section in parser.sections():
        if section.startswith("component "):
            name = section.split(None, 1)[1]
            block, design = _build_component(name, parser[section], data,
                                             graph_path)
            blocks.append(block)
            designs.append(sp.csr_matrix(design))
        elif section.startswith("hyper "):
            name = section.split(None, 1)[1]
            sec = parser[section]
            fixed = sec.get("fixed")
            hyper_specs.append(HyperSpec(
                name,
                prior_mean=float(sec.get("mean", 0.0)),
                prior_prec=float(sec.get("precision", 1e-4)),
                init=float(sec.get("init", 0.0)),
                fixed=float(fixed) if fixed is not None else None))
        elif section.startswith("constraint "):
            constraints.append((section.split(None, 1)[1], parser[section]))
        elif section != "likelihood":
            raise SpecError(f"{spec_path}: unknown section [{section}]")

    if not blocks:
        raise SpecError(f"{spec_path}: no components defined")
    A = sp.hstack(designs, format="csr")

    extra = None
    if constraints:
        offsets = {}
        pos = 0
        for b in blocks:
            offsets[b.name] = pos
            pos += b.size
        rows, vals = [], []
        for cname, sec in constraints:
            target = sec.get("component")
            if target not in offsets:
                raise SpecError(f"constraint {cname}: unknown component {target!r}")
            size = next(b.size for b in blocks if b.name == target)
            weights = np.array([float(w) for w in sec.get("weights", "").split()])
            if weights.size != size:
                raise SpecError(f"constraint {cname}: expected {size} weights")
            full = np.zeros(pos)
            off = offsets[target]
            full[off:off + size] = weights
            rows.append(full)
            vals.append(float(sec.get("value", 0.0)))
        extra = (np.array(rows), np.array(vals))

    return LgmModel(blocks, A, likelihood, y, hyper_specs, extra)
