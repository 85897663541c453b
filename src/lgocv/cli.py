"""Command-line front end: fit, groups, cv, simulate, verify."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import simulate as sim
from .approx import (GRID_STEP, ThetaGrid, build_theta_grid, find_mode,
                     ModeFindingError, FactorizationError)
from .components import ComponentError
from .engine import compute_lgocv, fit_grid_approximations, DEFAULT_GH_ORDER
from .groups import (CorrelationSource, GroupingError, build_groups,
                     read_groups, singleton_groups, write_groups)
from .likelihoods import LikelihoodError
from .model import ModelError
from .oracle import lfocv_curve, map_levels_to_steps, refit_predictive_all
from .specfile import SpecError, load_data, load_model, write_data

STATE_VERSION = 2
STATE_FILE = "fitted_state.json"


class CliError(RuntimeError):
    pass


USER_ERRORS = (CliError, SpecError, ModelError, ComponentError, LikelihoodError,
               GroupingError, ModeFindingError, FactorizationError,
               ValueError, OSError, IndexError)


def _input_hashes(args):
    """sha256 of the spec, the data and the graph (None without a graph)."""
    def sha256(path):
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    graph = getattr(args, "graph", None)
    return {"spec": sha256(args.model), "data": sha256(args.data),
            "graph": sha256(graph) if graph else None}


def _parse_test_range(text, n_obs):
    """'a:b' with 1-indexed inclusive bounds -> 0-based index list."""
    try:
        a, b = text.split(":")
        a, b = int(a), int(b)
    except ValueError:
        raise CliError(f"--test-range must look like 1501:2000, got {text!r}")
    if not (1 <= a <= b <= n_obs):
        raise CliError(f"--test-range {text} outside 1..{n_obs}")
    return list(range(a - 1, b))


def _grid_step(text):
    """--theta-grid-step: a finite number > 0."""
    step = float(text)
    if not 0 < step < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text!r}")
    return step


def _load(args):
    return load_model(args.model, args.data, getattr(args, "graph", None))


def _write_theta_grid_csv(path, grid):
    with open(path, "w") as fh:
        dim = grid.mode.values.size
        head = ",".join(f"theta{i + 1}" for i in range(dim)) or "theta"
        fh.write(f"{head},log_posterior,weight\n")
        for hp, lp, w in zip(grid.points, grid.log_posteriors, grid.weights):
            vals = ",".join(repr(float(v)) for v in hp.values) or "0"
            fh.write(f"{vals},{float(lp)!r},{float(w)!r}\n")


def _mode_fit(model, grid, gas=None):
    """The fit at the theta mode ``grid.mode``, the grid's centre point.

    It is taken from the fits in hand (``gas``, else the grid's own); only a
    grid that carries no fits, such as one restored from saved state, pays
    one fresh fit at the mode."""
    if gas is None and grid.fits is not None and grid.fits[0].model is model:
        gas = grid.fits
    for hp, ga in zip(grid.points, gas or ()):
        if np.array_equal(hp.values, grid.mode.values):
            return ga
    return find_mode(model, grid.mode)


def cmd_fit(args):
    model = _load(args)
    grid = build_theta_grid(model, args.theta_grid_step)
    ga = _mode_fit(model, grid)

    os.makedirs(args.out, exist_ok=True)
    _write_theta_grid_csv(os.path.join(args.out, "theta_grid.csv"), grid)
    with open(os.path.join(args.out, "latent_summary.csv"), "w") as fh:
        fh.write("component,index,mean\n")
        for c in model.components:
            off = model.offsets[c.name]
            for j in range(c.size):
                fh.write(f"{c.name},{j},{float(ga.mu[off + j])!r}\n")
    # json writes each float as its repr, which reads back bit for bit
    state = {
        "version": STATE_VERSION,
        "sha256": _input_hashes(args),
        "theta_mode": grid.mode.values.tolist(),
        "theta_points": [hp.values.tolist() for hp in grid.points],
        "log_posteriors": grid.log_posteriors.tolist(),
        "weights": grid.weights.tolist(),
    }
    with open(os.path.join(args.out, STATE_FILE), "w") as fh:
        json.dump(state, fh)
    free = [h.name for h in model.free_hypers]
    print(f"fit complete: {len(grid)} theta grid point(s), "
          f"estimated hyperparameters: {free or 'none'}")
    return 0


def _restore_grid(model, args):
    """The theta grid of the JSON state that 'fit' wrote for the same spec,
    data and graph.  The file is only parsed, never executed."""
    try:
        with open(args.state, "rb") as fh:
            state = json.loads(fh.read())
        if state["version"] != STATE_VERSION:
            raise CliError(f"unsupported fitted-state version {state['version']!r}")
        stale = [k for k, h in _input_hashes(args).items() if state["sha256"][k] != h]
        if stale:
            raise CliError(f"fitted state does not match the {', '.join(stale)} "
                           "(sha256 mismatch); refusing to load")
        pts = tuple(model.hyper_point(v) for v in state["theta_points"])
        return ThetaGrid(pts, np.array(state["log_posteriors"], dtype=float),
                         np.array(state["weights"], dtype=float),
                         model.hyper_point(state["theta_mode"]))
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"{args.state} is not a fitted-state file from "
                       f"'lgocv fit' ({exc}); refusing to load") from exc


def _grid_for(args, model):
    if getattr(args, "state", None):
        return _restore_grid(model, args)
    return build_theta_grid(model, args.theta_grid_step)


def _source(args):
    subset = tuple(args.prior_subset.split(",")) if args.prior_subset else None
    return CorrelationSource(args.source, subset)


def cmd_groups(args):
    model = _load(args)
    grid = _grid_for(args, model)
    ga = _mode_fit(model, grid)
    indices = (_parse_test_range(args.test_range, model.n_obs)
               if args.test_range else None)
    spec = build_groups(_source(args), ga, args.m, tie_tol=args.tie_tol,
                        indices=indices)
    write_groups(args.groups_out, spec)
    sizes = [len(v) for v in spec.groups.values()]
    print(f"wrote {len(sizes)} groups to {args.groups_out} "
          f"(sizes {min(sizes)}..{max(sizes)})")
    return 0


def cmd_cv(args):
    model = _load(args)
    grid = _grid_for(args, model)
    gas = fit_grid_approximations(model, grid)
    test_indices = (_parse_test_range(args.test_range, model.n_obs)
                    if args.test_range else list(range(model.n_obs)))

    if args.groups_in:
        spec = read_groups(args.groups_in, model.n_obs)
        missing = [i for i in test_indices if i not in spec.groups]
        if missing:
            raise CliError(f"group file lacks groups for test indices "
                           f"{[i + 1 for i in missing[:5]]}...")
    elif args.m is not None:
        spec = build_groups(_source(args), _mode_fit(model, grid, gas),
                            args.m, tie_tol=args.tie_tol, indices=test_indices)
    else:
        spec = singleton_groups(test_indices)

    result = compute_lgocv(model, grid, spec, gas=gas,
                           test_indices=test_indices, gh_order=args.gh_order)
    os.makedirs(args.out, exist_ok=True)
    result.write_csv(os.path.join(args.out, "cv_results.csv"))
    extra = {"equivalent_to_loocv": "yes" if spec.all_singletons() else "no",
             "mode": ("loocv" if args.m is None and not args.groups_in
                      else "lgocv")}
    if args.m is not None:
        extra["m"] = str(args.m)
    result.write_summary(os.path.join(args.out, "cv_summary.txt"), extra)
    if args.groups_out:
        write_groups(args.groups_out, spec)
    print(f"u = {result.utility!r} over {len(result.indices)} points "
          f"({len(result.skipped)} skipped); "
          f"LGOCV == LOOCV: {spec.all_singletons()}")
    return 0


def _simulate_multilevel(args, outdir):
    name = args.scenario
    data = sim.scenario_data(name, args.seed)
    model = sim.scenario_model(name, data)
    write_data(os.path.join(outdir, "data.csv"), data)
    with open(os.path.join(outdir, "model.spec"), "w") as fh:
        fh.write(sim.scenario_spec_text(name))

    grid = build_theta_grid(model, args.theta_grid_step)
    gas = fit_grid_approximations(model, grid)
    spec = build_groups(CorrelationSource("posterior"),
                        _mode_fit(model, grid, gas), m=args.m)
    result = compute_lgocv(model, grid, spec, gas=gas, gh_order=args.gh_order)

    oracle = refit_predictive_all(model, spec, result.indices,
                                  step=args.theta_grid_step,
                                  gh_order=args.gh_order)
    with open(os.path.join(outdir, "comparison.csv"), "w") as fh:
        fh.write("index,engine_density,oracle_density,rel_error\n")
        for i, dens in zip(result.indices, result.density):
            rel = abs(dens - oracle[i]) / max(abs(oracle[i]), 1e-300)
            fh.write(f"{i + 1},{float(dens)!r},{float(oracle[i])!r},"
                     f"{float(rel)!r}\n")
    result.write_summary(os.path.join(outdir, "cv_summary.txt"),
                         {"seed": str(args.seed), "scenario": name})
    print(f"{name}: u = {result.utility!r}; comparison written to {outdir}")
    return 0


def _simulate_ar1(args, outdir):
    data = sim.scenario_data("ar1-forecast", args.seed)
    model = sim.scenario_model("ar1-forecast", data)
    write_data(os.path.join(outdir, "data.csv"), data)
    with open(os.path.join(outdir, "model.spec"), "w") as fh:
        fh.write(sim.scenario_spec_text("ar1-forecast"))

    test = list(range(model.n_obs - 500, model.n_obs))
    grid = build_theta_grid(model, args.theta_grid_step)
    gas = fit_grid_approximations(model, grid)
    ga = _mode_fit(model, grid, gas)

    ks = list(range(1, 11))
    lfocv_u = lfocv_curve(model, ks, test, gh_order=args.gh_order)

    lgocv_u = []
    for m in ks:
        spec = build_groups(CorrelationSource("prior", ("trend",)), ga, m=m,
                            tie_tol=args.tie_tol, indices=test)
        res = compute_lgocv(model, grid, spec, gas=gas, test_indices=test,
                            gh_order=args.gh_order)
        lgocv_u.append(res.utility)

    mapped = map_levels_to_steps(ks, [lfocv_u[k] for k in ks], lgocv_u)
    with open(os.path.join(outdir, "lfocv.csv"), "w") as fh:
        fh.write("steps_ahead,utility\n")
        for k in ks:
            fh.write(f"{k},{float(lfocv_u[k])!r}\n")
    with open(os.path.join(outdir, "correspondence.csv"), "w") as fh:
        fh.write("level_sets,lgocv_utility,mapped_steps_ahead\n")
        for m, u, s in zip(ks, lgocv_u, mapped):
            fh.write(f"{m},{float(u)!r},{float(s)!r}\n")
    print("ar1-forecast: mapped steps ahead "
          + ", ".join(f"m={m}->{s:.3f}" for m, s in zip(ks, mapped)))
    return 0


def cmd_simulate(args):
    if args.scenario not in sim.SCENARIOS:
        raise CliError(f"unknown scenario {args.scenario!r}; "
                       f"choose from {', '.join(sim.SCENARIOS)}")
    os.makedirs(args.out, exist_ok=True)
    if args.scenario == "ar1-forecast":
        return _simulate_ar1(args, args.out)
    return _simulate_multilevel(args, args.out)


def cmd_verify(args):
    from .verify import run_verification
    os.makedirs(args.out, exist_ok=True)
    report = run_verification(cases=args.cases, seed=args.seed)
    report.write_csv(os.path.join(args.out, "oracle_report.csv"))
    worst = report.errors.max() if len(report.rows) else float("nan")
    print(f"verification {'PASSED' if report.passed else 'FAILED'}: "
          f"{len(report.rows)} cases, worst error {worst:.3e} "
          f"(tolerance {report.tolerance:.1e})")
    return 0 if report.passed else 1


def build_parser():
    p = argparse.ArgumentParser(prog="lgocv",
                                description="Leave-group-out cross-validation "
                                            "for latent Gaussian models")
    sub = p.add_subparsers(dest="command", required=True)

    def add_model_io(sp):
        sp.add_argument("--model", required=True, help="model spec file")
        sp.add_argument("--data", required=True, help="data CSV")
        sp.add_argument("--graph", help="besag adjacency edge list")

    def add_grid_step(sp):
        sp.add_argument("--theta-grid-step", type=_grid_step,
                        help="theta grid spacing in standardized units "
                             f"(default {GRID_STEP})")

    def add_group_opts(sp):
        sp.add_argument("--source", choices=["prior", "posterior"],
                        default="posterior")
        sp.add_argument("--prior-subset",
                        help="comma-separated component names for the prior source")
        sp.add_argument("--tie-tol", type=float, default=1e-8)

    fit = sub.add_parser("fit", help="fit the model and store the theta grid")
    add_model_io(fit)
    fit.add_argument("--out", default=".")
    add_grid_step(fit)
    fit.set_defaults(func=cmd_fit)

    gr = sub.add_parser("groups", help="build automatic groups")
    add_model_io(gr)
    add_group_opts(gr)
    gr.add_argument("--m", type=int, default=3)
    gr.add_argument("--groups-out", required=True)
    gr.add_argument("--test-range")
    gr.add_argument("--state", help=f"{STATE_FILE} from 'fit'")
    add_grid_step(gr)
    gr.set_defaults(func=cmd_groups)

    cv = sub.add_parser("cv", help="compute LOOCV/LGOCV")
    add_model_io(cv)
    add_group_opts(cv)
    cv.add_argument("--m", type=int)
    cv.add_argument("--groups-in")
    cv.add_argument("--groups-out")
    cv.add_argument("--gh-order", type=int, default=DEFAULT_GH_ORDER)
    cv.add_argument("--test-range")
    cv.add_argument("--state", help=f"{STATE_FILE} from 'fit'")
    add_grid_step(cv)
    cv.add_argument("--out", default=".")
    cv.set_defaults(func=cmd_cv)

    si = sub.add_parser("simulate", help="run a simulation study")
    si.add_argument("--scenario", required=True)
    si.add_argument("--seed", type=int, default=0)
    si.add_argument("--m", type=int, default=1)
    si.add_argument("--gh-order", type=int, default=DEFAULT_GH_ORDER)
    si.add_argument("--tie-tol", type=float, default=1e-8)
    add_grid_step(si)
    si.add_argument("--out", default=".")
    si.set_defaults(func=cmd_simulate)

    ve = sub.add_parser("verify", help="run the oracle verification suite")
    ve.add_argument("--cases", type=int, default=50)
    ve.add_argument("--seed", type=int, default=0)
    ve.add_argument("--out", default=".")
    ve.set_defaults(func=cmd_verify)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "state", None) and args.theta_grid_step is not None:
        parser.error("--theta-grid-step cannot be combined with --state: "
                     "the fitted state fixes the theta grid")
    if getattr(args, "theta_grid_step", GRID_STEP) is None:
        args.theta_grid_step = GRID_STEP
    try:
        return args.func(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
