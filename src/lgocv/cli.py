"""Command-line front end: fit, groups, cv, simulate, verify."""

from __future__ import annotations

import argparse
import hashlib
import os
import pickle
import sys

import numpy as np

from . import simulate as sim
from .approx import (GridConfig, build_theta_grid, find_mode,
                     ModeFindingError, FactorizationError)
from .components import ComponentError
from .engine import compute_lgocv, fit_grid_approximations, DEFAULT_GH_ORDER
from .groups import (CorrelationSource, GroupingError, build_groups,
                     read_groups, singleton_groups, write_groups)
from .likelihoods import LikelihoodError
from .model import ModelError
from .oracle import lfocv_curve, map_levels_to_steps, refit_predictive_all
from .specfile import SpecError, load_data, load_model, write_data

STATE_VERSION = 1

USER_ERRORS = (SpecError, ModelError, ComponentError, LikelihoodError,
               GroupingError, ModeFindingError, FactorizationError,
               ValueError, OSError, IndexError)


class CliError(RuntimeError):
    pass


def _spec_hash(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


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


def _grid_config(args):
    cfg = GridConfig()
    if getattr(args, "theta_grid_step", None):
        cfg.step = args.theta_grid_step
    return cfg


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


def _mode_fit(model, grid):
    """The fit at the theta mode: the grid's own, or a fresh one for a grid
    that carries no fits."""
    for hp, ga in zip(grid.points, grid.fits or ()):
        if np.array_equal(hp.values, grid.mode.values):
            return ga
    return find_mode(model, grid.mode)


def cmd_fit(args):
    model = _load(args)
    grid = build_theta_grid(model, _grid_config(args))
    ga = _mode_fit(model, grid)

    os.makedirs(args.out, exist_ok=True)
    _write_theta_grid_csv(os.path.join(args.out, "theta_grid.csv"), grid)
    with open(os.path.join(args.out, "latent_summary.csv"), "w") as fh:
        fh.write("component,index,mean\n")
        for c in model.components:
            off = model.offsets[c.name]
            for j in range(c.size):
                fh.write(f"{c.name},{j},{float(ga.mu[off + j])!r}\n")
    state = {
        "version": STATE_VERSION,
        "spec_hash": _spec_hash(args.model),
        "theta_mode": grid.mode.values,
        "theta_points": [hp.values for hp in grid.points],
        "log_posteriors": grid.log_posteriors,
        "weights": grid.weights,
        "seed": args.seed,
    }
    with open(os.path.join(args.out, "fitted_state.bin"), "wb") as fh:
        pickle.dump(state, fh)
    free = [h.name for h in model.free_hypers]
    print(f"fit complete: {len(grid)} theta grid point(s), "
          f"estimated hyperparameters: {free or 'none'}")
    return 0


def _restore_grid(model, state_path, spec_path):
    with open(state_path, "rb") as fh:
        state = pickle.load(fh)
    if state.get("version") != STATE_VERSION:
        raise CliError(f"unsupported fitted-state version {state.get('version')}")
    if state["spec_hash"] != _spec_hash(spec_path):
        raise CliError("fitted state does not match the model spec "
                       "(hash mismatch); refusing to load")
    from .approx import ThetaGrid
    pts = tuple(model.hyper_point(v) for v in state["theta_points"])
    return ThetaGrid(pts, np.asarray(state["log_posteriors"]),
                     np.asarray(state["weights"]),
                     model.hyper_point(state["theta_mode"]))


def _grid_for(args, model):
    if getattr(args, "state", None):
        return _restore_grid(model, args.state, args.model)
    return build_theta_grid(model, _grid_config(args))


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
        ga_mode = gas[int(np.argmax(grid.log_posteriors))]
        spec = build_groups(_source(args), ga_mode, args.m,
                            tie_tol=args.tie_tol, indices=test_indices)
    else:
        spec = singleton_groups(test_indices)

    result = compute_lgocv(model, grid, spec, gas=gas,
                           test_indices=test_indices,
                           gh_order=args.gh_order, threads=args.threads)
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

    grid = build_theta_grid(model, _grid_config(args))
    gas = fit_grid_approximations(model, grid)
    ga_mode = gas[int(np.argmax(grid.log_posteriors))]
    spec = build_groups(CorrelationSource("posterior"), ga_mode, m=args.m)
    result = compute_lgocv(model, grid, spec, gas=gas, gh_order=args.gh_order)

    oracle = refit_predictive_all(model, spec, result.indices,
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
    grid = build_theta_grid(model)
    gas = fit_grid_approximations(model, grid)
    ga = gas[0]

    ks = list(range(1, 11))
    lfocv_u = lfocv_curve(model, ks, test, gh_order=args.gh_order)

    lgocv_u = []
    for m in ks:
        spec = build_groups(CorrelationSource("prior", ("trend",)), ga, m=m,
                            tie_tol=args.tie_tol, indices=test)
        res = compute_lgocv(model, grid, spec, gas=gas, test_indices=test,
                            gh_order=args.gh_order, threads=args.threads)
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

    def add_group_opts(sp):
        sp.add_argument("--source", choices=["prior", "posterior"],
                        default="posterior")
        sp.add_argument("--prior-subset",
                        help="comma-separated component names for the prior source")
        sp.add_argument("--tie-tol", type=float, default=1e-8)

    fit = sub.add_parser("fit", help="fit the model and store the theta grid")
    add_model_io(fit)
    fit.add_argument("--out", default=".")
    fit.add_argument("--theta-grid-step", type=float)
    fit.add_argument("--seed", type=int, default=0)
    fit.set_defaults(func=cmd_fit)

    gr = sub.add_parser("groups", help="build automatic groups")
    add_model_io(gr)
    add_group_opts(gr)
    gr.add_argument("--m", type=int, default=3)
    gr.add_argument("--groups-out", required=True)
    gr.add_argument("--test-range")
    gr.add_argument("--state", help="fitted_state.bin from 'fit'")
    gr.add_argument("--theta-grid-step", type=float)
    gr.set_defaults(func=cmd_groups)

    cv = sub.add_parser("cv", help="compute LOOCV/LGOCV")
    add_model_io(cv)
    add_group_opts(cv)
    cv.add_argument("--m", type=int)
    cv.add_argument("--groups-in")
    cv.add_argument("--groups-out")
    cv.add_argument("--gh-order", type=int, default=DEFAULT_GH_ORDER)
    cv.add_argument("--test-range")
    cv.add_argument("--threads", type=int, default=1)
    cv.add_argument("--state")
    cv.add_argument("--theta-grid-step", type=float)
    cv.add_argument("--out", default=".")
    cv.set_defaults(func=cmd_cv)

    si = sub.add_parser("simulate", help="run a simulation study")
    si.add_argument("--scenario", required=True)
    si.add_argument("--seed", type=int, default=0)
    si.add_argument("--m", type=int, default=1)
    si.add_argument("--gh-order", type=int, default=DEFAULT_GH_ORDER)
    si.add_argument("--tie-tol", type=float, default=1e-8)
    si.add_argument("--threads", type=int, default=1)
    si.add_argument("--theta-grid-step", type=float)
    si.add_argument("--out", default=".")
    si.set_defaults(func=cmd_simulate)

    ve = sub.add_parser("verify", help="run the oracle verification suite")
    ve.add_argument("--cases", type=int, default=50)
    ve.add_argument("--seed", type=int, default=0)
    ve.add_argument("--out", default=".")
    ve.set_defaults(func=cmd_verify)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
