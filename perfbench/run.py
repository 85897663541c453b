"""Benchmark of the lgocv pipeline on three seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
One process, one caller, closed loop: each repetition sets up a fresh
model, then runs grid -> fits -> groups -> CV, and the next repetition
starts when the previous one returns.  Repetitions continue while the next
one is expected to finish within ``--seconds``; there is always at least
one (two with ``--trace 1``: one untraced, one traced).

After the timed loop, outside it, the run checks its outputs: every
repetition gave the same utilities, the grid size and (for recorded seeds)
the utilities match ``reference.json`` (written by ``record_reference.py``),
and a few fixed groups' downdated moments match a dense oracle to
``lgocv.verify.VERIFY_TOL``.  A failed check makes ``correct`` false.
The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` (observations scored
and skipped, over all repetitions) and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
"""

import os

# One BLAS thread: must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
from scipy.linalg import cho_factor, cho_solve, null_space

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

SETUPS = 100             # extra set-ups per run, so setup_s is a median
UTILITY_RTOL = 1e-10     # against the recorded reference
REPEAT_RTOL = 1e-12      # between repetitions of one run


def _import_library():
    """Import lgocv from the checkout's ``src/``, never an installed copy."""
    pkg = SRC / "lgocv"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: no lgocv sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import lgocv
    if Path(lgocv.__file__).resolve().parent != pkg:
        sys.exit(f"error: imported lgocv from {lgocv.__file__}, not {pkg}")
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))


_import_library()

import lgocv  # noqa: E402
from lgocv.oracle import dense_downdate_oracle  # noqa: E402
from lgocv.verify import VERIFY_TOL  # noqa: E402

import tracing  # noqa: E402
from workloads import TIE_TOL, WORKLOADS  # noqa: E402


def _timed_setup(wl, seed, size, setup_s):
    t0 = time.perf_counter()
    model = wl.setup(seed, size)
    setup_s.append(time.perf_counter() - t0)
    return model


def _repetition(wl, seed, size, setup_s, tracer):
    model = _timed_setup(wl, seed, size, setup_s)
    t0 = time.perf_counter()
    if tracer is None:
        out = wl.run(model, size)
    else:
        with tracing.installed(tracer), tracer.span("pipeline"):
            out = wl.run(model, size)
    return out, time.perf_counter() - t0


def measure(name, seed, seconds, trace, size):
    """Run the workload's timed loop; returns (repetitions, setup times).

    Each repetition is ``(outcome, total_s, tracer)``; ``tracer`` is None
    for untraced ones.
    """
    wl = WORKLOADS[name]

    wl.setup(seed, size)                     # warm-up, not counted
    setup_s = []
    for _ in range(SETUPS):
        _timed_setup(wl, seed, size, setup_s)

    reps = []
    start = time.perf_counter()
    while True:
        tracer = tracing.Tracer() if trace and len(reps) % 2 == 1 else None
        out, total = _repetition(wl, seed, size, setup_s, tracer)
        reps.append((out, total, tracer))
        print(f"rep {len(reps)}: total_s={total:.3f} "
              + " ".join(f"{k}={v:.3f}" for k, v in out.stage_s.items())
              + (" traced" if tracer else ""), flush=True)
        if trace and len(reps) < 2:
            continue
        if time.perf_counter() - start + total > seconds:
            break
    return reps, setup_s


# -- correctness checks (outside the timed loop) -------------------------------

def _max_rel(a, b):
    """Largest relative difference between two equally long sequences."""
    if len(a) != len(b):
        return float("inf")
    return max((abs(x - y) / max(abs(x), abs(y), 1e-300) for x, y in zip(a, b)),
               default=0.0)


def _nullspace_oracle(model, ga, I):
    """Dense leave-group moments of eta_I, solved in the null space of C.

    Same quantities as ``lgocv.oracle.dense_downdate_oracle``, which inverts
    the leave-out precision and then kriges.  With an intrinsic block and a
    vague intercept that precision is near singular along the direction the
    constraint removes (condition ~1e11 on besag-poisson), so the oracle's
    own error there is ~1e-8.  Eliminating the constraint first leaves a
    well-conditioned system (condition ~1e3).
    """
    C, e = model.constraints
    A = model.design.toarray()
    AI = A[I]
    Qd = (ga.P.toarray() + (A * ga.c[:, None]).T @ A
          - (AI * ga.c[I][:, None]).T @ AI)
    r = A.T @ ga.b - AI.T @ ga.b[I]
    f0 = np.linalg.lstsq(C, e, rcond=None)[0]     # any point with C f0 = e
    Z = null_space(C)
    cho = cho_factor(Z.T @ Qd @ Z)
    mu_f = f0 + Z @ cho_solve(cho, Z.T @ (r - Qd @ f0))
    AZ = AI @ Z
    sigma = AZ @ cho_solve(cho, AZ.T)
    return lgocv.EtaMoments(I, AI @ mu_f, 0.5 * (sigma + sigma.T))


def _oracle_errors(wl, seed, size, mode_theta):
    """Worst scaled error of the sparse downdate against a dense oracle,
    per fixed group, on a freshly fitted model at the mode theta."""
    model = wl.setup(seed, size)
    ga = lgocv.find_mode(model, model.hyper_point(mode_theta))
    errors = []
    for source, m, i in wl.check_groups(model, size):
        I = lgocv.build_groups(source, ga, m, tie_tol=TIE_TOL, indices=[i])[i]
        lgm = lgocv.downdate(lgocv.eta_covariance(ga, I), ga)
        if model.constraints is None:
            oracle = dense_downdate_oracle(model, ga.theta, I, ga=ga)
        else:
            oracle = _nullspace_oracle(model, ga, I)
        scale = max(np.abs(oracle.mu).max(), np.abs(oracle.sigma).max(), 1.0)
        err = max(np.abs(lgm.mu - oracle.mu).max(),
                  np.abs(lgm.sigma - oracle.sigma).max()) / scale
        errors.append((i, len(I), err))
    return errors


def run_checks(name, seed, size, reps, reference):
    """[(check, passed, detail)] for one run's outputs."""
    wl = WORKLOADS[name]
    first = reps[0][0]
    checks = []

    same = all(_max_rel(o.utilities, first.utilities) <= REPEAT_RTOL
               and o.grid_points == first.grid_points for o, _, _ in reps)
    checks.append(("repeatable", same,
                   f"{len(reps)} repetitions agree" if same
                   else "repetitions disagree"))

    finite = all(np.isfinite(first.utilities))
    checks.append(("finite", finite, f"utilities {first.utilities[:3]}..."))

    ref = (reference or {}).get(name)
    if ref is not None:
        ok = first.grid_points == ref["grid_points"]
        checks.append(("grid_points", ok,
                       f"{first.grid_points} (reference {ref['grid_points']})"))
        expected = ref["utilities"].get(str(seed))
        if expected is None:
            print(f"check reference_utility: no utility recorded for seed {seed}")
        else:
            diff = _max_rel(first.utilities, expected)
            checks.append(("reference_utility", diff <= UTILITY_RTOL,
                           f"max rel diff {diff:.2e}"))

    errors = _oracle_errors(wl, seed, size, first.mode_theta)
    worst = max(e for _, _, e in errors)
    checks.append(("downdate_oracle", worst <= VERIFY_TOL,
                   f"worst {worst:.2e} over groups "
                   + ", ".join(f"{i}(|I|={k})" for i, k, _ in errors)))
    return checks


def load_reference():
    if not REFERENCE.is_file():
        return None
    with open(REFERENCE) as fh:
        return json.load(fh)


# -- metrics -------------------------------------------------------------------

def end_to_end_metrics(reps, setup_s, peak_rss_mb):
    totals = [t for _, t, _ in reps]
    cvs = [o.stage_s["cv"] for o, _, _ in reps]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "total_s": (statistics.median(totals), "s"),
        "cv_s": (statistics.median(cvs), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer_metrics(reps):
    traced = [tracing.layer_metrics(tr) for _, _, tr in reps if tr is not None]
    out = {k: (statistics.median_low(m[k][0] for m in traced), unit)
           for k, (_, unit) in traced[0].items()}
    on = statistics.median(t for _, t, tr in reps if tr is not None)
    off = statistics.median(t for _, t, tr in reps if tr is None)
    out["trace.overhead_s"] = (on - off, "s")
    return out


def write_trace(name, seed, reps):
    """Spans of every traced repetition, with self time per span name."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.json"
    doc = []
    for _, _, tr in reps:
        if tr is None:
            continue
        t_base = min(s[3] for s in tr.spans)
        doc.append({
            "self_s": dict(sorted(tr.self_times().items())),
            "counts": dict(sorted(tr.counts.items())),
            "spans": [[sid, parent, nm, t0 - t_base, t1 - t0]
                      for sid, parent, nm, t0, t1 in tr.spans],
        })
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed,
                   "span_fields": ["id", "parent", "name", "start_s",
                                   "duration_s"],
                   "repetitions": doc}, fh)
    return path


def benchmark(name, seed, seconds, trace, size=None):
    """One benchmark run: (result object, checks).

    ``size`` overrides the workload's measured sizes (the smoke test runs
    tiny ones); the recorded reference applies only to the measured sizes.
    """
    reference = load_reference() if size is None else None
    size = WORKLOADS[name].full if size is None else size
    reps, setup_s = measure(name, seed, seconds, trace, size)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = run_checks(name, seed, size, reps, reference)
    if trace:
        metrics = per_layer_metrics(reps)
        print(f"spans written to {write_trace(name, seed, reps)}")
    else:
        metrics = end_to_end_metrics(reps, setup_s, peak_rss_mb)
    result = {
        "correct": all(ok for _, ok, _ in checks),
        "attempted": sum(o.attempted for o, _, _ in reps),
        "failed": sum(o.skipped for o, _, _ in reps),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, checks


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {', '.join(WORKLOADS)}")

    result, checks = benchmark(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    for check, ok, detail in checks:
        print(f"check {check}: {'ok' if ok else 'FAILED'} ({detail})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
