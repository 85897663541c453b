import os
import pickle
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

try:
    import tomllib
except ImportError:  # Python < 3.11; pytest itself depends on tomli there
    import tomli as tomllib

import lgocv
from lgocv.cli import main
from lgocv.specfile import write_data

CLASS_SPEC = """\
[likelihood]
family = gaussian
response = y
precision = 100.0

[component intercept]
kind = fixed
covariates = 1

[component class]
kind = iid
index = class
precision = hyper:lp

[hyper lp]
mean = 0
precision = 1e-4
init = 0
"""

IID_SPEC = """\
[likelihood]
family = gaussian
response = y
precision = 1.0

[component unit]
kind = iid
index = unit
precision = 1.0
"""


def class_files(tmp_path, n=20, k=4, seed=0):
    rng = np.random.default_rng(seed)
    cls = np.arange(n) % k
    y = 1.0 + rng.standard_normal(k)[cls] + 0.1 * rng.standard_normal(n)
    spec = tmp_path / "class.spec"
    spec.write_text(CLASS_SPEC)
    data = tmp_path / "class.csv"
    write_data(str(data), {"y": y, "class": cls.astype(float)})
    return str(spec), str(data)


def iid_files(tmp_path, n=8, seed=1):
    rng = np.random.default_rng(seed)
    spec = tmp_path / "iid.spec"
    spec.write_text(IID_SPEC)
    data = tmp_path / "iid.csv"
    write_data(str(data), {"y": rng.standard_normal(n),
                           "unit": np.arange(n, dtype=float)})
    return str(spec), str(data)


def read_kv(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            k, v = line.split("=", 1)
            out[k.strip()] = v.strip()
    return out


def test_fit_writes_artifacts_and_is_deterministic(tmp_path):
    spec, data = class_files(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        assert main(["fit", "--model", spec, "--data", data,
                     "--out", str(out)]) == 0
        for name in ("theta_grid.csv", "latent_summary.csv", "fitted_state.json"):
            assert (out / name).exists()
    assert (out1 / "theta_grid.csv").read_bytes() == \
        (out2 / "theta_grid.csv").read_bytes()
    rows = (out1 / "theta_grid.csv").read_text().strip().splitlines()
    assert rows[0] == "theta1,log_posterior,weight"
    weights = [float(r.split(",")[2]) for r in rows[1:]]
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)


def test_groups_then_cv_matches_automatic_groups(tmp_path):
    spec, data = class_files(tmp_path)
    gpath = tmp_path / "groups.txt"
    assert main(["groups", "--model", spec, "--data", data, "--m", "1",
                 "--groups-out", str(gpath)]) == 0
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["cv", "--model", spec, "--data", data, "--m", "1",
                 "--out", str(out_a)]) == 0
    assert main(["cv", "--model", spec, "--data", data,
                 "--groups-in", str(gpath), "--out", str(out_b)]) == 0
    assert (out_a / "cv_results.csv").read_bytes() == \
        (out_b / "cv_results.csv").read_bytes()


def test_cv_default_is_loocv(tmp_path):
    spec, data = class_files(tmp_path)
    out = tmp_path / "cv"
    assert main(["cv", "--model", spec, "--data", data,
                 "--out", str(out)]) == 0
    summary = read_kv(out / "cv_summary.txt")
    assert summary["mode"] == "loocv"
    assert summary["equivalent_to_loocv"] == "yes"
    assert summary["n_evaluated"] == "20"


def test_cv_equivalence_flag_tracks_group_sizes(tmp_path):
    spec, data = iid_files(tmp_path)
    out = tmp_path / "iid_cv"
    assert main(["cv", "--model", spec, "--data", data, "--m", "1",
                 "--out", str(out)]) == 0
    assert read_kv(out / "cv_summary.txt")["equivalent_to_loocv"] == "yes"

    spec_c, data_c = class_files(tmp_path)
    out_c = tmp_path / "class_cv"
    assert main(["cv", "--model", spec_c, "--data", data_c, "--m", "1",
                 "--out", str(out_c)]) == 0
    assert read_kv(out_c / "cv_summary.txt")["equivalent_to_loocv"] == "no"


def test_cv_test_range_limits_rows(tmp_path):
    spec, data = class_files(tmp_path)
    out = tmp_path / "ranged"
    assert main(["cv", "--model", spec, "--data", data,
                 "--test-range", "5:9", "--out", str(out)]) == 0
    rows = (out / "cv_results.csv").read_text().strip().splitlines()
    assert len(rows) == 6
    assert [int(r.split(",")[0]) for r in rows[1:]] == [5, 6, 7, 8, 9]


def test_cv_groups_out_round_trips(tmp_path):
    spec, data = class_files(tmp_path)
    gpath = tmp_path / "emitted.txt"
    out = tmp_path / "g1"
    assert main(["cv", "--model", spec, "--data", data, "--m", "1",
                 "--groups-out", str(gpath), "--out", str(out)]) == 0
    out2 = tmp_path / "g2"
    assert main(["cv", "--model", spec, "--data", data,
                 "--groups-in", str(gpath), "--out", str(out2)]) == 0
    assert (out / "cv_results.csv").read_bytes() == \
        (out2 / "cv_results.csv").read_bytes()


def test_state_reuse_and_hash_guard(tmp_path):
    spec, data = class_files(tmp_path)
    fitdir = tmp_path / "fit"
    assert main(["fit", "--model", spec, "--data", data,
                 "--out", str(fitdir)]) == 0
    state = str(fitdir / "fitted_state.json")
    gpath = tmp_path / "g.txt"
    assert main(["groups", "--model", spec, "--data", data, "--m", "1",
                 "--state", state, "--groups-out", str(gpath)]) == 0

    tampered = tmp_path / "other.spec"
    tampered.write_text(CLASS_SPEC + "\n# changed\n")
    assert main(["groups", "--model", str(tampered), "--data", data,
                 "--m", "1", "--state", state,
                 "--groups-out", str(tmp_path / "g2.txt")]) == 2


def test_state_fitted_on_other_data_exits_2(tmp_path, capsys):
    spec, data = class_files(tmp_path)
    fitdir = tmp_path / "fit"
    assert main(["fit", "--model", spec, "--data", data,
                 "--out", str(fitdir)]) == 0
    other = tmp_path / "other"
    other.mkdir()
    _, other_data = class_files(other, seed=5)
    for argv in (["groups", "--groups-out", str(tmp_path / "g.txt")],
                 ["cv", "--out", str(tmp_path / "cv")]):
        assert main(argv + ["--model", spec, "--data", other_data,
                            "--state", str(fitdir / "fitted_state.json")]) == 2
        assert "fitted state does not match the data (sha256 mismatch)" in \
            capsys.readouterr().err
    assert not (tmp_path / "g.txt").exists() and not (tmp_path / "cv").exists()


class _WritesMarker:
    """Unpickling this object creates the file at ``path``."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


def test_state_file_is_never_unpickled(tmp_path, capsys):
    spec, data = class_files(tmp_path)
    marker = tmp_path / "marker"
    state = tmp_path / "fitted_state.json"
    state.write_bytes(pickle.dumps(_WritesMarker(str(marker))))
    for argv in (["groups", "--groups-out", str(tmp_path / "g.txt")],
                 ["cv", "--out", str(tmp_path / "cv")]):
        assert main(argv + ["--model", spec, "--data", data,
                            "--state", str(state)]) == 2
        assert "is not a fitted-state file from 'lgocv fit'" in \
            capsys.readouterr().err
    assert not marker.exists()


def test_state_restores_the_fitted_grid_bit_for_bit(tmp_path, monkeypatch):
    from lgocv import cli
    grids = []
    build, score = cli.build_theta_grid, cli.compute_lgocv

    def built(*args):
        grids.append(build(*args))
        return grids[-1]

    def scored(model, grid, *args, **kwargs):
        grids.append(grid)
        return score(model, grid, *args, **kwargs)

    monkeypatch.setattr(cli, "build_theta_grid", built)
    monkeypatch.setattr(cli, "compute_lgocv", scored)
    spec, data = class_files(tmp_path)
    fitdir = tmp_path / "fit"
    assert main(["fit", "--model", spec, "--data", data,
                 "--out", str(fitdir)]) == 0
    assert main(["cv", "--model", spec, "--data", data, "--m", "2",
                 "--state", str(fitdir / "fitted_state.json"),
                 "--out", str(tmp_path / "cv")]) == 0
    fitted, restored = grids
    assert restored.fits is None and len(restored) == len(fitted) > 1
    for a, b in ((fitted.mode.values, restored.mode.values),
                 (np.array([hp.values for hp in fitted.points]),
                  np.array([hp.values for hp in restored.points])),
                 (fitted.log_posteriors, restored.log_posteriors),
                 (fitted.weights, restored.weights)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_fit_and_groups_take_the_mode_fit_from_the_grid(tmp_path, monkeypatch):
    from lgocv import cli
    calls = []
    find = cli.find_mode

    def counted(*args, **kwargs):
        calls.append(args)
        return find(*args, **kwargs)

    monkeypatch.setattr(cli, "find_mode", counted)
    spec, data = class_files(tmp_path)
    fitdir = tmp_path / "fit"
    assert main(["fit", "--model", spec, "--data", data,
                 "--out", str(fitdir)]) == 0
    own, restored = tmp_path / "own.txt", tmp_path / "restored.txt"
    assert main(["groups", "--model", spec, "--data", data, "--m", "2",
                 "--groups-out", str(own)]) == 0
    assert calls == []
    # a grid restored from --state carries no fits: one cold fit at the mode
    assert main(["groups", "--model", spec, "--data", data, "--m", "2",
                 "--state", str(fitdir / "fitted_state.json"),
                 "--groups-out", str(restored)]) == 0
    assert len(calls) == 1
    assert own.read_bytes() == restored.read_bytes()


def test_error_exits(tmp_path, capsys):
    spec, data = class_files(tmp_path)
    bad_spec = tmp_path / "bad.spec"
    bad_spec.write_text("[likelihood]\nfamily = nope\nresponse = y\n")
    assert main(["cv", "--model", str(bad_spec), "--data", data]) == 2
    assert main(["cv", "--model", spec, "--data", data,
                 "--test-range", "0:5"]) == 2
    assert main(["cv", "--model", spec, "--data", data,
                 "--test-range", "junk"]) == 2
    assert main(["cv", "--model", spec, "--data",
                 str(tmp_path / "missing.csv")]) == 2
    assert main(["simulate", "--scenario", "nope",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("step", ["0", "-1", "nan", "inf"])
def test_bad_theta_grid_step_exits_2(tmp_path, capsys, step):
    spec, data = class_files(tmp_path)
    model_io = ["--model", spec, "--data", data]
    out, groups = str(tmp_path / "out"), str(tmp_path / "g.txt")
    for argv in (["fit", *model_io, "--out", out],
                 ["groups", *model_io, "--groups-out", groups],
                 ["cv", *model_io, "--out", out],
                 ["simulate", "--scenario", "multilevel-gaussian", "--out", out]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--theta-grid-step", step])
        assert exc.value.code == 2
        assert "argument --theta-grid-step: must be a finite number > 0" in \
            capsys.readouterr().err
    assert not os.path.exists(out) and not os.path.exists(groups)


def test_cv_non_finite_data_exits_2(tmp_path, capsys):
    spec, data = class_files(tmp_path)
    rows = Path(data).read_text().splitlines()
    rows[3] = "nan," + rows[3].split(",", 1)[1]      # column y
    Path(data).write_text("\n".join(rows) + "\n")
    assert main(["cv", "--model", spec, "--data", data,
                 "--out", str(tmp_path / "cv")]) == 2
    err = capsys.readouterr().err
    assert "error: responses must be finite" in err
    assert "Traceback" not in err


BINOMIAL_SPEC = """\
[likelihood]
family = binomial
response = y
trials = 10

[component beta]
kind = fixed
covariates = 1 x
"""


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_cv_non_finite_covariate_exits_2(tmp_path, capsys, bad):
    spec = tmp_path / "binomial.spec"
    spec.write_text(BINOMIAL_SPEC)
    x = np.linspace(-1.0, 1.0, 12)
    x[4] = float(bad)
    data = tmp_path / "binomial.csv"
    write_data(str(data), {"y": np.arange(12.0) % 11, "x": x})
    assert main(["cv", "--model", str(spec), "--data", str(data),
                 "--out", str(tmp_path / "cv")]) == 2
    err = capsys.readouterr().err
    assert "error: design entries must be finite" in err
    assert "Traceback" not in err


def test_cv_infinite_trials_exits_2(tmp_path, capsys):
    spec = tmp_path / "binomial.spec"
    spec.write_text(BINOMIAL_SPEC.replace("trials = 10", "trials = inf"))
    data = tmp_path / "binomial.csv"
    write_data(str(data), {"y": np.arange(12.0) % 11, "x": np.linspace(-1.0, 1.0, 12)})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["cv", "--model", str(spec), "--data", str(data),
                     "--out", str(tmp_path / "cv")])
    assert code == 2
    assert caught == []
    err = capsys.readouterr().err
    assert "error: binomial trial counts must be integers >= 1" in err
    assert "Traceback" not in err


POISSON_SPEC = """\
[likelihood]
family = poisson
response = y
offset = E

[component intercept]
kind = fixed
covariates = 1

[component class]
kind = iid
index = class
precision = hyper:lp

[hyper lp]
mean = 0
precision = 1e-4
init = 0
"""


def poisson_files(tmp_path, counts, offset):
    spec = tmp_path / "poisson.spec"
    spec.write_text(POISSON_SPEC)
    data = tmp_path / "poisson.csv"
    write_data(str(data), {"y": counts, "E": offset,
                           "class": np.arange(counts.size, dtype=float) % 4})
    return str(spec), str(data)


def test_cv_on_counts_up_to_1e6_scores_every_point(tmp_path, capsys):
    """Counts up to 1e6 against offsets from 1e-3 to 1e3 fit and score, with
    no warning from the trial points whose e^eta overflows."""
    rng = np.random.default_rng(31)
    counts = np.floor(10 ** rng.uniform(0.0, 6.0, size=16))
    counts[[0, 5]] = [1e6, 0.0]
    spec, data = poisson_files(tmp_path, counts, 10 ** rng.uniform(-3.0, 3.0, size=16))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["cv", "--model", spec, "--data", data, "--m", "1",
                     "--out", str(tmp_path / "cv")]) == 0
    summary = read_kv(tmp_path / "cv" / "cv_summary.txt")
    assert np.isfinite(float(summary["u_lgocv"]))
    assert summary["n_evaluated"] == "16" and summary["n_skipped"] == "0"


def test_cv_on_counts_the_newton_search_cannot_fit_exits_2(tmp_path, capsys):
    """Counts of 1e12 against offsets of 1e-3 put the mode past what 40
    halvings of a Newton step reach: exit 2 with the search's message."""
    counts = np.where(np.arange(16) % 2, 1e12, 0.0)
    spec, data = poisson_files(tmp_path, counts, np.full(16, 1e-3))
    assert main(["cv", "--model", spec, "--data", data,
                 "--out", str(tmp_path / "cv")]) == 2
    err = capsys.readouterr().err
    assert "error: line search failed to make progress" in err
    assert "Traceback" not in err


def test_cv_nan_index_exits_2(tmp_path, capsys):
    spec, data = class_files(tmp_path)
    rows = Path(data).read_text().splitlines()
    rows[3] = rows[3].split(",", 1)[0] + ",nan"       # column class
    Path(data).write_text("\n".join(rows) + "\n")
    assert main(["cv", "--model", spec, "--data", data,
                 "--out", str(tmp_path / "cv")]) == 2
    err = capsys.readouterr().err
    assert "error: component class: index column must hold integers" in err
    assert "Traceback" not in err


def test_theta_grid_step_with_state_exits_2(tmp_path, capsys):
    spec, data = class_files(tmp_path)
    fitdir = tmp_path / "fit"
    assert main(["fit", "--model", spec, "--data", data,
                 "--out", str(fitdir)]) == 0
    model_io = ["--model", spec, "--data", data,
                "--state", str(fitdir / "fitted_state.json")]
    out, groups = str(tmp_path / "out"), str(tmp_path / "g.txt")
    for argv in (["groups", *model_io, "--groups-out", groups],
                 ["cv", *model_io, "--out", out]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--theta-grid-step", "0.5"])
        assert exc.value.code == 2
        assert "--theta-grid-step cannot be combined with --state" in \
            capsys.readouterr().err
    assert not os.path.exists(out) and not os.path.exists(groups)


def test_simulate_refits_on_the_engine_grid_step(tmp_path, monkeypatch):
    from lgocv import cli, oracle
    steps = []
    build = cli.build_theta_grid

    def recorded(model, step):
        steps.append(step)
        return build(model, step)

    monkeypatch.setattr(cli, "build_theta_grid", recorded)
    monkeypatch.setattr(oracle, "build_theta_grid", recorded)
    assert main(["simulate", "--scenario", "multilevel-gaussian",
                 "--theta-grid-step", "0.5", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "comparison.csv").read_text().strip().splitlines()
    assert rows[0] == "index,engine_density,oracle_density,rel_error"
    assert len(rows) == 101
    assert len(steps) > 1 and set(steps) == {0.5}


def test_simulate_passes_the_tie_tolerance_to_build_groups(tmp_path, monkeypatch):
    from lgocv import cli
    seen = []

    class Stop(Exception):
        pass

    def recorded(source, ga, m, tie_tol=1e-8, indices=None):
        seen.append(tie_tol)
        raise Stop

    monkeypatch.setattr(cli, "build_groups", recorded)
    with pytest.raises(Stop):
        main(["simulate", "--scenario", "multilevel-binomial", "--tie-tol", "0.01",
              "--out", str(tmp_path)])
    assert seen == [0.01]


def test_groups_refuses_a_negative_tie_tolerance(tmp_path, capsys):
    spec, data = class_files(tmp_path)
    gpath = tmp_path / "g.txt"
    assert main(["groups", "--model", spec, "--data", data, "--m", "1",
                 "--tie-tol", "-1", "--groups-out", str(gpath)]) == 2
    assert "error: tie tolerance must be finite and >= 0" in capsys.readouterr().err
    assert not gpath.exists()


def test_cv_refuses_groups_in_together_with_m(tmp_path, capsys):
    spec, data = class_files(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["cv", "--model", spec, "--data", data, "--groups-in", "g.txt",
              "--m", "1", "--out", str(tmp_path / "cv")])
    assert exc.value.code == 2
    assert "argument --m: not allowed with argument --groups-in" in capsys.readouterr().err
    assert not (tmp_path / "cv").exists()


def test_simulate_refuses_a_group_that_holds_all_data(tmp_path, capsys):
    """At m = 2 every multilevel-gaussian group spans all 100 observations,
    which leaves the refit oracle nothing to refit on."""
    assert main(["simulate", "--scenario", "multilevel-gaussian", "--m", "2",
                 "--seed", "0", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert ("error: refit oracle: the group of observation 1 holds all 100 "
            "observations; no data is left to refit on") in err
    assert "Traceback" not in err


def test_groups_prior_subset_flag(tmp_path):
    spec, data = class_files(tmp_path)
    gpath = tmp_path / "prior_groups.txt"
    assert main(["groups", "--model", spec, "--data", data, "--m", "1",
                 "--source", "prior", "--prior-subset", "class",
                 "--groups-out", str(gpath)]) == 0
    assert gpath.exists()
    assert main(["groups", "--model", spec, "--data", data, "--m", "1",
                 "--source", "prior", "--prior-subset", "bogus",
                 "--groups-out", str(gpath)]) == 2


BESAG_SPEC = """\
[likelihood]
family = poisson
response = y
offset = E

[component intercept]
kind = fixed
covariates = 1

[component spatial]
kind = besag
index = region
precision = 1.0
"""


def test_groups_degenerate_prior_subset_exits_2(tmp_path, capsys):
    """Node 2 of the graph has no neighbours, so the spatial prior alone
    fixes its predictor: no correlations, a message and exit code 2."""
    spec = tmp_path / "besag.spec"
    spec.write_text(BESAG_SPEC)
    graph = tmp_path / "graph.txt"
    graph.write_text("0 1\n1 3\n")
    data = tmp_path / "besag.csv"
    write_data(str(data), {"y": np.array([8.0, 12.0, 9.0, 11.0]),
                           "E": np.full(4, 10.0), "region": np.arange(4.0)})
    args = ["groups", "--model", str(spec), "--data", str(data),
            "--graph", str(graph), "--m", "1", "--source", "prior",
            "--groups-out", str(tmp_path / "g.txt")]
    assert main(args + ["--prior-subset", "spatial"]) == 2
    err = capsys.readouterr().err
    assert "error: zero marginal predictor variance" in err
    assert "Traceback" not in err
    assert main(args) == 0


def test_verify_small_run(tmp_path, capsys):
    out = tmp_path / "verify"
    assert main(["verify", "--cases", "3", "--seed", "1",
                 "--out", str(out)]) == 0
    assert "verification PASSED: 3 cases" in capsys.readouterr().out
    report = (out / "oracle_report.csv").read_text().strip().splitlines()
    assert report[0] == "case,quantity,error,pass"
    assert [r.split(",")[:2] for r in report[1:]] == [
        [str(case), q] for case in range(3) for q in ("mu", "sigma")]
    assert all(r.endswith(",1") for r in report[1:])


def test_verify_fails_when_the_cv_path_is_off(tmp_path, monkeypatch, capsys):
    """A 1e-8 relative shift of the stacked kernel's sigma, on the path
    ``compute_lgocv`` runs, fails the verification and its command."""
    from lgocv import engine
    from lgocv.verify import run_verification
    kernel = engine._downdate_stack

    def shifted(*args):
        mu, sigma, log_ratio, why = kernel(*args)
        return mu, sigma * (1 + 1e-8), log_ratio, why

    monkeypatch.setattr(engine, "_downdate_stack", shifted)
    assert not run_verification(cases=5).passed
    assert main(["verify", "--cases", "5", "--out", str(tmp_path)]) == 1
    assert "verification FAILED: 5 cases" in capsys.readouterr().out


def _assert_help(command, env=None):
    proc = subprocess.run(command, capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    for cmd in ("fit", "groups", "cv", "simulate", "verify"):
        assert cmd in proc.stdout


def test_console_script_entry_point():
    # The `lgocv` executable is written by an installer from
    # [project.scripts]; a plain checkout has none. Run the declared target
    # the way that wrapper does, and `python -m lgocv`, against this
    # checkout's sources; run the executable itself wherever one is installed.
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["lgocv"] == "lgocv.cli:main"

    src = str(Path(lgocv.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    if os.environ.get("PYTHONPATH"):
        env["PYTHONPATH"] += os.pathsep + os.environ["PYTHONPATH"]
    module, attr = scripts["lgocv"].split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    _assert_help([sys.executable, "-c", wrapper, "--help"], env)
    _assert_help([sys.executable, "-m", "lgocv", "--help"], env)

    if shutil.which("lgocv"):
        _assert_help(["lgocv", "--help"])
