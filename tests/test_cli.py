import os
import shutil
import subprocess
import sys
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
    for line in open(path):
        k, v = line.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def test_fit_writes_artifacts_and_is_deterministic(tmp_path):
    spec, data = class_files(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        assert main(["fit", "--model", spec, "--data", data,
                     "--out", str(out)]) == 0
        for name in ("theta_grid.csv", "latent_summary.csv", "fitted_state.bin"):
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
    state = str(fitdir / "fitted_state.bin")
    gpath = tmp_path / "g.txt"
    assert main(["groups", "--model", spec, "--data", data, "--m", "1",
                 "--state", state, "--groups-out", str(gpath)]) == 0

    tampered = tmp_path / "other.spec"
    tampered.write_text(CLASS_SPEC + "\n# changed\n")
    assert main(["groups", "--model", str(tampered), "--data", data,
                 "--m", "1", "--state", state,
                 "--groups-out", str(tmp_path / "g2.txt")]) == 2


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
                 "--state", str(fitdir / "fitted_state.bin"),
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


def test_verify_small_run(tmp_path):
    out = tmp_path / "verify"
    assert main(["verify", "--cases", "3", "--seed", "1",
                 "--out", str(out)]) == 0
    report = (out / "oracle_report.csv").read_text().strip().splitlines()
    assert report[0] == "case,engine,oracle,abs_error,rel_error,pass"
    assert len(report) > 1
    assert all(r.endswith(",1") for r in report[1:])


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
