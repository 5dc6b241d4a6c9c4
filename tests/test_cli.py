import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinrep
from spinrep import cli
from spinrep.errors import ConfigError
from spinrep.suites import SUITE_NAMES


SRC = str(Path(__file__).resolve().parents[1] / "src")
IDENTITY = ",".join(["1,0,0,0", "0,1,0,0", "0,0,1,0", "0,0,0,1"])


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args):
    """Run ``python *args`` in a fresh process that imports spinrep from src/."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


# ---------------------------------------------------------------------------
# config parsing

def test_metric_presets():
    g = cli.load_metric("minkowski+---")
    np.testing.assert_array_equal(g.g, np.diag([1.0, -1.0, -1.0, -1.0]))
    g = cli.load_metric("minkowski-+++")
    np.testing.assert_array_equal(g.g, np.diag([-1.0, 1.0, 1.0, 1.0]))


def test_metric_inline_values():
    g = cli.load_metric("1,0,0,0,0,-1,0,0,0,0,-1,0,0,0,0,-1")
    np.testing.assert_array_equal(g.g, np.diag([1.0, -1.0, -1.0, -1.0]))


def test_metric_from_json_file(tmp_path):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"matrix": np.diag([1.0, -1.0, -1.0, -1.0]).tolist()}))
    g = cli.load_metric(str(path))
    np.testing.assert_array_equal(g.g, np.diag([1.0, -1.0, -1.0, -1.0]))


def test_metric_errors():
    with pytest.raises(ConfigError):
        cli.load_metric("1,2,3")  # wrong count
    with pytest.raises(ConfigError):
        cli.load_metric("1,0,0,0,1,0,0,0,0,0,1,0,0,0,0,1")  # asymmetric
    with pytest.raises(ConfigError):
        cli.load_metric("1,0,0,0,0,0,0,0,0,0,1,0,0,0,0,1")  # degenerate
    with pytest.raises(ConfigError):
        cli.load_metric("/nonexistent/metric.json")


# ---------------------------------------------------------------------------
# verify

def test_verify_single_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "grassmann", "--seed", "42")
    assert code == 0
    assert "grassmann.generator_anticommutator" in out
    assert "==> all checks passed" in out
    # unselected suites are listed as skipped, never silently dropped
    assert "SKIP  clifford" in out


def test_verify_proposition_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "proposition", "--seed", "42")
    assert code == 0


def test_verify_json_report(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "grassmann", "--seed", "7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "spinrep-report/1"
    assert payload["status"] == "pass"
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["generator_anticommutator"]["status"] == "pass"
    assert set(payload["skipped"]) == {"clifford", "dirac", "iso", "proposition", "transforms"}


def test_verify_degenerate_metric_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify",
                           "--metric", "1,0,0,0,0,0,0,0,0,0,1,0,0,0,0,1")
    assert code == 2
    assert "degenerate" in err.lower()


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "grassmann", "--metric", "inf,0,0,0,0,-1,0,0,0,0,-1,0,0,0,0,-1"],
    ["lift", "--", "nan,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1"],
    ["verify", "--suite", "grassmann", "--tol", "inf"],
    ["verify", "--suite", "grassmann", "--tol", "nan"],
    ["lift", "--tol", "inf", "--", "1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1"],
])
def test_non_finite_input_exits_2_with_one_error_line(argv):
    proc = run_python("-m", "spinrep.cli", *argv)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["table", "wedge", "--seed", "5"],
    ["table", "wedge", "--samples", "3"],
    ["table", "wedge", "--tol", "1"],
    ["lift", "--seed", "5", IDENTITY],
    ["lift", "--samples", "3", IDENTITY],
])
def test_flag_the_subcommand_does_not_use_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_does_not_import_scipy():
    # scipy.linalg costs about 0.3 s per process; spinrep must run on numpy alone
    code = ("import sys; from spinrep import cli; "
            "cli.main(['verify','--suite','transforms','--json']); "
            "assert not any(m.startswith('scipy') for m in sys.modules)")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_verify_unknown_suite_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 2
    assert "unknown suite" in err


def test_verify_bad_samples_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--samples", "0")
    assert code == 2


def test_verify_deterministic_reports(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--suite", "iso", "--seed", "11", "--json")
    _, out2, _ = run_cli(capsys, "verify", "--suite", "iso", "--seed", "11", "--json")

    def strip(text):
        payload = json.loads(text)
        for c in payload["checks"]:
            c.pop("elapsed")
        return payload

    assert strip(out1) == strip(out2)


def test_verify_samples_override(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "clifford", "--seed", "3",
                           "--samples", "5")
    assert code == 0
    assert "n=5" in out
    # the covariance check judges max(1, n // 5) maps for each of its 5 waves
    for samples in ("1", "7"):
        code, out, _ = run_cli(capsys, "verify", "--suite", "dirac", "--samples", samples)
        assert code == 0
        assert "PASS  dirac.isometry_covariance  residual=9.923e-15  n=5  " in out


def test_verify_small_metric_skips_degenerate_pullbacks(capsys):
    # |det g| is 5e-12: the pullback along some random maps of the
    # substitution check falls below det_tol; those maps are skipped, and the
    # run still reports instead of exiting 2
    spec = ",".join(str(0.0015 * v) for v in np.diag([1.0, -1.0, -1.0, -1.0]).flatten())
    code, out, err = run_cli(capsys, "verify", "--suite", "transforms", "--seed", "1",
                             f"--metric={spec}")
    assert (code, err) == (0, "")
    # the count is of the maps judged, 23 of the 30 drawn
    assert "PASS  transforms.substitution_matches_pullback  residual=6.939e-18  n=23  " in out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_non_finite_residual_fails(capsys):
    # det g overflows and the products go NaN: max() dropped a NaN residual,
    # so this run used to pass every check
    spec = ",".join(str(v) for v in (1e100 * np.diag([1.0, -1.0, -1.0, -1.0])).flatten())
    code, out, _ = run_cli(capsys, "verify", "--suite", "clifford", f"--metric={spec}", "--json")
    assert code == 1

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    by_name = {c["name"]: c for c in json.loads(out, parse_constant=reject)["checks"]}
    check = by_name["reversion_antiautomorphism"]
    assert (check["status"], check["residual"]) == ("fail", None)
    assert "non-finite residual" in check["detail"]


def test_verify_metric_with_leading_minus(capsys):
    # argparse reads "--metric -1,..." as a missing value; the "=" form works
    code, out, _ = run_cli(capsys, "verify", "--suite", "grassmann",
                           "--metric=-1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1")
    assert code == 0
    assert "==> all checks passed" in out


def test_verify_non_diagonal_metric_passes_every_check(capsys):
    # the antisymmetrised blade basis is valid for every metric, so every
    # check of every suite is strict here
    a = np.eye(4)
    a[0, 1] = 0.3  # shear, so the pulled-back form is genuinely non-diagonal
    g = a.T @ np.diag([1.0, -1.0, -1.0, -1.0]) @ a
    g = (g + g.T) / 2
    spec = ",".join(repr(float(v)) for v in g.flatten())
    code, out, _ = run_cli(capsys, "verify", "--metric", spec, "--seed", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert {c["suite"] for c in payload["checks"]} == set(SUITE_NAMES)
    assert [c["name"] for c in payload["checks"] if c["status"] != "pass"] == []


# ---------------------------------------------------------------------------
# lift


def test_lift_identity(capsys):
    code, out, _ = run_cli(capsys, "lift", IDENTITY)
    assert code == 0
    assert "Id" in out
    assert "parity: even" in out


def test_lift_quarter_rotation(capsys):
    c = np.cos(np.pi / 2)
    s = np.sin(np.pi / 2)
    a = f"1,0,0,0,0,{c},{s},0,0,{-s},{c},0,0,0,0,1"
    code, out, _ = run_cli(capsys, "lift", a, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["isometry"] is True
    coeffs = np.array([complex(re, im) for re, im in payload["coefficients"]])
    expected = np.zeros(16, dtype=complex)
    expected[0] = np.sqrt(0.5)
    expected[0b0110] = -np.sqrt(0.5)
    match = min(np.abs(coeffs - expected).max(), np.abs(coeffs + expected).max())
    assert match < 1e-9
    assert payload["residual"] < 1e-10


def test_lift_non_isometry_verdict(capsys):
    a = "1,0,0,0,0,2,0,0,0,0,1,0,0,0,0,1"
    code, out, _ = run_cli(capsys, "lift", a)
    assert code == 0
    assert "not an isometry" in out
    assert "null space trivial" in out


def test_lift_matrix_from_file(capsys, tmp_path):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"matrix": np.eye(4).tolist()}))
    code, out, _ = run_cli(capsys, "lift", str(path))
    assert code == 0
    assert "parity: even" in out


# ---------------------------------------------------------------------------
# table

def test_table_clifford_diagonal_entry(capsys):
    code, out, _ = run_cli(capsys, "table", "clifford")
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("g0 ")]
    assert rows and "+Id" in rows[0]


def test_table_wedge_nilpotent_entry(capsys):
    code, out, _ = run_cli(capsys, "table", "wedge", "--json")
    assert code == 0
    payload = json.loads(out)
    labels = payload["labels"]
    i = labels.index("g0")
    assert payload["entries"][i][i] == "0"


def test_table_hodge_signs(capsys):
    code, out, _ = run_cli(capsys, "table", "hodge")
    assert code == 0
    assert "double star per grade" in out
    # five entries for grades 0..4
    line = [l for l in out.splitlines() if l.strip().startswith("0:")][0]
    assert all(f"{k}:" in line for k in range(5))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    # one version source: the package, its _version module and the CLI agree
    assert spinrep.__version__ == spinrep._version.__version__
    assert capsys.readouterr().out.strip() == f"spinrep {spinrep._version.__version__}"
