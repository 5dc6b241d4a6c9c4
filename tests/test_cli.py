import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinrep
from spinrep import cli
from spinrep import clifford as cl
from spinrep import grassmann as gr
from spinrep._tables import NBLADES
from spinrep.errors import ConfigError
from spinrep.suites import SUITE_NAMES

from conftest import SIGNATURES, frame_metric


SRC = str(Path(__file__).resolve().parents[1] / "src")
IDENTITY = ",".join(["1,0,0,0", "0,1,0,0", "0,0,1,0", "0,0,0,1"])
OVERFLOWING_METRIC = ",".join(str(v) for v in (1e100 * np.diag([1.0, -1.0, -1.0, -1.0])).flatten())


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def loads_strict(text):
    """Parse JSON, rejecting the non-standard constants NaN and Infinity."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


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
    # finite entries whose determinant overflows to -inf
    ["verify", "--suite", "grassmann", "--metric=" + OVERFLOWING_METRIC],
    ["lift", "--metric=" + OVERFLOWING_METRIC, "--", "1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1"],
    # not non-finite, but as bad: numpy seeds only from non-negative integers
    ["verify", "--seed=-1"],
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


def test_lift_does_not_import_the_suites():
    # the check declarations and the report serve verify alone; lift and
    # table must not compile them
    code = ("import sys; from spinrep import cli; "
            "cli.main(['lift','--json','--','-1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1']); "
            "cli.main(['table','hodge']); "
            "assert 'spinrep.suites' not in sys.modules, 'suites'; "
            "assert 'spinrep.report' not in sys.modules, 'report'")
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
        assert "PASS  dirac.isometry_covariance  residual=2.985e-14  n=5  " in out


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
    # det g is finite (-1e308) but the products overflow and go NaN: max()
    # dropped a NaN residual, so such a run used to pass every check
    spec = ",".join(str(v) for v in (1e77 * np.diag([1.0, -1.0, -1.0, -1.0])).flatten())
    code, out, _ = run_cli(capsys, "verify", "--suite", "clifford", f"--metric={spec}", "--json")
    assert code == 1
    by_name = {c["name"]: c for c in loads_strict(out)["checks"]}
    check = by_name["reversion_antiautomorphism"]
    assert (check["status"], check["residual"]) == ("fail", None)
    assert "non-finite residual" in check["detail"]


def test_verify_metric_with_leading_minus(capsys):
    # argparse reads "--metric -1,..." as a missing value; the "=" form works
    code, out, _ = run_cli(capsys, "verify", "--suite", "grassmann",
                           "--metric=-1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1")
    assert code == 0
    assert "==> all checks passed" in out


# Lorentz F^T eta F with condition number 720: its double star is off the
# per-grade signs by 1.55e-10, beyond the absolute tolerance 1e-10
ILL_CONDITIONED = ("-19.055,-12.816,8.359,9.74,-12.816,-8.559,5.583,6.559,"
                   "8.359,5.583,-3.744,-4.299,9.74,6.559,-4.299,-5.051")


def test_double_star_off_its_signs_is_a_failed_check_not_a_traceback(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "grassmann", "--json",
                             f"--metric={ILL_CONDITIONED}")
    assert (code, err) == (1, "")
    by_name = {c["name"]: c for c in loads_strict(out)["checks"]}
    check = by_name["double_star_is_per_grade_sign"]
    assert (check["status"], check["detail"]) == ("fail", "tol 1e-10")
    assert 1.5e-10 < check["residual"] < 1.6e-10
    code, out, err = run_cli(capsys, "table", "hodge", f"--metric={ILL_CONDITIONED}")
    assert (code, err) == (0, "")
    assert "double star per grade" in out


def _shear_metric():
    a = np.eye(4)
    a[0, 1] = 0.3  # shear, so the pulled-back form is genuinely non-diagonal
    g = a.T @ np.diag([1.0, -1.0, -1.0, -1.0]) @ a
    return (g + g.T) / 2


# every signature, diagonal and through a well-conditioned random frame
EVERY_SIGNATURE = {
    "shear": _shear_metric(),
    "3I": 3.0 * np.eye(4),
    "minus-I": -np.eye(4),
    "split-diagonal": np.diag([1.0, 1.0, -1.0, -1.0]),
    **{f"frame-{sum(v > 0 for v in d)}-positive": frame_metric(np.random.default_rng(100 + k), d).g
       for k, d in enumerate(SIGNATURES)},
}


@pytest.mark.parametrize("g", EVERY_SIGNATURE.values(), ids=EVERY_SIGNATURE.keys())
def test_verify_non_diagonal_metric_passes_every_check(capsys, g):
    # the antisymmetrised blade basis and the Dirac matrices are valid for
    # every metric, so every check of every suite is strict here
    spec = ",".join(repr(float(v)) for v in g.flatten())
    code, out, _ = run_cli(capsys, "verify", "--metric=" + spec, "--seed", "4", "--json")
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
    # g1 g2 squares to -g11 g22, so the unit bivector is g1 g2 / |g11|, and
    # the sign of g11 sets the sense of the rotation
    euclidean = ",".join(str(v) for v in (3.0 * np.eye(4)).flatten())
    for metric, bivector in (("minkowski+---", -np.sqrt(0.5)), (euclidean, np.sqrt(0.5) / 3)):
        code, out, _ = run_cli(capsys, "lift", "--metric", metric, a, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["isometry"] is True
        coeffs = np.array([complex(re, im) for re, im in payload["coefficients"]])
        expected = np.zeros(16, dtype=complex)
        expected[0] = np.sqrt(0.5)
        expected[0b0110] = bivector
        match = min(np.abs(coeffs - expected).max(), np.abs(coeffs + expected).max())
        assert match < 1e-9
        assert payload["residual"] < 1e-10


def test_lift_non_isometry_verdict(capsys):
    a = "1,0,0,0,0,2,0,0,0,0,1,0,0,0,0,1"
    code, out, _ = run_cli(capsys, "lift", a)
    assert code == 0
    assert "not an isometry" in out
    assert "null space trivial" in out


def test_lift_overflowing_defect_is_null_in_json(capsys):
    # finite entries whose A^T g A overflows: no isometry, and no Infinity in the JSON
    huge = "1e300,0,0,0,0,1e300,0,0,0,0,1e300,0,0,0,0,1e300"
    code, out, err = run_cli(capsys, "lift", "--json", "--", huge)
    payload = loads_strict(out)
    assert (code, err) == (0, "")
    assert (payload["isometry"], payload["isometry_defect"]) == (False, None)
    assert payload["verdict"] == "null space trivial"


def test_lift_without_an_isolated_null_vector_exits_2(capsys):
    # 2 I passes --tol 100 as an isometry, but its conjugation system has no null vector
    code, out, err = run_cli(capsys, "lift", "--tol", "100", "--",
                             "2,0,0,0,0,2,0,0,0,0,2,0,0,0,0,2")
    assert (code, out) == (2, "")
    assert err == ("error: LiftNotFound: no isolated null vector: "
                   "normalized singular values 3.333e-01, 5.774e-01\n")


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


TABLE_METRICS = {
    "minkowski": "minkowski+---",
    "non-diagonal": "1,0.3,0,0,0.3,-1,0,0,0,0,-1,0.2,0,0,0.2,-1",
    "3I": "3,0,0,0,0,3,0,0,0,0,3,0,0,0,0,3",
}


@pytest.mark.parametrize("which", ["clifford", "wedge"])
@pytest.mark.parametrize("spec", TABLE_METRICS.values(), ids=TABLE_METRICS.keys())
def test_table_entries_equal_single_products(capsys, which, spec):
    # every entry [i, j] is blade i times blade j, one product at a time; blade
    # pairs that anticommute tell a transposed table from the right one
    code, out, _ = run_cli(capsys, "table", which, f"--metric={spec}", "--json")
    assert code == 0
    g = cli.load_metric(spec)
    expected = []
    for i in range(NBLADES):
        row = []
        for j in range(NBLADES):
            if which == "clifford":
                coeffs = cl.geometric_product(
                    cl.CliffordElement.basis_blade(i), cl.CliffordElement.basis_blade(j), g).coeffs
            else:
                coeffs = gr.wedge(gr.GrassmannElement.blade(i), gr.GrassmannElement.blade(j)).coeffs
            row.append(cli._format_entry(coeffs, "g", "Id"))
        expected.append(row)
    assert json.loads(out)["entries"] == expected


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
