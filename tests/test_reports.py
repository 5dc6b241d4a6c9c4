"""Golden reports: five in-process ``spinrep verify --json`` runs against a fixture.

``tests/data/reports.jsonl`` holds, for each run in ``RUNS``, one line with the
report's header and one line per check, with ``elapsed`` left out.  Every
other field must match exactly.  On a mismatch the test prints old and new
status, residual and samples of every check side by side, marks the checks
whose entries differ in any field and lists their other differing fields.

A change that is meant to alter reports rewrites the fixture and says which
fields changed and why.  The script prints the same side-by-side view for
every run whose report changed, then rewrites the fixture::

    PYTHONPATH=src python tests/test_reports.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from spinrep import cli

FIXTURE = Path(__file__).resolve().parent / "data" / "reports.jsonl"

RUNS = {
    "default": ["--seed", "0"],
    "non-diagonal": ["--seed", "5", "--metric", "1,0.3,0,0,0.3,-1,0,0,0,0,-1,0.2,0,0,0.2,-1"],
    "minkowski-+++": ["--seed", "3", "--metric", "minkowski-+++", "--samples", "3"],
    "fail-path": ["--seed", "0", "--tol", "1e-300"],
    "euclidean-3I": ["--seed", "0", "--metric", "3,0,0,0,0,3,0,0,0,0,3,0,0,0,0,3"],
}


def verify_report(argv: list[str]) -> dict:
    """The ``verify --json`` report for ``argv``, without the elapsed times."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["verify", "--json", *argv])
    report = json.loads(out.getvalue())
    for check in report["checks"]:
        del check["elapsed"]
    return report


def load_fixture() -> dict[str, dict]:
    runs: dict[str, dict] = {}
    for line in FIXTURE.read_text().splitlines():
        row = json.loads(line)
        if "report" in row:
            runs[row["run"]] = {**row["report"], "checks": []}
        else:
            runs[row["run"]]["checks"].append(row["check"])
    return runs


def write_fixture(reports: dict[str, dict]) -> None:
    rows = []
    for run, report in reports.items():
        report = dict(report)
        checks = report.pop("checks")
        rows.append({"run": run, "report": report})
        rows += [{"run": run, "check": check} for check in checks]
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("".join(json.dumps(row) + "\n" for row in rows))


def side_by_side(old: dict, new: dict) -> str:
    """Old and new status, residual and samples per check; ``*`` marks a difference.

    Under a marked check present in both reports, one line per other field
    that differs gives its old and new value.
    """
    lines = [f"header {key}: {old.get(key)!r} -> {new.get(key)!r}"
             for key in sorted((set(old) | set(new)) - {"checks"}) if old.get(key) != new.get(key)]
    before = {(c["suite"], c["name"]): c for c in old["checks"]}
    after = {(c["suite"], c["name"]): c for c in new["checks"]}

    def cells(c):
        if c is None:
            return f"{'(absent)':<28}"
        residual = "null" if c["residual"] is None else f"{c['residual']:.6e}"
        return f"{c['status']:<5} {residual:>13} {c['samples']:>7}"

    lines.append(f"  {'check':<60} {'old: status residual samples':<28} | new")
    for key in list(before) + [k for k in after if k not in before]:
        a, b = before.get(key), after.get(key)
        mark = " " if a == b else "*"
        lines.append(f"{mark} {'.'.join(key):<60} {cells(a)} | {cells(b)}")
        if a is not None and b is not None:
            lines += [f"      {field}: {a.get(field)!r} -> {b.get(field)!r}"
                      for field in sorted((set(a) | set(b)) - {"status", "residual", "samples"})
                      if a.get(field) != b.get(field)]
    return "\n".join(lines)


@pytest.fixture(scope="module")
def fixture_runs():
    return load_fixture()


@pytest.mark.parametrize("run", RUNS)
def test_report_matches_fixture(run, fixture_runs):
    new = verify_report(RUNS[run])
    old = fixture_runs[run]
    if new != old:
        pytest.fail(f"report {run!r} differs from {FIXTURE.name}:\n{side_by_side(old, new)}",
                    pytrace=False)


if __name__ == "__main__":
    before = load_fixture() if FIXTURE.exists() else {}
    after = {run: verify_report(argv) for run, argv in RUNS.items()}
    for run, new in after.items():
        old = before.get(run, {"checks": []})
        if new != old:
            print(f"report {run!r} changed:\n{side_by_side(old, new)}\n")
    write_fixture(after)
    print(f"wrote {FIXTURE}")
