"""Structured results for verification runs.

A report is a flat list of named check results plus the configuration that
produced them.  JSON serialization is stable: identical configuration and
seed give byte-identical output except for the elapsed-time fields.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

SCHEMA = "spinrep-report/1"

PASS = "pass"
FAIL = "fail"


@dataclass
class CheckResult:
    suite: str
    name: str
    status: str
    residual: float | None = None
    samples: int = 0
    elapsed: float = 0.0
    detail: str = ""
    inputs: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "suite": self.suite,
            "name": self.name,
            "status": self.status,
            "residual": self.residual,
            "samples": self.samples,
            "elapsed": round(self.elapsed, 6),
        }
        if self.detail:
            d["detail"] = self.detail
        if self.inputs is not None:
            d["inputs"] = self.inputs
        return d


@dataclass
class Report:
    seed: int
    metric: list[list[float]]
    tolerances: dict[str, float]
    version: str
    samples: int | None = None
    suites: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    checks: list[CheckResult] = field(default_factory=list)

    def extend(self, checks: list[CheckResult]) -> None:
        self.checks.extend(checks)

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.checks if c.status == FAIL)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA,
            "version": self.version,
            "seed": self.seed,
            "metric": self.metric,
            "tolerances": self.tolerances,
            "samples": self.samples,
            "suites": self.suites,
            "skipped": self.skipped,
            "status": PASS if self.passed else FAIL,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            res = "" if c.residual is None else f"  residual={c.residual:.3e}"
            n = f"  n={c.samples}" if c.samples else ""
            detail = f"  [{c.detail}]" if c.detail else ""
            lines.append(f"{c.status.upper():4s}  {c.suite}.{c.name}{res}{n}{detail}")
        for s in self.skipped:
            lines.append(f"SKIP  {s} (suite not requested)")
        verdict = "all checks passed" if self.passed else f"{self.n_failed} check(s) FAILED"
        lines.append(f"==> {verdict}")
        return lines
