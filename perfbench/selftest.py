"""Self-test of the benchmark itself, run from the root of a source checkout:

    python3 perfbench/selftest.py

Checks that a corrupted lift, pushforward or CLI report is counted as a failed
operation, that the known-fault inputs fail every time, and that one seed run
twice gives identical inputs, call counts and failure counts.  Exits 1 when a
check fails.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import traceback
from contextlib import contextmanager

import numpy as np

import run

sys.path.insert(0, str(run.SRC))

import tracer  # noqa: E402
import workloads  # noqa: E402
from spinrep import transforms  # noqa: E402
from spinrep.errors import DegenerateMetric, NotIsometry  # noqa: E402


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


@contextmanager
def patched(owner, attr: str, value):
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def all_failed(wl, execute=None) -> None:
    p = run.run_rounds(wl, execute or wl.run, rounds=1)
    expect(p.attempted > 0 and p.failed == p.attempted,
           f"{wl.name}: {p.failed} of {p.attempted} corrupted operations counted as failed")


def test_corrupted_lift_fails() -> None:
    lift = transforms.spin_lift
    skew = np.eye(4) + 1e-6 * np.arange(16).reshape(4, 4)

    def corrupted(a, basis, *args, **kwargs):
        sigma = lift(a, basis, *args, **kwargs)
        return dataclasses.replace(sigma, matrix=sigma.matrix @ skew)

    with patched(transforms, "spin_lift", corrupted):
        all_failed(workloads.LiftStream(0))
        # the rescaled metrics of metric-sweep fail anyway; the fresh ones must too
        all_failed(workloads.MetricSweep(0))


def test_corrupted_pushforward_fails() -> None:
    push = transforms.exterior_pushforward

    def corrupted(a):
        out = push(a).copy()
        out[3, 3] *= 1.0 + 1e-6  # one grade-2 coefficient
        return out

    wl = workloads.LiftStream(0)
    with patched(transforms, "exterior_pushforward", corrupted):
        all_failed(wl)


def test_corrupted_cli_output_fails() -> None:
    wl = workloads.CliVerify(0)
    good = {"status": "pass", "checks": [{"suite": s, "status": "pass", "elapsed": 0.0}
                                         for s in sorted(workloads.ALL_SUITES)]}
    expect(wl.check(wl.round(0)[0], workloads.CliResult(0, json.dumps(good), 0.0)),
           "a passing report is accepted")
    bad_status = dict(good, checks=[dict(good["checks"][0], status="fail")] + good["checks"][1:])
    missing = dict(good, checks=good["checks"][1:])
    for name, stdout, rc in (("failed check", json.dumps(bad_status), 0),
                             ("missing suite", json.dumps(missing), 0),
                             ("exit code 1", json.dumps(good), 1),
                             ("not JSON", "Traceback", 0)):
        all_failed(wl, lambda op, s=stdout, r=rc: workloads.CliResult(r, s, 0.0))
        expect(not wl.check(wl.round(0)[0], workloads.CliResult(rc, stdout, 0.0)), name)

    lift = workloads.CliLift(0)
    op = lift.round(0)[0]
    real = workloads.spawn_cli(op.data["argv"])
    expect(lift.check(op, real), "a real `spinrep lift` output passes its check")
    payload = json.loads(real.stdout)
    payload["matrix"][0][1][0] += 1e-6
    all_failed(lift, lambda op: workloads.CliResult(0, json.dumps(payload), 0.0))


def test_known_faults_fail_every_time() -> None:
    wl = workloads.LiftStream(0)
    for a in wl.fault_maps:
        for sign in (1.0, -1.0):
            op = workloads.Op("non-diagonal", {"a": sign * a}, known_fault=True)
            expect(not wl.check(op, wl.run(op)), "every non-diagonal lift fails its check")
    sweep = workloads.MetricSweep(0)
    for op in sweep.fault_ops:
        try:
            sweep.run(op)
        except (NotIsometry, DegenerateMetric):
            continue
        raise AssertionError(f"rescaled metric {op.data['g'][0, 0]:g} did not fail")


def _inputs(wl, rounds: int) -> list:
    out = []
    for r in range(rounds):
        for op in wl.round(r):
            out.append((op.kind, op.known_fault, {
                k: (v.tobytes() if isinstance(v, np.ndarray) else v) for k, v in op.data.items()}))
    return out


def _traced_counts(wl, rounds: int):
    if not wl.warm:
        tracer.clear_caches()
    t = tracer.Tracer()
    t.install()
    try:
        p = run.run_rounds(wl, wl.run_in_process, rounds=rounds)
    finally:
        t.uninstall()
    calls = {name: s["calls"] for name, s in t.summary().items()}
    return calls, (p.attempted, p.failed, dict(p.reasons))


def test_same_seed_same_run() -> None:
    for cls, rounds in ((workloads.LiftStream, 3), (workloads.MetricSweep, 3),
                        (workloads.CliLift, 2), (workloads.CliVerify, 1)):
        first, second = cls(7), cls(7)
        expect(_inputs(first, rounds) == _inputs(second, rounds), f"{cls.name}: same inputs")
        expect(_inputs(first, 1) != _inputs(cls(8), 1), f"{cls.name}: another seed, other inputs")
        a, b = _traced_counts(first, rounds), _traced_counts(second, rounds)
        expect(a[0] == b[0], f"{cls.name}: same call counts")
        expect(a[1] == b[1], f"{cls.name}: same failure counts {a[1]} vs {b[1]}")


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    failures = 0
    for test in tests:
        try:
            test()
            print(f"PASS  {test.__name__}")
        except Exception:
            failures += 1
            print(f"FAIL  {test.__name__}")
            traceback.print_exc()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
