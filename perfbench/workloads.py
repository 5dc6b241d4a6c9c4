"""The four benchmark workloads.

A workload builds its fixed inputs when constructed (the part ``setup_s``
times), hands out whole rounds of operation inputs drawn from
``(seed, round)``, runs one operation (the timed part) and checks its output
with the numpy oracles in :mod:`oracle` (untimed).  An operation marked
``known_fault`` is expected to fail because of a named fault in the program;
any other failure makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import oracle
import tracer
from spinrep import cli
from spinrep import clifford as cl
from spinrep import grassmann as gr
from spinrep import isomorphisms as iso
from spinrep import transforms as tr

SRC = Path(__file__).resolve().parent.parent / "src"

# Seed of the known-fault inputs: they must not depend on --seed, so that the
# failed share is the same in every run.
FAULT_SEED = 304006

# Lorentz metric with off-diagonal terms; the ordered-product basis
# (clifford._structure_cached, isomorphisms._matrix_basis_cached) is not
# valid here, so the GL(4) action differs from conjugation by the lift.
NON_DIAGONAL = np.array(
    [1, 0.3, 0, 0, 0.3, -1, 0, 0, 0, 0, -1, 0.2, 0, 0, 0.2, -1], dtype=float
).reshape(4, 4)

ALL_SUITES = {"clifford", "dirac", "grassmann", "iso", "proposition", "transforms"}

BLADE_TOL = 1e-10
CHECK_TOL = 1e-9


@dataclass
class Op:
    kind: str
    data: dict[str, Any]
    known_fault: bool = False


@dataclass
class CliResult:
    returncode: int
    stdout: str
    peak_rss_mb: float
    # the parsed verify report, set by CliVerify.check for the suite timings
    report: dict[str, Any] | None = field(default=None)


class Workload:
    name = ""
    # p99 would have ten passed operations beyond it, but its spread between
    # runs was 0.14-0.19 against 0.06 for p95; see README.md
    tail_percentile = 95.0
    # caches stay warm across operations (otherwise they are cleared before
    # each pass of a traced run, so both passes do the same work)
    warm = False

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, r: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, r])

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op) -> Any:
        raise NotImplementedError

    def run_in_process(self, op: Op) -> Any:
        """The operation run inside this process, as the traced run needs."""
        return self.run(op)

    def check(self, op: Op, out: Any) -> bool:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# in-process workloads


class LiftStream(Workload):
    """Certify Lorentz isometries one after another on fixed metrics, warm."""

    name = "lift-stream"
    warm = True
    MINKOWSKI_PER_ROUND = 10
    FAULT_PER_ROUND = 2
    FAULT_POOL = 50

    def __init__(self, seed: int):
        super().__init__(seed)
        self.bases = {}
        self.blades = {}
        for key, g in (("minkowski", gr.minkowski()), ("non-diagonal", gr.Metric(NON_DIAGONAL))):
            basis = iso.dirac_matrices(g)
            self.bases[key] = basis
            self.blades[key] = oracle.blade_matrices(basis.gammas)
        frame = oracle.lorentz_frame(NON_DIAGONAL)
        fault_rng = np.random.default_rng(FAULT_SEED)
        self.fault_maps = [oracle.isometry_of(frame, fault_rng, 3.0) for _ in range(self.FAULT_POOL)]
        for key in self.bases:  # fill the per-metric caches before timing
            self.run(Op(key, {"a": np.eye(4)}))

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        ops = [Op("minkowski", {"a": oracle.lorentz(rng, 3.0)}) for _ in range(self.MINKOWSKI_PER_ROUND)]
        for j in range(self.FAULT_PER_ROUND):
            a = self.fault_maps[(r * self.FAULT_PER_ROUND + j) % self.FAULT_POOL]
            ops.append(Op("non-diagonal", {"a": a}, known_fault=True))
        for i in range(2, len(ops), 3):  # the -A branch
            ops[i].data["a"] = -ops[i].data["a"]
        return ops

    def run(self, op: Op):
        basis = self.bases[op.kind]
        sigma = tr.spin_lift(op.data["a"], basis)
        action = tr.gl4_on_matrices(op.data["a"], basis)
        images = np.stack([action(b) for b in self.blades[op.kind]])
        return sigma, images

    def check(self, op: Op, out) -> bool:
        sigma, images = out
        gammas = self.bases[op.kind].gammas
        g = self.bases[op.kind].metric.g
        return (
            oracle.anticommutator_residual(gammas, g) < CHECK_TOL
            and oracle.generator_conjugation_residual(sigma.matrix, op.data["a"], gammas) < CHECK_TOL
            and oracle.blade_conjugation_residual(images, sigma.matrix, self.blades[op.kind]) < BLADE_TOL
        )


class MetricSweep(Workload):
    """Each operation builds all per-metric structure for a fresh metric."""

    name = "metric-sweep"
    FRESH_PER_ROUND = 8
    # Minkowski rescaled: the absolute DEFAULT_DET_TOL rejects 1e-4 as
    # degenerate, the absolute DEFAULT_ISOMETRY_TOL rejects the lift at 1e6.
    FAULT_SCALES = (1e-4, 1e6)

    def __init__(self, seed: int):
        super().__init__(seed)
        fault_rng = np.random.default_rng(FAULT_SEED)
        a = oracle.lorentz(fault_rng, 3.0)
        elements = self._elements(fault_rng)
        self.fault_ops = [
            Op("rescaled", {"g": s * oracle.ETA, "a": a, "elements": elements}, known_fault=True)
            for s in self.FAULT_SCALES
        ]

    @staticmethod
    def _elements(rng: np.random.Generator) -> np.ndarray:
        return rng.normal(size=(3, 16)) + 1j * rng.normal(size=(3, 16))

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        ops = []
        for _ in range(self.FRESH_PER_ROUND):
            frame = oracle.random_frame(rng)
            g = frame.T @ oracle.ETA @ frame
            data = {
                "g": (g + g.T) / 2.0,
                "a": oracle.isometry_of(frame, rng, 2.0),
                "elements": self._elements(rng),
            }
            ops.append(Op("fresh", data))
        return ops + self.fault_ops

    def run(self, op: Op):
        g = gr.Metric(op.data["g"])
        ops = np.stack([gr.gamma_op(i, g) for i in range(4)])
        cl.product_tensor(g)
        star = gr.hodge_matrix(g)
        basis = iso.dirac_matrices(g)
        a, b, c = (cl.CliffordElement(x) for x in op.data["elements"])
        ab = cl.geometric_product(a, b, g)
        left = cl.geometric_product(ab, c, g)
        right = cl.geometric_product(a, cl.geometric_product(b, c, g), g)
        mats = [iso.clifford_to_matrix(x, basis) for x in (a, b, ab)]
        sigma = tr.spin_lift(op.data["a"], basis)
        return {"ops": ops, "star": star, "basis": basis, "left": left.coeffs,
                "right": right.coeffs, "mats": mats, "sigma": sigma}

    def check(self, op: Op, out) -> bool:
        g = op.data["g"]
        gammas = out["basis"].gammas
        ma, mb, mab = out["mats"]
        return (
            oracle.anticommutator_residual(out["ops"], g) < CHECK_TOL
            and oracle.anticommutator_residual(gammas, g) < CHECK_TOL
            and oracle.relative_gap(out["left"], out["right"]) < CHECK_TOL
            and oracle.relative_gap(mab, ma @ mb) < CHECK_TOL
            and oracle.double_star_residual(out["star"], g) < CHECK_TOL
            and oracle.generator_conjugation_residual(out["sigma"].matrix, op.data["a"], gammas) < CHECK_TOL
        )


# ---------------------------------------------------------------------------
# CLI workloads: each operation is one `spinrep` process


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn_cli(argv: list[str]) -> CliResult:
    """Run ``spinrep <argv>`` as its own process and reap it with wait4,
    which also gives that process's peak resident memory."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "spinrep.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        env=_child_env(), cwd=SRC.parent, text=True,
    )
    try:
        stdout = proc.stdout.read()
    except BaseException:  # interrupted: do not leave the child running
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(proc.returncode, stdout, usage.ru_maxrss / 1024.0)


def inprocess_cli(argv: list[str]) -> CliResult:
    """Run ``spinrep <argv>`` in this process with caches emptied first, so
    that the work matches a fresh process apart from start-up and import."""
    tracer.clear_caches()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return CliResult(rc, buf.getvalue(), 0.0)


def parse_json(result: CliResult) -> dict[str, Any] | None:
    try:
        return json.loads(result.stdout)
    except json.JSONDecodeError:
        return None


class CliWorkload(Workload):
    """Each operation is one ``spinrep`` command, ``op.data["argv"]``."""

    def run(self, op: Op) -> CliResult:
        return spawn_cli(op.data["argv"])

    def run_in_process(self, op: Op) -> CliResult:
        return inprocess_cli(op.data["argv"])


class CliVerify(CliWorkload):
    """`spinrep verify --json`: default metric, all six suites."""

    name = "cli-verify"
    # about 10 processes in 25 s: no percentile has ten samples beyond it,
    # so the tail is the slowest process
    tail_percentile = 100.0

    def round(self, r: int) -> list[Op]:
        seed = int(self.rng(r).integers(0, 2**31 - 1))
        return [Op("verify", {"argv": ["verify", "--json", "--seed", str(seed)]})]

    def check(self, op: Op, out: CliResult) -> bool:
        out.report = parse_json(out)
        if out.returncode != 0 or out.report is None:
            return False
        checks = out.report.get("checks") or []
        return (
            out.report.get("status") == "pass"
            and len(checks) > 0
            and all(c.get("status") != "fail" for c in checks)
            and {c.get("suite") for c in checks} == ALL_SUITES
        )


class CliLift(CliWorkload):
    """`spinrep lift --json` on generated Minkowski isometries."""

    name = "cli-lift"
    # about 50 processes in 25 s: the 75th percentile has ten beyond it
    tail_percentile = 75.0
    MAPS_PER_ROUND = 3

    def __init__(self, seed: int):
        super().__init__(seed)
        self.gammas = oracle.standard_gammas()

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        maps = [oracle.lorentz(rng, 3.0) for _ in range(self.MAPS_PER_ROUND)]
        maps[2] = -maps[2]  # the -A branch
        # "--" because argparse reads a map starting with "-1," as an option
        return [Op("lift", {"a": a, "argv": ["lift", "--json", "--", oracle.map_text(a)]}) for a in maps]

    def check(self, op: Op, out: CliResult) -> bool:
        payload = parse_json(out)
        if out.returncode != 0 or payload is None or payload.get("isometry") is not True:
            return False
        m = np.array(payload["matrix"], dtype=float)
        m = m[..., 0] + 1j * m[..., 1]
        return (
            m.shape == (4, 4)
            and abs(np.linalg.det(m) - 1.0) < CHECK_TOL
            and oracle.generator_conjugation_residual(m, op.data["a"], self.gammas) < CHECK_TOL
        )


WORKLOADS = {w.name: w for w in (CliVerify, CliLift, LiftStream, MetricSweep)}
