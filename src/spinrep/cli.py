"""Command-line verification runner and inspection tool.

Subcommands:

* ``verify`` runs the selected property suites and reports pass/fail,
* ``lift``  computes the conjugating element for a user-supplied matrix,
* ``table`` prints the product, wedge or star tables for the active metric.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 configuration
error (malformed metric, bad flag, degenerate input).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import clifford as cl
from . import grassmann as gr
from . import isomorphisms as iso
from . import transforms as tr
from ._tables import NBLADES, WEDGE_TENSOR, blade_label
from ._version import __version__
from .errors import ConfigError, DegenerateMetric, SpinrepError

PRESETS = {
    "minkowski+---": gr.minkowski("+---"),
    "minkowski-+++": gr.minkowski("-+++"),
}


def parse_matrix4(text: str) -> np.ndarray:
    """16 comma-separated row-major reals, or a path to a JSON {"matrix": [[...]]} file."""
    text = text.strip()
    if "," in text:
        try:
            values = [float(v) for v in text.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad matrix entry: {exc}") from None
        if len(values) != 16:
            raise ConfigError(f"expected 16 matrix entries, got {len(values)}")
        m = np.array(values, dtype=np.float64).reshape(4, 4)
    else:
        try:
            with open(text) as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read matrix file {text!r}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"matrix file {text!r} is not valid JSON: {exc}") from None
        try:
            m = np.array(payload["matrix"], dtype=np.float64)
        except (KeyError, TypeError, ValueError):
            raise ConfigError(f'matrix file {text!r} must contain {{"matrix": [[...]x4]}}') from None
        if m.shape != (4, 4):
            raise ConfigError(f"matrix in {text!r} has shape {m.shape}, expected (4, 4)")
    if not np.isfinite(m).all():
        raise ConfigError("matrix entries must be finite")
    return m


def load_metric(spec: str) -> gr.Metric:
    if spec in PRESETS:
        return PRESETS[spec]
    m = parse_matrix4(spec)
    try:
        return gr.Metric(m)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    except DegenerateMetric as exc:
        raise ConfigError(f"degenerate metric: {exc}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metric", default="minkowski+---",
                        help="metric preset, 16 comma-separated reals, or JSON file path; "
                             "write --metric=-1,0,... when the first entry is negative")
    parser.add_argument("--json", action="store_true", help="emit a JSON report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spinrep",
                                     description="algebra verification runner")
    parser.add_argument("--version", action="version", version=f"spinrep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    _add_common(p_verify)
    p_verify.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p_verify.add_argument("--tol", type=float, default=None,
                          help="override every residual check's tolerance; "
                               "separation thresholds stay fixed")
    p_verify.add_argument("--samples", type=int, default=None,
                          help="override the per-check sample counts")
    p_verify.add_argument("--suite", action="append", default=None,
                          help="suite to run, repeatable (default: all)")

    p_lift = sub.add_parser("lift", help="conjugating element for a linear map")
    _add_common(p_lift)
    p_lift.add_argument("--tol", type=float, default=None,
                        help=f"isometry tolerance (default {tr.DEFAULT_ISOMETRY_TOL:g})")
    p_lift.add_argument("map", help="16 comma-separated reals or JSON file path; "
                                    "write 'spinrep lift -- MAP' when the first entry is negative")

    p_table = sub.add_parser("table", help="print a product/wedge/star table")
    _add_common(p_table)
    p_table.add_argument("which", choices=("clifford", "wedge", "hodge"))
    return parser


def _check_tol(tol: float | None) -> None:
    if tol is not None and not (np.isfinite(tol) and tol > 0):
        raise ConfigError("--tol must be finite and positive")


def cmd_verify(args: argparse.Namespace) -> int:
    # the checks and the report are compiled for verify alone, not for lift or table
    from .report import Report
    from .suites import SUITE_NAMES, SuiteContext, run_suite

    _check_tol(args.tol)
    if args.samples is not None and args.samples < 1:
        raise ConfigError("--samples must be at least 1")
    metric = load_metric(args.metric)
    requested = args.suite or list(SUITE_NAMES)
    bad = sorted(set(requested) - set(SUITE_NAMES))
    if bad:
        raise ConfigError(f"unknown suite(s): {', '.join(bad)}; choose from {', '.join(SUITE_NAMES)}")
    requested = [s for s in SUITE_NAMES if s in requested]
    ctx = SuiteContext(metric=metric, seed=args.seed, samples=args.samples, tol=args.tol)
    report = Report(
        seed=args.seed,
        metric=metric.g.tolist(),
        tolerances={
            "tol_override": args.tol if args.tol is not None else 0.0,
            "det_tol": metric.det_tol,
            "isometry_tol": tr.DEFAULT_ISOMETRY_TOL,
        },
        version=__version__,
        samples=args.samples,
        suites=requested,
        skipped=[s for s in SUITE_NAMES if s not in requested],
    )
    for name in requested:
        report.extend(run_suite(name, ctx))
    if args.json:
        print(report.to_json())
    else:
        for line in report.summary_lines():
            print(line)
    return 0 if report.passed else 1


def _format_sigma(sigma: tr.SpinElement) -> list[str]:
    lines = ["conjugator coefficients (antisymmetrised blade basis):"]
    for b in range(NBLADES):
        c = sigma.element.coeffs[b]
        if abs(c) > 1e-12:
            lines.append(f"  {blade_label(b, 'g', 'Id'):8s} {c.real:+.12f} {c.imag:+.12f}j")
    lines.append("as a 4x4 matrix:")
    for row in sigma.matrix:
        lines.append("  " + "  ".join(f"{v.real:+.9f}{v.imag:+.9f}j" for v in row))
    lines.append(f"parity: {sigma.parity}")
    lines.append(f"conjugation residual: {sigma.residual:.3e}")
    return lines


def cmd_lift(args: argparse.Namespace) -> int:
    _check_tol(args.tol)
    metric = load_metric(args.metric)
    a = parse_matrix4(args.map)
    basis = iso.dirac_matrices(metric)
    defect = tr.isometry_defect(a, metric)
    isometry_tol = args.tol if args.tol is not None else tr.DEFAULT_ISOMETRY_TOL
    if defect < isometry_tol:
        sigma = tr.spin_lift(a, basis, isometry_tol)
        if args.json:
            payload = {
                "schema": "spinrep-lift/1",
                "isometry": True,
                "isometry_defect": defect,
                "coefficients": [[c.real, c.imag] for c in sigma.element.coeffs],
                "matrix": [[[v.real, v.imag] for v in row] for row in sigma.matrix],
                "parity": sigma.parity,
                "residual": sigma.residual,
            }
            print(json.dumps(payload, indent=2))
        else:
            print(f"isometry defect |A^T g A - g| = {defect:.3e}")
            for line in _format_sigma(sigma):
                print(line)
        return 0
    svals = tr.conjugation_singular_values(a, basis)
    verdict = ("null space trivial" if svals[-1] > tr.NO_LIFT_SEPARATION
               else "null space unexpectedly nontrivial")
    if args.json:
        payload = {
            "schema": "spinrep-lift/1",
            "isometry": False,
            "isometry_defect": defect,
            "smallest_normalized_singular_value": float(svals[-1]),
            "verdict": verdict,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"not an isometry: |A^T g A - g| = {defect:.3e}")
        print(f"no lift ({verdict}); smallest normalized singular value "
              f"of the conjugation system: {svals[-1]:.3e}")
    return 0


def _format_entry(coeffs: np.ndarray, symbol: str, unit: str) -> str:
    terms = []
    for b in range(NBLADES):
        c = coeffs[b]
        if abs(c) < 1e-12:
            continue
        label = blade_label(b, symbol, unit)
        if abs(c.imag) < 1e-12:
            r = c.real
            if abs(r - 1.0) < 1e-12:
                terms.append(f"+{label}")
            elif abs(r + 1.0) < 1e-12:
                terms.append(f"-{label}")
            else:
                terms.append(f"{r:+g}{label}")
        else:
            terms.append(f"({c:.3g}){label}")
    return " ".join(terms) if terms else "0"


def cmd_table(args: argparse.Namespace) -> int:
    g = load_metric(args.metric)
    if args.which == "hodge":
        scalars = gr.star_star_scalars(g)
        ratios = gr.contraction_vs_vee_table(g)
        if args.json:
            print(json.dumps({
                "schema": "spinrep-table/1",
                "table": "hodge",
                "double_star_per_grade": scalars.tolist(),
                "contraction_vs_vee_per_grade": ratios.tolist(),
            }, indent=2))
        else:
            print("double star per grade k=0..4:")
            print("  " + "  ".join(f"{k}: {s:+.6g}" for k, s in enumerate(scalars)))
            print("contraction vs dual-product ratio per grade k=1..4:")
            print("  " + "  ".join(f"{k}: {s:+.6g}" for k, s in enumerate(ratios) if k))
        return 0
    symbol, unit = ("g", "Id")
    # entry [i, j] holds the coefficients of blade i times blade j
    table = cl.product_tensor(g).transpose(0, 2, 1) if args.which == "clifford" else WEDGE_TENSOR
    entries = [[_format_entry(products, symbol, unit) for products in row] for row in table]
    labels = [blade_label(b, symbol, unit) for b in range(NBLADES)]
    if args.json:
        print(json.dumps({
            "schema": "spinrep-table/1",
            "table": args.which,
            "labels": labels,
            "entries": entries,
        }, indent=2))
        return 0
    width = max(max(len(e) for row in entries for e in row), max(len(l) for l in labels)) + 1
    print(" " * (width + 2) + "".join(f"{l:<{width}}" for l in labels))
    for label, row in zip(labels, entries):
        print(f"{label:<{width}} |" + "".join(f"{e:<{width}}" for e in row))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "lift":
            return cmd_lift(args)
        if args.command == "table":
            return cmd_table(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpinrepError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
