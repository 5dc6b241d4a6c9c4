"""Mutation kill table of the ``verify`` checks.

Each mutant plants one small fault in the library, and every check of
``suites.CHECKS`` then runs through ``suites._run``, in-process, on η and on
the golden non-diagonal metric.  A check kills a mutant when it reports FAIL
(DeMillo, Lipton and Sayward, "Hints on test data selection", *IEEE Computer*
11(4), 1978).  The table shows which checks guard something that no other
check guards; a check that kills no mutant of its own can go, with its
identity kept in the tests.  Print it with::

    PYTHONPATH=src python -m pytest -q -s tests/test_mutants.py

A mutant monkeypatches a module attribute where the library reads it at call
time.  Where several modules import the same object by name, it is patched in
each (:func:`everywhere`); where one attribute cannot carry the fault, the
function that reads it is wrapped.  Values built from a table at import time
(``transforms._SIDES`` from the move stacks, ``_kernels._WEDGE_MATRIX`` from
``WEDGE_TENSOR``) keep their values, so a table mutant reaches only the
readers named in its row.  Every per-metric cache is cleared before and after
each mutant, so that no structure built under one mutant serves another run.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from types import ModuleType
from typing import Callable

import numpy as np
import pytest

import spinrep
from spinrep import _kernels
from spinrep import _tables
from spinrep import clifford as cl
from spinrep import dirac as dr
from spinrep import grassmann as gr
from spinrep import isomorphisms as iso
from spinrep import transforms as tr
from spinrep.report import FAIL, PASS
from spinrep.suites import CHECKS, SuiteContext, _run

import test_dirac
import test_reports
import test_transforms
from conftest import NON_DIAGONAL
from test_suites import PER_METRIC_CACHES

RAISED = "raised"
MINK = gr.minkowski()
BASIS = iso.dirac_matrices(MINK)
METRICS = {"η": MINK, "non-diagonal": gr.Metric(NON_DIAGONAL)}
CELL = {FAIL: "F", PASS: ".", RAISED: "R"}


@dataclass(frozen=True)
class Tier1:
    """The test that kills a mutant ``verify`` cannot see, and why it cannot."""

    test: str
    why: str
    run: Callable[[], None]


@dataclass(frozen=True)
class Mutant:
    name: str
    where: str
    plant: Callable[[pytest.MonkeyPatch], None]
    tier1: Tier1 | None = None


def seeded():
    """The generator of the tests' ``rng`` fixture."""
    return np.random.default_rng(20240817)


def everywhere(mp, module, name, value):
    """Patch ``module.name`` in every module of the package that imported it by name."""
    original = getattr(module, name)
    for held in vars(spinrep).values():
        if isinstance(held, ModuleType) and getattr(held, name, None) is original:
            mp.setattr(held, name, value)


def flipped(table, index):
    """A writable copy of ``table`` with the entry at ``index`` negated."""
    out = np.array(table)
    out[index] = -out[index]
    return out


def wrapped(mp, module, name, after):
    """Patch ``module.name`` everywhere with ``after(original(*args), *args)``."""
    original = getattr(module, name)
    everywhere(mp, module, name, lambda *args, **kwargs: after(original(*args, **kwargs), *args))


# ---------------------------------------------------------------------------
# the mutants: 18 planted faults, then one that collapses each separation

def left_removal_sign(mp):
    table = flipped(gr._REMOVE_LEFT, (1, 0b0001, 0b0011))
    mp.setattr(gr, "_REMOVE_LEFT", table)
    mp.setattr(gr._gamma_ops, "__defaults__", (gr._INSERT_LEFT, table))


def right_removal_sign(mp):
    mp.setattr(gr, "_REMOVE_RIGHT", flipped(gr._REMOVE_RIGHT, (1, 0b0001, 0b0011)))


def right_metric_term(mp):
    term = 1e-9 * np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0] * 4, [0.0] * 4])
    everywhere(mp, gr, "_right_gamma_ops_cached",
               lambda g: gr._gamma_ops(g.g + term, gr._INSERT_RIGHT, gr._REMOVE_RIGHT))


def reversion_sign(mp):
    everywhere(mp, _tables, "REVERSION_SIGN", flipped(_tables.REVERSION_SIGN, 0b0011))


def wedge_sign(mp):
    # e0 ^ e1e2: row (0b0001, 0b0110) of the (256, 16) wedge matrix, column 0b0111
    entry = (0b0001 * 16 + 0b0110, 0b0111)
    mp.setattr(_kernels, "_WEDGE_MATRIX", flipped(_kernels._WEDGE_MATRIX, entry))


def diagonal_generator_scale(mp):
    def scaled(basis, g):
        if np.count_nonzero(g.g - np.diag(np.diagonal(g.g))):
            return basis
        return iso.GammaBasis(basis.gammas * np.array([1.0, 1.0 + 1e-9, 1.0, 1.0])[:, None, None], g)

    wrapped(mp, iso, "dirac_matrices", scaled)


def basis_inverse_entry(mp):
    shift = np.zeros((16, 16))
    shift[5, 6] = 1e-9
    wrapped(mp, iso, "_matrix_basis_cached", lambda built, basis: (built[0], built[1] + shift))


def compound_minor_sign(mp):
    wrapped(mp, _kernels, "compound16", lambda out, a: flipped(out, (..., 0b0101, 0b0110)))


def lift_determinant(mp):
    # |det m|^(-0.2501) in place of ^(-0.25): the lift off unit determinant by
    # a small relative factor, which every conjugation cancels
    c = 1.0 + 1e-4
    wrapped(mp, tr, "_lift_stack",
            lambda out, *args: (out[0] * c, out[1] * c, out[2] / c) + out[3:])


def parity_block(mp):
    wrapped(mp, tr, "_gate", lambda out, *args: (1 - out[0],) + out[1:])


def transposed_substitution(mp):
    original = tr._substituted
    mp.setattr(tr, "_substituted", lambda a, basis: original(np.swapaxes(a, -1, -2), basis))


def ordered_grade_3(mp):
    blades, first, rest, _ = cl._GRADE_STEPS[2]

    def ordered(out, gens):
        out[..., blades, :, :] = gens[..., first, :, :] @ out[..., rest, :, :]
        return out

    wrapped(mp, cl, "_blade_products", ordered)


def null_vector_times_sigma(mp):
    wrapped(mp, tr, "_lift_system_cached", lambda out, basis: out[:2] + (1.0 / out[2],) + out[3:])


def star_scale(mp):
    wrapped(mp, gr, "_hodge_matrix_cached", lambda h, g: h * abs(g.det) ** 0.25)


def complement_sign(mp):
    mp.setattr(gr, "_COMPLEMENT", flipped(gr._COMPLEMENT, (_tables.TOP ^ 0b0011, 0b0011)))


def lorentz_symmetric_part(mp):
    # 1e-9 I is g-symmetric for every g: the maps stretch by e^(1e-9)
    wrapped(mp, tr, "_expm", lambda out, x: out * np.exp(1e-9))


def pade_coefficient(mp):
    b = list(tr._PADE13)
    b[1] = 32382376266240100.0  # 32382376266240000.0 off in its 15th digit
    mp.setattr(tr, "_PADE13", tuple(b))


def cluster_tolerance(mp):
    mp.setattr(dr, "_CLUSTER_TOL", 1e-3)


def conjugating_action(mp):
    def conjugation(a, basis):
        # row-major vec(a m a^-1) = (a (x) a^-T) vec m, a read as a 4x4 matrix
        a = np.asarray(a, dtype=np.float64)
        inverse_t = np.linalg.inv(a).swapaxes(-1, -2)
        kron = a[..., :, None, :, None] * inverse_t[..., None, :, None, :]
        return kron.reshape(a.shape[:-2] + (16, 16))

    mp.setattr(tr, "_gl4_operator", conjugation)


def planted_null_vector(mp):
    # column 0 zeroed: Sigma = E_00 solves every system
    wrapped(mp, tr, "conjugation_system", lambda system, *args: system * (np.arange(16) != 0))


def graded_commutative(mp):
    # the wedge tensor in the structure tensor's [i, k, j] layout
    wedge = np.ascontiguousarray(_tables.WEDGE_TENSOR.transpose(0, 2, 1))
    everywhere(mp, cl, "_structure_cached", lambda g: wedge)


MUTANTS = (
    Mutant("one sign of _REMOVE_LEFT", "grassmann: _REMOVE_LEFT, _gamma_ops default", left_removal_sign),
    Mutant("one sign of _REMOVE_RIGHT", "grassmann._REMOVE_RIGHT", right_removal_sign),
    Mutant("1e-9 off-diagonal term in the right operators' metric",
           "grassmann._right_gamma_ops_cached", right_metric_term),
    Mutant("one REVERSION_SIGN entry", "clifford.REVERSION_SIGN", reversion_sign),
    Mutant("one WEDGE_SIGN entry", "_kernels._WEDGE_MATRIX", wedge_sign),
    Mutant("one generator x (1 + 1e-9), diagonal route", "isomorphisms.dirac_matrices",
           diagonal_generator_scale),
    Mutant("one entry of the blade-basis inverse + 1e-9", "isomorphisms._matrix_basis_cached",
           basis_inverse_entry),
    Mutant("one compound minor's sign", "_kernels.compound16", compound_minor_sign),
    Mutant("lift scaled by det^(-0.2501)", "transforms._lift_stack", lift_determinant,
           Tier1("tests/test_transforms.py::test_lift_random_lorentz_residuals",
                 "every check judges conjugations, in which the lift's scale cancels",
                 lambda: test_transforms.test_lift_random_lorentz_residuals(MINK, BASIS, seeded()))),
    Mutant("parity block chosen inverted", "transforms._gate", parity_block),
    Mutant("A read transposed in the substitution", "transforms._substituted", transposed_substitution),
    Mutant("grade 3 built as the ordered product", "clifford._blade_products", ordered_grade_3),
    Mutant("null vector times sigma^GRADE, not divided", "transforms._lift_system_cached",
           null_vector_times_sigma),
    Mutant("star scaled by |det g|^(-1/4)", "grassmann._hodge_matrix_cached", star_scale),
    Mutant("one _COMPLEMENT sign", "grassmann._COMPLEMENT", complement_sign),
    Mutant("1e-9 symmetric part in the Lorentz generator", "transforms._expm", lorentz_symmetric_part),
    Mutant("one Pade coefficient off in its 15th digit", "transforms._PADE13", pade_coefficient,
           Tier1("tests/test_reports.py::test_report_matches_fixture",
                 "the maps stay isometries to rounding; only residuals' last bits move",
                 lambda: test_reports.test_report_matches_fixture("default",
                                                                  test_reports.load_fixture()))),
    Mutant("eigenvalue cluster tolerance 1e-9 -> 1e-3", "dirac._CLUSTER_TOL", cluster_tolerance,
           Tier1("tests/test_dirac.py::test_mismatched_mass_gives_empty_space",
                 "no draw of the dirac checks puts an eigenvalue within 1e-3 of the mass",
                 lambda: test_dirac.test_mismatched_mass_gives_empty_space(BASIS))),
    Mutant("an action that conjugates whatever the map", "transforms._gl4_operator", conjugating_action),
    Mutant("a conjugation system with a planted null vector", "transforms.conjugation_system",
           planted_null_vector),
    Mutant("a graded-commutative structure tensor", "clifford._structure_cached", graded_commutative),
)


def clear_caches():
    for cache in PER_METRIC_CACHES:
        cache.cache_clear()


def statuses(mutant: Mutant | None, metric: gr.Metric) -> dict[str, str]:
    """Each check's status on ``metric`` under ``mutant`` (None: the library as it is)."""
    names = [f"{c.suite}.{c.name}" for c in CHECKS]
    clear_caches()
    try:
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            # a user's run prints numpy's warnings and goes on; so does this one
            warnings.simplefilter("ignore", RuntimeWarning)
            if mutant:
                mutant.plant(mp)
            try:
                ctx = SuiteContext(metric)
            except Exception:
                return dict.fromkeys(names, RAISED)
            row = {}
            for name, check in zip(names, CHECKS):
                try:
                    row[name] = _run(check, ctx).status
                except Exception:
                    row[name] = RAISED
            return row
    finally:
        clear_caches()


@pytest.fixture(scope="module")
def kill_table():
    """{mutant name or None: {metric: {check: status}}}, printed as a table."""
    table = {m and m.name: {label: statuses(m, g) for label, g in METRICS.items()}
             for m in (None, *MUTANTS)}
    print("\n" + render(table))
    return table


def render(table) -> str:
    """Rows are checks, columns mutants; each cell is η then non-diagonal:
    F a FAIL, . a pass, R raised.  The last column lists the mutants that the
    check alone kills."""
    checks = list(table[None]["η"])
    killers = {m.name: {c for c in checks if FAIL in (table[m.name][k][c] for k in METRICS)}
               for m in MUTANTS}
    width = max(map(len, checks))
    lines = [f"{i + 1:>3}  {m.name}  ({m.where})" for i, m in enumerate(MUTANTS)]
    lines.append(" " * width + "  " + " ".join(f"{i + 1:>2}" for i in range(len(MUTANTS))) + "  unique")
    for c in checks:
        cells = " ".join(CELL[table[m.name]["η"][c]] + CELL[table[m.name]["non-diagonal"][c]]
                         for m in MUTANTS)
        unique = [str(i + 1) for i, m in enumerate(MUTANTS) if killers[m.name] == {c}]
        lines.append(f"{c:<{width}}  {cells}  {','.join(unique) or '-'}")
    return "\n".join(lines)


def test_unmutated_library_passes_every_check(kill_table):
    for label in METRICS:
        assert {c: s for c, s in kill_table[None][label].items() if s != PASS} == {}, label


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.plant.__name__)
def test_every_mutant_is_killed(mutant, kill_table):
    fails = [c for label in METRICS for c, s in kill_table[mutant.name][label].items() if s == FAIL]
    if mutant.tier1 is None:
        assert fails, f"no check fails under {mutant.name!r}"
        return
    # verify cannot see it; the named Tier-1 test must
    clear_caches()
    try:
        with pytest.MonkeyPatch.context() as mp, pytest.raises((AssertionError, pytest.fail.Exception)):
            mutant.plant(mp)
            mutant.tier1.run()
    finally:
        clear_caches()
