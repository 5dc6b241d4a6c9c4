"""Named verification suites driven by the CLI.

Each suite is a list of checks with fixed default sample counts and
tolerances.  Checks draw their randomness from a child generator seeded by the
run seed and the check name, so a fixed configuration reproduces identical
reports.  Where a check validates an implementation route, the comparison
values come from an independent route (direct formulas, matrix
representations, singular value decompositions) rather than from the code
path under test.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass

import numpy as np

from . import clifford as cl
from . import dirac as dr
from . import grassmann as gr
from . import isomorphisms as iso
from . import transforms as tr
from ._tables import BLADE_BITS, GRADE, NBLADES
from .errors import DegenerateMetric
from .report import FAIL, PASS, CheckResult


@dataclass
class SuiteContext:
    metric: gr.Metric
    seed: int = 0
    samples: int | None = None  # overrides per-check sample counts when set
    tol: float | None = None  # overrides per-check tolerances when set

    def rng(self, name: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(name.encode())])

    def n(self, default: int) -> int:
        return self.samples if self.samples is not None else default

    def tolerance(self, default: float) -> float:
        return self.tol if self.tol is not None else default

    def basis(self) -> iso.GammaBasis:
        return iso.dirac_matrices(self.metric)


def _result(suite, name, ok, residual=None, samples=0, detail="", inputs=None):
    return CheckResult(suite, name, PASS if ok else FAIL, residual=residual, samples=samples,
                       detail=detail, inputs=inputs)


def _random_metric(rng: np.random.Generator) -> gr.Metric:
    while True:
        m = rng.uniform(-2.0, 2.0, size=(4, 4))
        m = (m + m.T) / 2.0
        if abs(np.linalg.det(m)) >= 1e-6:
            return gr.Metric(m)


def _random_element(rng: np.random.Generator) -> np.ndarray:
    return rng.normal(size=NBLADES) + 1j * rng.normal(size=NBLADES)


def _random_matrix(rng: np.random.Generator) -> np.ndarray:
    return rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))


# ---------------------------------------------------------------------------
# grassmann


def _check_generator_anticommutator(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("grassmann.anticommutator")
    n = ctx.n(200)
    tol = ctx.tolerance(1e-12)
    eye = np.eye(NBLADES)
    worst, worst_g = 0.0, None
    metrics = [ctx.metric, gr.minkowski()] + [_random_metric(rng) for _ in range(n)]
    for g in metrics:
        ops = [gr.gamma_op(i, g) for i in range(4)]
        for mu in range(4):
            for nu in range(4):
                err = float(np.abs(ops[mu] @ ops[nu] + ops[nu] @ ops[mu]
                                   - 2.0 * g.g[mu, nu] * eye).max())
                if err > worst:
                    worst, worst_g = err, g
    ok = worst < tol
    inputs = None if ok else {"metric": worst_g.g.tolist()}
    return _result("grassmann", "generator_anticommutator", ok, worst,
                   len(metrics), f"tol {tol:g}", inputs)


def _check_wedge_associativity(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("grassmann.wedge_assoc")
    n = ctx.n(100)
    tol = ctx.tolerance(1e-12)
    worst = 0.0
    for _ in range(n):
        a, b, c = (gr.GrassmannElement(_random_element(rng)) for _ in range(3))
        lhs = gr.wedge(gr.wedge(a, b), c)
        rhs = gr.wedge(a, gr.wedge(b, c))
        worst = max(worst, float(np.abs(lhs.coeffs - rhs.coeffs).max()))
    return _result("grassmann", "wedge_associativity", worst < tol, worst, n, f"tol {tol:g}")


def _check_grade_shift(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("grassmann.grade_shift")
    g = ctx.metric
    bad = 0
    for k in range(5):
        for _ in range(10):
            coeffs = np.where(GRADE == k, _random_element(rng), 0)
            omega = gr.GrassmannElement(coeffs)
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            up = gr.delta(v, omega)
            down = gr.delta_star(v, omega, g)
            if up.norm() > 1e-12 and up.grades(1e-13) != (k + 1,):
                bad += 1
            if down.norm() > 1e-12 and down.grades(1e-13) != (k - 1,):
                bad += 1
    return _result("grassmann", "grade_shift", bad == 0, float(bad), 50,
                   "raising/lowering exact on homogeneous input")


def _check_hodge_bijection(ctx: SuiteContext) -> CheckResult:
    h = gr.hodge_matrix(ctx.metric)
    rank = int(np.linalg.matrix_rank(h))
    scalars = gr.star_star_scalars(ctx.metric)
    detail = "double star per grade: " + ", ".join(f"{s:+.6g}" for s in scalars)
    return _result("grassmann", "hodge_bijection", rank == NBLADES, float(rank), NBLADES, detail)


def _check_contraction_vs_vee(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("grassmann.vee")
    n = ctx.n(50)
    tol = ctx.tolerance(1e-10)
    g = ctx.metric
    table = gr.contraction_vs_vee_table(g)
    worst = 0.0
    for _ in range(n):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        omega = gr.GrassmannElement(_random_element(rng))
        lhs = gr.delta_star(v, omega, g)
        # the dual product of the grade-k part lands in grade k-1; rescale piecewise
        rhs = gr.GrassmannElement.zero()
        for k in range(1, 5):
            rhs = rhs + table[k] * gr.vee(
                gr.GrassmannElement.from_vector(v), omega.grade_project(k), g)
        worst = max(worst, float(np.abs(lhs.coeffs - rhs.coeffs).max()))
    detail = "ratio per grade: " + ", ".join(f"{s:+.6g}" for s in table[1:])
    return _result("grassmann", "contraction_vs_vee_stable", worst < tol, worst, n, detail)


def _check_left_right_commutation(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("grassmann.left_right")
    tol = ctx.tolerance(1e-12)
    worst = 0.0
    metrics = [ctx.metric] + [_random_metric(rng) for _ in range(10)]
    for g in metrics:
        for mu in range(4):
            left = gr.gamma_op(mu, g)
            for nu in range(4):
                right = gr.right_gamma_op(nu, g)
                worst = max(worst, float(np.abs(left @ right - right @ left).max()))
    return _result("grassmann", "left_right_commutation", worst < tol, worst,
                   len(metrics) * 16, f"tol {tol:g}")


# ---------------------------------------------------------------------------
# clifford


def _check_product_associativity(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("clifford.assoc")
    n = ctx.n(100)
    tol = ctx.tolerance(1e-11)
    worst, worst_g = 0.0, None
    for i in range(n):
        g = ctx.metric if i == 0 else _random_metric(rng)
        a, b, c = (cl.CliffordElement(_random_element(rng)) for _ in range(3))
        lhs = cl.geometric_product(cl.geometric_product(a, b, g), c, g)
        rhs = cl.geometric_product(a, cl.geometric_product(b, c, g), g)
        err = float(np.abs(lhs.coeffs - rhs.coeffs).max())
        if err > worst:
            worst, worst_g = err, g
    ok = worst < tol
    inputs = None if ok else {"metric": worst_g.g.tolist()}
    return _result("clifford", "product_associativity", ok, worst, n, f"tol {tol:g}", inputs)


def _check_product_anticommutator(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("clifford.anticommutator")
    n = ctx.n(50)
    tol = ctx.tolerance(1e-12)
    worst = 0.0
    unit = np.zeros(NBLADES)
    unit[0] = 1.0
    for i in range(n):
        g = ctx.metric if i == 0 else _random_metric(rng)
        for mu in range(4):
            for nu in range(4):
                a = cl.CliffordElement.generator(mu)
                b = cl.CliffordElement.generator(nu)
                ac = cl.geometric_product(a, b, g) + cl.geometric_product(b, a, g)
                worst = max(worst, float(np.abs(ac.coeffs - 2 * g.g[mu, nu] * unit).max()))
    return _result("clifford", "generator_anticommutator", worst < tol, worst, n, f"tol {tol:g}")


def _check_product_table_vs_matrices(ctx: SuiteContext) -> CheckResult:
    tol = ctx.tolerance(1e-12)
    mink = gr.minkowski()
    basis = iso.dirac_matrices(mink)
    blades = iso.gamma_blade_matrices(basis)
    worst = 0.0
    for i in range(NBLADES):
        for j in range(NBLADES):
            via_ops = cl.geometric_product(
                cl.CliffordElement.basis_blade(i), cl.CliffordElement.basis_blade(j), mink)
            via_mat = iso.matrix_to_clifford(blades[i] @ blades[j], basis)
            worst = max(worst, float(np.abs(via_ops.coeffs - via_mat.coeffs).max()))
    return _result("clifford", "product_table_vs_matrix_rep", worst < tol, worst,
                   NBLADES * NBLADES, "independent 4x4 matrix route")


def _check_reversion(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("clifford.reversion")
    n = ctx.n(50)
    tol = ctx.tolerance(1e-11)
    g = ctx.metric
    worst = 0.0
    for _ in range(n):
        a = cl.CliffordElement(_random_element(rng))
        b = cl.CliffordElement(_random_element(rng))
        lhs = cl.reversion(cl.geometric_product(a, b, g))
        rhs = cl.geometric_product(cl.reversion(b), cl.reversion(a), g)
        worst = max(worst, float(np.abs(lhs.coeffs - rhs.coeffs).max()))
    return _result("clifford", "reversion_antiautomorphism", worst < tol, worst, n, f"tol {tol:g}")


def _check_even_closure(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("clifford.even")
    n = ctx.n(50)
    tol = ctx.tolerance(1e-12)
    g = ctx.metric
    worst = 0.0
    for _ in range(n):
        a = cl.even_part(cl.CliffordElement(_random_element(rng)))
        b = cl.even_part(cl.CliffordElement(_random_element(rng)))
        prod = cl.geometric_product(a, b, g)
        worst = max(worst, cl.odd_part(prod).norm())
    return _result("clifford", "even_subalgebra_closure", worst < tol, worst, n, f"tol {tol:g}")


# ---------------------------------------------------------------------------
# iso


def _check_roundtrip(ctx: SuiteContext) -> CheckResult:
    worst = 0.0
    for b in range(NBLADES):
        omega = gr.GrassmannElement.blade(b)
        back = iso.to_grassmann(iso.to_clifford(omega))
        worst = max(worst, float(np.abs(back.coeffs - omega.coeffs).max()))
    return _result("iso", "canonical_map_roundtrip", worst == 0.0, worst, NBLADES,
                   "coefficientwise identity on all blades")


def _check_left_intertwining(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("iso.left")
    n = ctx.n(100)
    tol = ctx.tolerance(1e-11)
    g = ctx.metric
    worst = 0.0
    for _ in range(n):
        L = cl.CliffordElement(_random_element(rng))
        M = cl.CliffordElement(_random_element(rng))
        lhs = cl.geometric_product(L, M, g).coeffs
        rhs = iso.left_rep(L, g) @ M.coeffs
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return _result("iso", "left_multiplication_intertwining", worst < tol, worst, n, f"tol {tol:g}")


def _check_left_right_intertwining(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("iso.lmr")
    n = ctx.n(100)
    tol = ctx.tolerance(1e-11)
    g = ctx.metric
    worst = 0.0
    for _ in range(n):
        L = cl.CliffordElement(_random_element(rng))
        M = cl.CliffordElement(_random_element(rng))
        R = cl.CliffordElement(_random_element(rng))
        lmr = cl.geometric_product(cl.geometric_product(L, M, g), R, g).coeffs
        rhs = iso.left_rep(L, g) @ (iso.right_rep(R, g) @ M.coeffs)
        worst = max(worst, float(np.abs(lmr - rhs).max()))
    return _result("iso", "two_sided_intertwining", worst < tol, worst, n, f"tol {tol:g}")


def _check_left_right_commute(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("iso.commute")
    n = ctx.n(50)
    tol = ctx.tolerance(1e-11)
    g = ctx.metric
    worst = 0.0
    for _ in range(n):
        a = iso.left_rep(cl.CliffordElement(_random_element(rng)), g)
        b = iso.right_rep(cl.CliffordElement(_random_element(rng)), g)
        worst = max(worst, float(np.abs(a @ b - b @ a).max()))
    return _result("iso", "left_right_images_commute", worst < tol, worst, n, f"tol {tol:g}")


def _check_matrix_rep(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("iso.matrixrep")
    n = ctx.n(100)
    tol = ctx.tolerance(1e-11)
    g = ctx.metric
    basis = ctx.basis()
    blades = iso.gamma_blade_matrices(basis)
    rank = np.linalg.matrix_rank(blades.reshape(NBLADES, 16))
    worst = 0.0
    for _ in range(n):
        a = cl.CliffordElement(_random_element(rng))
        b = cl.CliffordElement(_random_element(rng))
        lhs = iso.clifford_to_matrix(cl.geometric_product(a, b, g), basis)
        rhs = iso.clifford_to_matrix(a, basis) @ iso.clifford_to_matrix(b, basis)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    ok = worst < tol and rank == NBLADES
    return _result("iso", "matrix_representation", ok, worst, n,
                   f"basis rank {rank}/16, tol {tol:g}")


def _check_matrix_wedge(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("iso.matrixwedge")
    n = ctx.n(50)
    tol = ctx.tolerance(1e-11)
    basis = ctx.basis()
    worst = 0.0
    eye = np.eye(4)
    gam = basis.gammas
    for mu in range(4):
        worst = max(worst, float(np.abs(iso.matrix_wedge(gam[mu], gam[mu], basis)).max()))
        for nu in range(mu + 1, 4):
            lhs = iso.matrix_wedge(gam[mu], gam[nu], basis)
            commutator = (gam[mu] @ gam[nu] - gam[nu] @ gam[mu]) / 2.0
            worst = max(worst, float(np.abs(lhs - commutator).max()))
    for _ in range(n):
        m = _random_matrix(rng)
        worst = max(worst, float(np.abs(iso.matrix_wedge(eye, m, basis) - m).max()))
        a, b, c = (_random_matrix(rng) for _ in range(3))
        lhs = iso.matrix_wedge(iso.matrix_wedge(a, b, basis), c, basis)
        rhs = iso.matrix_wedge(a, iso.matrix_wedge(b, c, basis), basis)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return _result("iso", "matrix_wedge_rules", worst < tol, worst, n,
                   "nilpotent generators, unit law, associativity")


def _check_gamma_basis_factorization(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("iso.factorization")
    n = ctx.n(20)
    tol = ctx.tolerance(1e-11)
    mink = gr.minkowski()
    worst = 0.0
    for _ in range(n):
        a = tr.random_lorentz(rng, mink) @ (np.eye(4) + 0.2 * rng.normal(size=(4, 4)))
        try:
            g = tr.metric_pullback(a, mink)
        except DegenerateMetric:
            continue
        basis = iso.dirac_matrices(g)
        worst = max(worst, iso.anticommutator_defect(basis))
    return _result("iso", "gamma_basis_factorization", worst < tol, worst, n,
                   "random Lorentz-signature metrics")


# ---------------------------------------------------------------------------
# transforms


def _check_substitution_metric(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("transforms.substitution")
    n = ctx.n(30)
    tol = ctx.tolerance(1e-11)
    basis = ctx.basis()
    worst = 0.0
    for _ in range(n):
        try:
            newb = tr.substitute_gammas(rng.normal(size=(4, 4)), basis)
        except DegenerateMetric:
            continue  # on a metric with small |det g| some pullbacks fall below det_tol
        worst = max(worst, iso.anticommutator_defect(newb))
    return _result("transforms", "substitution_matches_pullback", worst < tol, worst, n,
                   f"tol {tol:g}")


def _check_spin_lift(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("transforms.lift")
    n = ctx.n(50)
    tol = ctx.tolerance(1e-10)
    g = ctx.metric
    basis = ctx.basis()
    maps = [tr.random_lorentz(rng, g) for _ in range(n)]
    if g == gr.minkowski():
        maps += [tr.parity_matrix(), tr.time_reversal_matrix()]
    worst, worst_a = 0.0, None
    for a in maps:
        sigma = tr.spin_lift(a, basis)
        if sigma.residual > worst:
            worst, worst_a = sigma.residual, a
    ok = worst < tol
    inputs = None if ok else {"A": np.asarray(worst_a).tolist()}
    return _result("transforms", "spin_lift_conjugates_generators", ok, worst,
                   len(maps), f"tol {tol:g}", inputs)


def _check_lift_projective(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("transforms.projective")
    n = ctx.n(30)
    tol = ctx.tolerance(1e-10)
    g = ctx.metric
    basis = ctx.basis()
    worst = 0.0
    for _ in range(n):
        a, b = tr.random_lorentz(rng, g), tr.random_lorentz(rng, g)
        sa, sb, sab = tr.spin_lift(a, basis), tr.spin_lift(b, basis), tr.spin_lift(a @ b, basis)
        prod = sa.matrix @ sb.matrix
        pinv = np.linalg.inv(prod)
        for mu in range(4):
            diff = prod @ basis.gammas[mu] @ pinv - sab.matrix @ basis.gammas[mu] @ sab.inverse_matrix
            worst = max(worst, float(np.abs(diff).max()))
    return _result("transforms", "lift_projective_homomorphism", worst < tol, worst, n,
                   "conjugations compared, not the elements")


def _check_no_lift_for_non_isometry(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("transforms.nolift")
    n = ctx.n(30)
    basis = ctx.basis()
    g = ctx.metric
    smallest = np.inf
    for _ in range(n):
        a = tr.random_invertible_non_isometry(rng, g)
        svals = tr.conjugation_singular_values(a, basis)
        smallest = min(smallest, float(svals[-1]))
    return _result("transforms", "no_lift_for_non_isometries", smallest > 1e-6,
                   smallest, n, "smallest normalized singular value must stay > 1e-6")


def _check_pushforward(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("transforms.pushforward")
    n = ctx.n(30)
    tol = ctx.tolerance(1e-10)
    worst = 0.0
    grade1 = [1, 2, 4, 8]
    for _ in range(n):
        a = rng.normal(size=(4, 4))
        p = tr.exterior_pushforward(a)
        if not np.array_equal(p[np.ix_(grade1, grade1)], a):
            worst = max(worst, float(np.abs(p[np.ix_(grade1, grade1)] - a).max()))
        worst = max(worst, abs(p[NBLADES - 1, NBLADES - 1] - np.linalg.det(a)))
        # independent oracle: every block entry is a minor determinant
        for out_b in range(NBLADES):
            for in_b in range(NBLADES):
                if GRADE[out_b] != GRADE[in_b]:
                    worst = max(worst, abs(p[out_b, in_b]))
                    continue
                rows, colsel = BLADE_BITS[out_b], BLADE_BITS[in_b]
                minor = 1.0 if not rows else np.linalg.det(a[np.ix_(rows, colsel)])
                worst = max(worst, abs(p[out_b, in_b] - minor))
        b = rng.normal(size=(4, 4))
        worst = max(worst, float(np.abs(
            tr.exterior_pushforward(a @ b) - p @ tr.exterior_pushforward(b)).max()))
    return _result("transforms", "pushforward_blocks_and_functoriality", worst < tol,
                   worst, n, "minor-determinant oracle")


def _check_gl4_invertibility(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("transforms.gl4inv")
    n = ctx.n(20)
    tol = ctx.tolerance(1e-10)
    basis = ctx.basis()
    worst = 0.0
    for _ in range(n):
        a = tr.random_invertible_non_isometry(rng, ctx.metric, min_defect=0.0)
        act, act_inv = tr.gl4_on_matrices(a, basis), tr.gl4_on_matrices(np.linalg.inv(a), basis)
        m = _random_matrix(rng)
        worst = max(worst, float(np.abs(act(act_inv(m)) - m).max()))
    return _result("transforms", "gl4_action_invertible", worst < tol, worst, n, f"tol {tol:g}")


# ---------------------------------------------------------------------------
# proposition


def _check_proposition_isometry(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("proposition.isometry")
    n = ctx.n(50)
    tol = ctx.tolerance(1e-10)
    g = ctx.metric
    basis = ctx.basis()
    blades = iso.gamma_blade_matrices(basis)
    worst, worst_a = 0.0, None
    for i in range(n):
        a = tr.random_lorentz(rng, g)
        if i % 3 == 2:
            a = -a  # opposite branch of the special orthogonal group
        err = tr.transport_residual(a, basis, blades)
        if err > worst:
            worst, worst_a = err, a
    ok = worst < tol
    inputs = None if ok else {"A": np.asarray(worst_a).tolist()}
    return _result("proposition", "exterior_transport_equals_conjugation", ok, worst,
                   n, "all 16 basis blades per map", inputs)


def _check_proposition_non_isometry(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("proposition.noniso")
    n = ctx.n(30)
    tol = ctx.tolerance(1e-10)
    g = ctx.metric
    basis = ctx.basis()
    worst_hom = 0.0
    smallest_sv = np.inf
    for _ in range(n):
        a = tr.random_invertible_non_isometry(rng, g)
        svals = tr.conjugation_singular_values(a, basis)
        smallest_sv = min(smallest_sv, float(svals[-1]))
        b = tr.random_invertible_non_isometry(rng, g)
        lhs = tr.gl4_on_matrices(a @ b, basis)
        act_a, act_b = tr.gl4_on_matrices(a, basis), tr.gl4_on_matrices(b, basis)
        m = _random_matrix(rng)
        worst_hom = max(worst_hom, float(np.abs(lhs(m) - act_a(act_b(m))).max()))
    ok = worst_hom < tol and smallest_sv > 1e-6
    detail = f"homomorphism residual with no conjugating element (min sv {smallest_sv:.3e})"
    return _result("proposition", "non_isometry_still_homomorphism", ok, worst_hom, n, detail)


def _check_grade_preservation(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("proposition.grades")
    tol = ctx.tolerance(1e-11)
    g = ctx.metric
    basis = ctx.basis()
    sigma = tr.spin_lift(tr.random_lorentz(rng, g), basis)
    lift_leak = tr.grade_leakage(sigma.matrix, basis)
    probe_coeffs = np.zeros(NBLADES, dtype=np.complex128)
    probe_coeffs[0] = 1.0
    probe_coeffs[NBLADES - 1] = 0.5 + 0.25j
    probe = iso.clifford_to_matrix(cl.CliffordElement(probe_coeffs), basis)
    probe_leak = tr.grade_leakage(probe, basis)
    ok = sigma.residual < 1e-8 and lift_leak < tol and probe_leak > tol
    detail = f"lift leak {lift_leak:.3e}; generic even element leak {probe_leak:.3e}"
    return _result("proposition", "conjugation_preserves_grades_only_for_lifts", ok,
                   lift_leak, NBLADES * 2, detail)


# ---------------------------------------------------------------------------
# dirac


def _null_space_dimension(m: np.ndarray, rel_tol: float = 1e-8) -> int:
    svals = np.linalg.svd(m, compute_uv=False)
    scale = max(float(svals[0]), 1.0)
    return int(np.count_nonzero(svals <= rel_tol * scale))


def _random_massive_exponent(rng, g: gr.Metric, m: complex) -> np.ndarray:
    while True:
        lam = rng.normal(size=4) + 1j * rng.normal(size=4)
        q = g.inner(lam, lam)
        if abs(q) > 1e-3:
            return lam * (m / np.sqrt(q))


def _check_symbol_square(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("dirac.square")
    n = ctx.n(50)
    tol = ctx.tolerance(1e-11)
    basis = ctx.basis()
    g = ctx.metric
    worst = 0.0
    eye = np.eye(4)
    for _ in range(n):
        lam = rng.normal(size=4) + 1j * rng.normal(size=4)
        s = dr.symbol_matrix(lam, basis)
        worst = max(worst, float(np.abs(s @ s - g.inner(lam, lam) * eye).max()))
    return _result("dirac", "symbol_squares_to_metric_norm", worst < tol, worst, n, f"tol {tol:g}")


def _check_hodge_dirac_transport(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("dirac.transport")
    n = ctx.n(50)
    tol = ctx.tolerance(1e-11)
    g = ctx.metric
    worst = 0.0
    for _ in range(n):
        lam = rng.normal(size=4) + 1j * rng.normal(size=4)
        h = dr.hodge_dirac_symbol(lam, g)
        omega = _random_element(rng)
        lhs = h @ omega
        rhs = cl.geometric_product(dr.symbol_element(lam), cl.CliffordElement(omega), g).coeffs
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return _result("dirac", "hodge_dirac_transports_to_left_multiplication", worst < tol,
                   worst, n, f"tol {tol:g}")


def _check_hodge_dirac_square(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("dirac.hsquare")
    n = ctx.n(50)
    tol = ctx.tolerance(1e-11)
    g = ctx.metric
    worst = 0.0
    eye = np.eye(NBLADES)
    for _ in range(n):
        lam = rng.normal(size=4) + 1j * rng.normal(size=4)
        h = dr.hodge_dirac_symbol(lam, g)
        worst = max(worst, float(np.abs(h @ h - g.inner(lam, lam) * eye).max()))
    return _result("dirac", "hodge_dirac_squares_to_metric_norm", worst < tol, worst, n,
                   f"tol {tol:g}")


def _check_solution_dimensions(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("dirac.dimensions")
    n = ctx.n(20)
    basis = ctx.basis()
    g = ctx.metric
    bad = 0
    for _ in range(n):
        m = rng.normal() + 1j * rng.normal()
        if abs(m) < 0.5:
            m += 0.7 * (1 if m.real >= 0 else -1)
        lam = _random_massive_exponent(rng, g, m)
        sols = dr.plane_wave_solutions(lam, m, basis)
        oracle = _null_space_dimension(dr.symbol_matrix(lam, basis) - m * np.eye(4))
        if sols.column_dimension != 2 or oracle != 2:
            bad += 1
    for _ in range(n):
        m = rng.normal() + 1j * rng.normal()
        lam = rng.normal(size=4) + 1j * rng.normal(size=4)
        q = g.inner(lam, lam)
        if abs(q - m * m) < 0.1:
            lam = lam * 2.0
        sols = dr.plane_wave_solutions(lam, m, basis)
        oracle = _null_space_dimension(dr.symbol_matrix(lam, basis) - m * np.eye(4))
        if sols.column_dimension != 0 or oracle != 0:
            bad += 1
    return _result("dirac", "solution_space_dimensions", bad == 0, float(bad), 2 * n,
                   "eigenspace route validated against SVD null-space oracle")


def _check_right_closure(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("dirac.rightclosure")
    n = ctx.n(20)
    tol = ctx.tolerance(1e-11)
    basis = ctx.basis()
    g = ctx.metric
    m = 1.0 + 0.3j
    lam = _random_massive_exponent(rng, g, m)
    sols = dr.plane_wave_solutions(lam, m, basis)
    coefs = rng.normal(size=sols.dimension)
    amplitude = np.einsum("i,ijk->jk", coefs, sols.matrix_basis)
    worst = 0.0
    for _ in range(n):
        r = _random_matrix(rng)
        worst = max(worst, dr.PlaneWave(amplitude @ r, lam, m).residual(basis))
    return _result("dirac", "right_multiplication_closure", worst < tol, worst, n, f"tol {tol:g}")


def _check_covariance(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("dirac.covariance")
    n = ctx.n(20)
    tol = ctx.tolerance(1e-10)
    basis = ctx.basis()
    g = ctx.metric
    worst = 0.0
    for _ in range(5):
        m = 0.5 + rng.random() + 0.5j * rng.random()
        lam = _random_massive_exponent(rng, g, m)
        sols = dr.plane_wave_solutions(lam, m, basis)
        coefs = rng.normal(size=sols.dimension)
        wave = dr.PlaneWave(np.einsum("i,ijk->jk", coefs, sols.matrix_basis), lam, m)
        for _ in range(max(1, n // 5)):
            a = tr.random_lorentz(rng, g)
            worst = max(worst, dr.covariance_residual(a, wave, basis))
    return _result("dirac", "isometry_covariance", worst < tol, worst, n,
                   "transformed solutions stay solutions")


def _check_lmr_structure(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("dirac.lmr")
    n = ctx.n(50)
    tol = ctx.tolerance(1e-12)
    worst = 0.0
    for _ in range(n):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        alpha = rng.normal(size=4) + 1j * rng.normal(size=4)
        left = _random_matrix(rng)
        right = _random_matrix(rng)
        lhs = left @ dr.make_product_state(psi, alpha) @ right
        rhs = dr.make_product_state(left @ psi, right.T @ alpha)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return _result("dirac", "product_structure_under_two_sided_multiplication",
                   worst < tol, worst, n, f"tol {tol:g}")


def _check_lorentz_rank(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("dirac.rank")
    n = ctx.n(20)
    tol = ctx.tolerance(1e-9)
    basis = ctx.basis()
    g = ctx.metric
    worst = 0.0
    for _ in range(n):
        state = dr.ProductState(rng.normal(size=4) + 1j * rng.normal(size=4),
                                rng.normal(size=4) + 1j * rng.normal(size=4))
        a = tr.random_lorentz(rng, g)
        sv = dr.entanglement_probe(a, state, basis)
        worst = max(worst, float(sv[1] / sv[0]))
    return _result("dirac", "isometries_preserve_rank_one", worst < tol, worst, n,
                   "second/first singular value ratio")


def _check_entanglement_exhibit(ctx: SuiteContext) -> CheckResult:
    rng = ctx.rng("dirac.entangle")
    n = ctx.n(20)
    basis = ctx.basis()
    best = 0.0
    e0 = np.eye(4)[0].astype(complex)
    sv = dr.entanglement_probe(np.diag([1.0, 2.0, 3.0, 4.0]), dr.ProductState(e0, e0), basis)
    best = float(sv[1] / sv[0]) if sv[0] > 0 else 0.0
    for _ in range(n):
        a = tr.random_invertible_non_isometry(rng, ctx.metric)
        state = dr.ProductState(rng.normal(size=4) + 1j * rng.normal(size=4),
                                rng.normal(size=4) + 1j * rng.normal(size=4))
        sv = dr.entanglement_probe(a, state, basis)
        if sv[0] > 0:
            best = max(best, float(sv[1] / sv[0]))
    return _result("dirac", "generic_map_mixes_product_states", best > 1e-3, best,
                   n + 1, "largest second/first singular value ratio found")


# ---------------------------------------------------------------------------

SUITES: dict[str, list] = {
    "clifford": [
        _check_product_associativity,
        _check_product_anticommutator,
        _check_product_table_vs_matrices,
        _check_reversion,
        _check_even_closure,
    ],
    "dirac": [
        _check_symbol_square,
        _check_hodge_dirac_transport,
        _check_hodge_dirac_square,
        _check_solution_dimensions,
        _check_right_closure,
        _check_covariance,
        _check_lmr_structure,
        _check_lorentz_rank,
        _check_entanglement_exhibit,
    ],
    "grassmann": [
        _check_generator_anticommutator,
        _check_wedge_associativity,
        _check_grade_shift,
        _check_hodge_bijection,
        _check_contraction_vs_vee,
        _check_left_right_commutation,
    ],
    "iso": [
        _check_roundtrip,
        _check_left_intertwining,
        _check_left_right_intertwining,
        _check_left_right_commute,
        _check_matrix_rep,
        _check_matrix_wedge,
        _check_gamma_basis_factorization,
    ],
    "proposition": [
        _check_proposition_isometry,
        _check_proposition_non_isometry,
        _check_grade_preservation,
    ],
    "transforms": [
        _check_substitution_metric,
        _check_spin_lift,
        _check_lift_projective,
        _check_no_lift_for_non_isometry,
        _check_pushforward,
        _check_gl4_invertibility,
    ],
}

SUITE_NAMES = tuple(sorted(SUITES))


def run_suite(name: str, ctx: SuiteContext) -> list[CheckResult]:
    """Run one suite and return its timed check results."""
    results = []
    for check in SUITES[name]:
        t0 = time.perf_counter()
        result = check(ctx)
        result.elapsed = time.perf_counter() - t0
        results.append(result)
    return results
