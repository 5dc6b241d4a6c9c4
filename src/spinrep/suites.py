"""Named verification suites driven by the CLI.

Every check is one :class:`Check` declaration, and :func:`run_suite` is the
one runner that turns a declaration into a :class:`~spinrep.report.CheckResult`.
A declaration holds:

* ``suite`` and ``name``, which label the result in the report;
* ``key``, the name of the check's random stream: the check draws from a
  generator seeded by the run seed and the key, so a fixed configuration
  reproduces identical reports (``None`` for a check that draws nothing);
* ``samples``, the default sample count, which ``--samples`` replaces
  (``None`` where the sample set is fixed and ``--samples`` does not apply);
* ``tol``, the default tolerance, which ``--tol`` replaces (``None`` where no
  tolerance applies: a residual check then requires an exact zero);
* ``trials(ctx, rng, n)``, which draws the samples from ``rng`` one after
  another and yields one residual per sample judged; a sample it cannot
  judge, such as a degenerate draw, yields nothing;
* ``detail``, a fixed string or a function of the context; empty means
  ``tol <tolerance>``;
* ``inputs``, the report key (``metric`` or ``A``) of the input each trial
  yields with its residual; a failing check records the worst one;
* ``body(ctx, rng, n, tol)`` in place of ``trials``, for the checks that are
  not judged by their worst residual against a tolerance; it returns the
  verdict, residual, sample count and detail itself.

The runner's verdict for a residual check: it passes when every residual is
finite and the worst is below the tolerance.  A non-finite residual fails the
check, whatever the tolerance; the report then writes the residual as
``null`` and says so in the detail.  The sample count reported is the number
of residuals judged.  Where a check validates an implementation route, the
comparison values come from an independent route (direct formulas, matrix
representations, singular value decompositions) rather than from the code
path under test.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from . import clifford as cl
from . import dirac as dr
from . import grassmann as gr
from . import isomorphisms as iso
from . import transforms as tr
from ._tables import BLADE_BITS, GRADE, NBLADES, TOP
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


@dataclass(frozen=True)
class Check:
    """One verification check; see the module docstring for the fields."""

    suite: str
    name: str
    key: str | None
    samples: int | None
    tol: float | None
    trials: Callable[..., Iterator[Any]] | None = None
    detail: str | Callable[[SuiteContext], str] = ""
    inputs: str | None = None
    body: Callable[..., tuple[bool, float, int, str]] | None = None


def _maxabs(x) -> float:
    return float(np.abs(x).max())


def _random_metric(rng: np.random.Generator) -> gr.Metric:
    while True:
        m = rng.uniform(-2.0, 2.0, size=(4, 4))
        m = (m + m.T) / 2.0
        if abs(np.linalg.det(m)) >= 1e-6:
            return gr.Metric(m)


def _random_element(rng: np.random.Generator) -> np.ndarray:
    return rng.normal(size=NBLADES) + 1j * rng.normal(size=NBLADES)


def _random_vector(rng: np.random.Generator) -> np.ndarray:
    return rng.normal(size=4) + 1j * rng.normal(size=4)


def _random_matrix(rng: np.random.Generator) -> np.ndarray:
    return rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))


# ---------------------------------------------------------------------------
# grassmann


def _generator_anticommutator(ctx, rng, n):
    eye = np.eye(NBLADES)
    for g in [ctx.metric, gr.minkowski()] + [_random_metric(rng) for _ in range(n)]:
        ops = [gr.gamma_op(i, g) for i in range(4)]
        yield _maxabs([ops[mu] @ ops[nu] + ops[nu] @ ops[mu] - 2.0 * g.g[mu, nu] * eye
                       for mu in range(4) for nu in range(4)]), g.g


def _wedge_associativity(ctx, rng, n):
    for _ in range(n):
        a, b, c = (gr.GrassmannElement(_random_element(rng)) for _ in range(3))
        yield _maxabs(gr.wedge(gr.wedge(a, b), c).coeffs - gr.wedge(a, gr.wedge(b, c)).coeffs)


def _grade_shift(ctx, rng, n, tol):
    bad = 0
    for k in range(5):
        for _ in range(10):
            omega = gr.GrassmannElement(np.where(GRADE == k, _random_element(rng), 0))
            v = _random_vector(rng)
            up = gr.delta(v, omega)
            down = gr.delta_star(v, omega, ctx.metric)
            if up.norm() > 1e-12 and up.grades(1e-13) != (k + 1,):
                bad += 1
            if down.norm() > 1e-12 and down.grades(1e-13) != (k - 1,):
                bad += 1
    return bad == 0, float(bad), 50, "raising/lowering exact on homogeneous input"


def _hodge_bijection(ctx, rng, n, tol):
    rank = int(np.linalg.matrix_rank(gr.hodge_matrix(ctx.metric)))
    scalars = gr.star_star_scalars(ctx.metric)
    detail = "double star per grade: " + ", ".join(f"{s:+.6g}" for s in scalars)
    return rank == NBLADES, float(rank), NBLADES, detail


def _contraction_vs_vee(ctx, rng, n):
    g = ctx.metric
    table = gr.contraction_vs_vee_table(g)
    for _ in range(n):
        v = _random_vector(rng)
        omega = gr.GrassmannElement(_random_element(rng))
        lhs = gr.delta_star(v, omega, g)
        # the dual product of the grade-k part lands in grade k-1; rescale piecewise
        rhs = gr.GrassmannElement.zero()
        for k in range(1, 5):
            rhs = rhs + table[k] * gr.vee(
                gr.GrassmannElement.from_vector(v), omega.grade_project(k), g)
        yield _maxabs(lhs.coeffs - rhs.coeffs)


def _ratio_detail(ctx):
    table = gr.contraction_vs_vee_table(ctx.metric)
    return "ratio per grade: " + ", ".join(f"{s:+.6g}" for s in table[1:])


def _left_right_commutation(ctx, rng, n):
    for g in [ctx.metric] + [_random_metric(rng) for _ in range(10)]:
        for mu in range(4):
            left = gr.gamma_op(mu, g)
            for nu in range(4):
                right = gr.right_gamma_op(nu, g)
                yield _maxabs(left @ right - right @ left)


# ---------------------------------------------------------------------------
# clifford


def _product_associativity(ctx, rng, n):
    for i in range(n):
        g = ctx.metric if i == 0 else _random_metric(rng)
        a, b, c = (cl.CliffordElement(_random_element(rng)) for _ in range(3))
        lhs = cl.geometric_product(cl.geometric_product(a, b, g), c, g)
        rhs = cl.geometric_product(a, cl.geometric_product(b, c, g), g)
        yield _maxabs(lhs.coeffs - rhs.coeffs), g.g


def _product_anticommutator(ctx, rng, n):
    unit = np.zeros(NBLADES)
    unit[0] = 1.0
    gens = [cl.CliffordElement.generator(mu) for mu in range(4)]
    for i in range(n):
        g = ctx.metric if i == 0 else _random_metric(rng)
        yield _maxabs([(cl.geometric_product(a, b, g) + cl.geometric_product(b, a, g)).coeffs
                       - 2 * g.g[mu, nu] * unit
                       for mu, a in enumerate(gens) for nu, b in enumerate(gens)])


def _product_table_vs_matrices(ctx, rng, n):
    mink = gr.minkowski()
    basis = iso.dirac_matrices(mink)
    blades = iso.gamma_blade_matrices(basis)
    for i in range(NBLADES):
        for j in range(NBLADES):
            via_ops = cl.geometric_product(
                cl.CliffordElement.basis_blade(i), cl.CliffordElement.basis_blade(j), mink)
            via_mat = iso.matrix_to_clifford(blades[i] @ blades[j], basis)
            yield _maxabs(via_ops.coeffs - via_mat.coeffs)


def _reversion(ctx, rng, n):
    g = ctx.metric
    for _ in range(n):
        a = cl.CliffordElement(_random_element(rng))
        b = cl.CliffordElement(_random_element(rng))
        lhs = cl.reversion(cl.geometric_product(a, b, g))
        rhs = cl.geometric_product(cl.reversion(b), cl.reversion(a), g)
        yield _maxabs(lhs.coeffs - rhs.coeffs)


def _even_closure(ctx, rng, n):
    for _ in range(n):
        a = cl.even_part(cl.CliffordElement(_random_element(rng)))
        b = cl.even_part(cl.CliffordElement(_random_element(rng)))
        yield cl.odd_part(cl.geometric_product(a, b, ctx.metric)).norm()


# ---------------------------------------------------------------------------
# iso


def _roundtrip(ctx, rng, n):
    for b in range(NBLADES):
        omega = gr.GrassmannElement.blade(b)
        yield _maxabs(iso.to_grassmann(iso.to_clifford(omega)).coeffs - omega.coeffs)


def _left_intertwining(ctx, rng, n):
    g = ctx.metric
    for _ in range(n):
        L = cl.CliffordElement(_random_element(rng))
        M = cl.CliffordElement(_random_element(rng))
        yield _maxabs(cl.geometric_product(L, M, g).coeffs - iso.left_rep(L, g) @ M.coeffs)


def _two_sided_intertwining(ctx, rng, n):
    g = ctx.metric
    for _ in range(n):
        L, M, R = (cl.CliffordElement(_random_element(rng)) for _ in range(3))
        lmr = cl.geometric_product(cl.geometric_product(L, M, g), R, g).coeffs
        yield _maxabs(lmr - iso.left_rep(L, g) @ (iso.right_rep(R, g) @ M.coeffs))


def _left_right_commute(ctx, rng, n):
    for _ in range(n):
        a = iso.left_rep(cl.CliffordElement(_random_element(rng)), ctx.metric)
        b = iso.right_rep(cl.CliffordElement(_random_element(rng)), ctx.metric)
        yield _maxabs(a @ b - b @ a)


def _matrix_representation(ctx, rng, n, tol):
    g = ctx.metric
    basis = ctx.basis()
    blades = iso.gamma_blade_matrices(basis)
    rank = np.linalg.matrix_rank(blades.reshape(NBLADES, 16))
    residuals = []
    for _ in range(n):
        a = cl.CliffordElement(_random_element(rng))
        b = cl.CliffordElement(_random_element(rng))
        lhs = iso.clifford_to_matrix(cl.geometric_product(a, b, g), basis)
        rhs = iso.clifford_to_matrix(a, basis) @ iso.clifford_to_matrix(b, basis)
        residuals.append(_maxabs(lhs - rhs))
    worst = _worst(residuals)[0]
    return worst < tol and rank == NBLADES, worst, n, f"basis rank {rank}/16, tol {tol:g}"


def _matrix_wedge(ctx, rng, n):
    basis = ctx.basis()
    gam = basis.gammas
    eye = np.eye(4)
    # nilpotent generators and antisymmetrised pairs draw nothing; every
    # sample's residual includes them
    rules = [iso.matrix_wedge(gam[mu], gam[mu], basis) for mu in range(4)]
    rules += [iso.matrix_wedge(gam[mu], gam[nu], basis) - (gam[mu] @ gam[nu] - gam[nu] @ gam[mu]) / 2.0
              for mu in range(4) for nu in range(mu + 1, 4)]
    fixed = _maxabs(rules)
    for _ in range(n):
        m = _random_matrix(rng)
        unit = _maxabs(iso.matrix_wedge(eye, m, basis) - m)
        a, b, c = (_random_matrix(rng) for _ in range(3))
        lhs = iso.matrix_wedge(iso.matrix_wedge(a, b, basis), c, basis)
        rhs = iso.matrix_wedge(a, iso.matrix_wedge(b, c, basis), basis)
        yield _maxabs([fixed, unit, _maxabs(lhs - rhs)])


def _gamma_basis_factorization(ctx, rng, n):
    mink = gr.minkowski()
    for _ in range(n):
        a = tr.random_lorentz(rng, mink) @ (np.eye(4) + 0.2 * rng.normal(size=(4, 4)))
        try:
            g = tr.metric_pullback(a, mink)
        except DegenerateMetric:
            continue
        yield iso.anticommutator_defect(iso.dirac_matrices(g))


# ---------------------------------------------------------------------------
# transforms


def _substitution_metric(ctx, rng, n):
    basis = ctx.basis()
    for _ in range(n):
        try:
            newb = tr.substitute_gammas(rng.normal(size=(4, 4)), basis)
        except DegenerateMetric:
            continue  # on a metric with small |det g| some pullbacks fall below det_tol
        yield iso.anticommutator_defect(newb)


def _spin_lift(ctx, rng, n):
    g = ctx.metric
    basis = ctx.basis()
    maps = [tr.random_lorentz(rng, g) for _ in range(n)]
    if g == gr.minkowski():
        maps += [tr.parity_matrix(), tr.time_reversal_matrix()]
    for a in maps:
        yield tr.spin_lift(a, basis).residual, a


def _lift_projective(ctx, rng, n):
    g = ctx.metric
    basis = ctx.basis()
    for _ in range(n):
        a, b = tr.random_lorentz(rng, g), tr.random_lorentz(rng, g)
        sa, sb, sab = tr.spin_lift(a, basis), tr.spin_lift(b, basis), tr.spin_lift(a @ b, basis)
        prod = sa.matrix @ sb.matrix
        pinv = np.linalg.inv(prod)
        yield _maxabs([prod @ gam @ pinv - sab.matrix @ gam @ sab.inverse_matrix
                       for gam in basis.gammas])


def _no_lift_for_non_isometry(ctx, rng, n, tol):
    basis = ctx.basis()
    svals = [tr.conjugation_singular_values(tr.random_invertible_non_isometry(rng, ctx.metric),
                                            basis)[-1] for _ in range(n)]
    smallest = float(np.min(svals))  # np.min keeps a NaN, min() would drop it
    return smallest > 1e-6, smallest, n, "smallest normalized singular value must stay > 1e-6"


def _pushforward(ctx, rng, n):
    for _ in range(n):
        a = rng.normal(size=(4, 4))
        p = tr.exterior_pushforward(a)
        # independent oracle: every block entry is a minor determinant (the
        # grade-1 block is a itself, the top entry det a), off-block entries vanish
        oracle = np.zeros((NBLADES, NBLADES))
        for out_b in range(NBLADES):
            for in_b in range(NBLADES):
                rows, cols = BLADE_BITS[out_b], BLADE_BITS[in_b]
                if len(rows) == len(cols):
                    oracle[out_b, in_b] = np.linalg.det(a[np.ix_(rows, cols)]) if rows else 1.0
        b = rng.normal(size=(4, 4))
        functor = tr.exterior_pushforward(a @ b) - p @ tr.exterior_pushforward(b)
        yield _maxabs([_maxabs(p - oracle), _maxabs(functor)])


def _gl4_invertibility(ctx, rng, n):
    basis = ctx.basis()
    for _ in range(n):
        a = tr.random_invertible_non_isometry(rng, ctx.metric, min_defect=0.0)
        act, act_inv = tr.gl4_on_matrices(a, basis), tr.gl4_on_matrices(np.linalg.inv(a), basis)
        m = _random_matrix(rng)
        yield _maxabs(act(act_inv(m)) - m)


# ---------------------------------------------------------------------------
# proposition


def _proposition_isometry(ctx, rng, n):
    basis = ctx.basis()
    blades = iso.gamma_blade_matrices(basis)
    for i in range(n):
        a = tr.random_lorentz(rng, ctx.metric)
        if i % 3 == 2:
            a = -a  # opposite branch of the special orthogonal group
        yield tr.transport_residual(a, basis, blades), a


def _proposition_non_isometry(ctx, rng, n, tol):
    g = ctx.metric
    basis = ctx.basis()
    svals, residuals = [], []
    for _ in range(n):
        a = tr.random_invertible_non_isometry(rng, g)
        svals.append(tr.conjugation_singular_values(a, basis)[-1])
        b = tr.random_invertible_non_isometry(rng, g)
        lhs = tr.gl4_on_matrices(a @ b, basis)
        act_a, act_b = tr.gl4_on_matrices(a, basis), tr.gl4_on_matrices(b, basis)
        m = _random_matrix(rng)
        residuals.append(_maxabs(lhs(m) - act_a(act_b(m))))
    worst = _worst(residuals)[0]
    smallest = float(np.min(svals))
    detail = f"homomorphism residual with no conjugating element (min sv {smallest:.3e})"
    return worst < tol and smallest > 1e-6, worst, n, detail


def _grade_preservation(ctx, rng, n, tol):
    basis = ctx.basis()
    sigma = tr.spin_lift(tr.random_lorentz(rng, ctx.metric), basis)
    lift_leak = tr.grade_leakage(sigma.matrix, basis)
    probe_coeffs = np.zeros(NBLADES, dtype=np.complex128)
    probe_coeffs[0] = 1.0
    probe_coeffs[TOP] = 0.5 + 0.25j
    probe = iso.clifford_to_matrix(cl.CliffordElement(probe_coeffs), basis)
    probe_leak = tr.grade_leakage(probe, basis)
    ok = sigma.residual < 1e-8 and lift_leak < tol and probe_leak > tol
    detail = f"lift leak {lift_leak:.3e}; generic even element leak {probe_leak:.3e}"
    return ok, lift_leak, NBLADES * 2, detail


# ---------------------------------------------------------------------------
# dirac


def _null_space_dimension(m: np.ndarray, rel_tol: float = 1e-8) -> int:
    svals = np.linalg.svd(m, compute_uv=False)
    scale = max(float(svals[0]), 1.0)
    return int(np.count_nonzero(svals <= rel_tol * scale))


def _random_massive_exponent(rng, g: gr.Metric, m: complex) -> np.ndarray:
    while True:
        lam = _random_vector(rng)
        q = g.inner(lam, lam)
        if abs(q) > 1e-3:
            return lam * (m / np.sqrt(q))


def _symbol_square(ctx, rng, n):
    basis = ctx.basis()
    eye = np.eye(4)
    for _ in range(n):
        lam = _random_vector(rng)
        s = dr.symbol_matrix(lam, basis)
        yield _maxabs(s @ s - ctx.metric.inner(lam, lam) * eye)


def _hodge_dirac_transport(ctx, rng, n):
    g = ctx.metric
    for _ in range(n):
        lam = _random_vector(rng)
        h = dr.hodge_dirac_symbol(lam, g)
        omega = _random_element(rng)
        rhs = cl.geometric_product(dr.symbol_element(lam), cl.CliffordElement(omega), g).coeffs
        yield _maxabs(h @ omega - rhs)


def _hodge_dirac_square(ctx, rng, n):
    g = ctx.metric
    eye = np.eye(NBLADES)
    for _ in range(n):
        lam = _random_vector(rng)
        h = dr.hodge_dirac_symbol(lam, g)
        yield _maxabs(h @ h - g.inner(lam, lam) * eye)


def _solution_dimensions(ctx, rng, n, tol):
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
        lam = _random_vector(rng)
        q = g.inner(lam, lam)
        if abs(q - m * m) < 0.1:
            lam = lam * 2.0
        sols = dr.plane_wave_solutions(lam, m, basis)
        oracle = _null_space_dimension(dr.symbol_matrix(lam, basis) - m * np.eye(4))
        if sols.column_dimension != 0 or oracle != 0:
            bad += 1
    return bad == 0, float(bad), 2 * n, "eigenspace route validated against SVD null-space oracle"


def _right_closure(ctx, rng, n):
    basis = ctx.basis()
    m = 1.0 + 0.3j
    lam = _random_massive_exponent(rng, ctx.metric, m)
    sols = dr.plane_wave_solutions(lam, m, basis)
    coefs = rng.normal(size=sols.dimension)
    amplitude = np.einsum("i,ijk->jk", coefs, sols.matrix_basis)
    for _ in range(n):
        yield dr.PlaneWave(amplitude @ _random_matrix(rng), lam, m).residual(basis)


def _covariance(ctx, rng, n):
    basis = ctx.basis()
    g = ctx.metric
    for _ in range(5):
        m = 0.5 + rng.random() + 0.5j * rng.random()
        lam = _random_massive_exponent(rng, g, m)
        sols = dr.plane_wave_solutions(lam, m, basis)
        coefs = rng.normal(size=sols.dimension)
        wave = dr.PlaneWave(np.einsum("i,ijk->jk", coefs, sols.matrix_basis), lam, m)
        for _ in range(max(1, n // 5)):
            yield dr.covariance_residual(tr.random_lorentz(rng, g), wave, basis)


def _lmr_structure(ctx, rng, n):
    for _ in range(n):
        psi, alpha = _random_vector(rng), _random_vector(rng)
        left, right = _random_matrix(rng), _random_matrix(rng)
        lhs = left @ dr.make_product_state(psi, alpha) @ right
        yield _maxabs(lhs - dr.make_product_state(left @ psi, right.T @ alpha))


def _lorentz_rank(ctx, rng, n):
    basis = ctx.basis()
    for _ in range(n):
        state = dr.ProductState(_random_vector(rng), _random_vector(rng))
        sv = dr.entanglement_probe(tr.random_lorentz(rng, ctx.metric), state, basis)
        yield float(sv[1] / sv[0])


def _entanglement_exhibit(ctx, rng, n, tol):
    basis = ctx.basis()

    def ratio(a, state):
        sv = dr.entanglement_probe(a, state, basis)
        return float(sv[1] / sv[0]) if sv[0] > 0 else 0.0

    e0 = np.eye(4)[0].astype(complex)
    ratios = [ratio(np.diag([1.0, 2.0, 3.0, 4.0]), dr.ProductState(e0, e0))]
    for _ in range(n):
        a = tr.random_invertible_non_isometry(rng, ctx.metric)
        ratios.append(ratio(a, dr.ProductState(_random_vector(rng), _random_vector(rng))))
    best = float(np.max(ratios))  # np.max keeps a NaN, max() would drop it
    return best > 1e-3, best, n + 1, "largest second/first singular value ratio found"


# ---------------------------------------------------------------------------
# suite, name, key, samples, tol, then the trials or body

CHECKS = (
    Check("clifford", "product_associativity", "clifford.assoc", 100, 1e-11,
          _product_associativity, inputs="metric"),
    Check("clifford", "generator_anticommutator", "clifford.anticommutator", 50, 1e-12,
          _product_anticommutator),
    Check("clifford", "product_table_vs_matrix_rep", None, None, 1e-12,
          _product_table_vs_matrices, detail="independent 4x4 matrix route"),
    Check("clifford", "reversion_antiautomorphism", "clifford.reversion", 50, 1e-11, _reversion),
    Check("clifford", "even_subalgebra_closure", "clifford.even", 50, 1e-12, _even_closure),

    Check("dirac", "symbol_squares_to_metric_norm", "dirac.square", 50, 1e-11, _symbol_square),
    Check("dirac", "hodge_dirac_transports_to_left_multiplication", "dirac.transport", 50, 1e-11,
          _hodge_dirac_transport),
    Check("dirac", "hodge_dirac_squares_to_metric_norm", "dirac.hsquare", 50, 1e-11,
          _hodge_dirac_square),
    Check("dirac", "solution_space_dimensions", "dirac.dimensions", 20, None,
          body=_solution_dimensions),
    Check("dirac", "right_multiplication_closure", "dirac.rightclosure", 20, 1e-11, _right_closure),
    Check("dirac", "isometry_covariance", "dirac.covariance", 20, 1e-10, _covariance,
          detail="transformed solutions stay solutions"),
    Check("dirac", "product_structure_under_two_sided_multiplication", "dirac.lmr", 50, 1e-12,
          _lmr_structure),
    Check("dirac", "isometries_preserve_rank_one", "dirac.rank", 20, 1e-9, _lorentz_rank,
          detail="second/first singular value ratio"),
    Check("dirac", "generic_map_mixes_product_states", "dirac.entangle", 20, None,
          body=_entanglement_exhibit),

    Check("grassmann", "generator_anticommutator", "grassmann.anticommutator", 200, 1e-12,
          _generator_anticommutator, inputs="metric"),
    Check("grassmann", "wedge_associativity", "grassmann.wedge_assoc", 100, 1e-12,
          _wedge_associativity),
    Check("grassmann", "grade_shift", "grassmann.grade_shift", None, None, body=_grade_shift),
    Check("grassmann", "hodge_bijection", None, None, None, body=_hodge_bijection),
    Check("grassmann", "contraction_vs_vee_stable", "grassmann.vee", 50, 1e-10,
          _contraction_vs_vee, detail=_ratio_detail),
    Check("grassmann", "left_right_commutation", "grassmann.left_right", None, 1e-12,
          _left_right_commutation),

    Check("iso", "canonical_map_roundtrip", None, None, None, _roundtrip,
          detail="coefficientwise identity on all blades"),
    Check("iso", "left_multiplication_intertwining", "iso.left", 100, 1e-11, _left_intertwining),
    Check("iso", "two_sided_intertwining", "iso.lmr", 100, 1e-11, _two_sided_intertwining),
    Check("iso", "left_right_images_commute", "iso.commute", 50, 1e-11, _left_right_commute),
    Check("iso", "matrix_representation", "iso.matrixrep", 100, 1e-11,
          body=_matrix_representation),
    Check("iso", "matrix_wedge_rules", "iso.matrixwedge", 50, 1e-11, _matrix_wedge,
          detail="nilpotent generators, unit law, associativity"),
    Check("iso", "gamma_basis_factorization", "iso.factorization", 20, 1e-11,
          _gamma_basis_factorization, detail="random Lorentz-signature metrics"),

    Check("proposition", "exterior_transport_equals_conjugation", "proposition.isometry", 50,
          1e-10, _proposition_isometry, detail="all 16 basis blades per map", inputs="A"),
    Check("proposition", "non_isometry_still_homomorphism", "proposition.noniso", 30, 1e-10,
          body=_proposition_non_isometry),
    Check("proposition", "conjugation_preserves_grades_only_for_lifts", "proposition.grades",
          None, 1e-11, body=_grade_preservation),

    Check("transforms", "substitution_matches_pullback", "transforms.substitution", 30, 1e-11,
          _substitution_metric),
    Check("transforms", "spin_lift_conjugates_generators", "transforms.lift", 50, 1e-10,
          _spin_lift, inputs="A"),
    Check("transforms", "lift_projective_homomorphism", "transforms.projective", 30, 1e-10,
          _lift_projective, detail="conjugations compared, not the elements"),
    Check("transforms", "no_lift_for_non_isometries", "transforms.nolift", 30, None,
          body=_no_lift_for_non_isometry),
    Check("transforms", "pushforward_blocks_and_functoriality", "transforms.pushforward", 30,
          1e-10, _pushforward, detail="minor-determinant oracle"),
    Check("transforms", "gl4_action_invertible", "transforms.gl4inv", 20, 1e-10,
          _gl4_invertibility),
)

SUITE_NAMES = tuple(sorted({c.suite for c in CHECKS}))


def _worst(trials: Iterable[Any]) -> tuple[float, Any, int]:
    """The worst residual, the input it came with and the number of residuals.

    Each trial is a residual or a ``(residual, input)`` pair.  A non-finite
    residual is worse than any finite one, and the first is kept: ``max()``
    would drop a NaN.
    """
    worst, culprit, count = 0.0, None, 0
    for trial in trials:
        residual, sample = trial if isinstance(trial, tuple) else (trial, None)
        count += 1
        if math.isfinite(worst) and not residual <= worst:
            worst, culprit = float(residual), sample
    return worst, culprit, count


def _run(check: Check, ctx: SuiteContext) -> CheckResult:
    t0 = time.perf_counter()
    rng = ctx.rng(check.key) if check.key else None
    n = ctx.n(check.samples) if check.samples is not None else None
    tol = ctx.tolerance(check.tol) if check.tol is not None else None
    inputs = None
    if check.body is not None:
        ok, residual, samples, detail = check.body(ctx, rng, n, tol)
    else:
        residual, culprit, samples = _worst(check.trials(ctx, rng, n))
        ok = residual < tol if tol is not None else residual == 0.0
        detail = check.detail(ctx) if callable(check.detail) else check.detail or f"tol {tol:g}"
        if not ok and check.inputs:
            inputs = {check.inputs: np.asarray(culprit).tolist()}
    if not math.isfinite(residual):
        ok, residual, detail = False, None, f"{detail}; non-finite residual"
    result = CheckResult(check.suite, check.name, PASS if ok else FAIL, residual=residual,
                         samples=samples, detail=detail, inputs=inputs)
    result.elapsed = time.perf_counter() - t0
    return result


def run_suite(name: str, ctx: SuiteContext) -> list[CheckResult]:
    """Run one suite and return its timed check results."""
    return [_run(check, ctx) for check in CHECKS if check.suite == name]
