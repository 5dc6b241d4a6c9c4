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
* ``tol``, the threshold: a residual's default tolerance, which ``--tol``
  replaces, or a separation's fixed bound (``None`` where the check requires
  an exact zero, as counts and rank deficits do);
* ``trials(ctx, rng, n)``, which draws the samples from ``rng`` one after
  another and yields one value per sample judged; a sample it cannot judge,
  such as a degenerate draw, yields nothing;
* ``detail``, a fixed string or a function of the context; empty means
  ``tol <tolerance>`` or ``at least <threshold>``;
* ``inputs``, the report key (``metric`` or ``A``) of the input each trial
  yields with its value; a failing check records the worst one;
* ``at_least``, the sense: ``False`` for a residual, whose largest value must
  stay below ``tol``; ``True`` for a separation, whose smallest value must
  stay above it.

The runner alone judges.  A non-finite value fails the check in either
sense; the report then writes the residual as ``null`` and says so in the
detail.  The report's residual is the worst value, and its sample count the
number of values judged.  Where a check validates an implementation route,
the comparison values come from an independent route (direct formulas,
matrix representations, singular value decompositions) rather than from the
code path under test.
"""

from __future__ import annotations

import itertools
import math
import time
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from . import _kernels
from . import clifford as cl
from . import dirac as dr
from . import grassmann as gr
from . import isomorphisms as iso
from . import transforms as tr
from ._tables import BLADE_BITS, BLADES_BY_GRADE, GRADE, NBLADES, TOP
from .errors import DegenerateMetric
from .report import FAIL, PASS, CheckResult


@dataclass
class SuiteContext:
    metric: gr.Metric
    seed: int = 0
    samples: int | None = None  # overrides per-check sample counts when set
    tol: float | None = None  # overrides the "at most" tolerances when set

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
    trials: Callable[..., Iterator[Any]]
    detail: str | Callable[[SuiteContext], str] = ""
    inputs: str | None = None
    at_least: bool = False


# the per-metric checks stack at most this many metrics into one batch, so
# their memory stays bounded whatever --samples asks for
_BATCH = 16


def _maxabs(x) -> float:
    return float(np.abs(x).max())


def _batches(items: Iterable[Any]) -> Iterator[list[Any]]:
    """Consecutive lists of at most ``_BATCH`` items, drawn from ``items`` in order."""
    items = iter(items)
    while batch := list(itertools.islice(items, _BATCH)):
        yield batch


def _anticommutator_worst(product: Callable[[int, int], np.ndarray], g: np.ndarray,
                          one: np.ndarray) -> np.ndarray:
    """Per metric of the stack ``g``, the largest entry of
    product(mu, nu) + product(nu, mu) - 2 g[mu, nu] one over all mu, nu.

    ``product(mu, nu)`` is a stack with one entry per metric.  One pair at a
    time keeps the memory to one stack; each unordered pair is taken once,
    since the sum is symmetric in mu and nu.
    """
    worst = np.zeros(len(g))
    for mu, nu in itertools.combinations_with_replacement(range(4), 2):
        scale = 2.0 * g[:, mu, nu].reshape((-1,) + (1,) * one.ndim)
        ac = product(mu, nu) + product(nu, mu) - scale * one
        worst = np.maximum(worst, np.abs(ac).reshape(len(g), -1).max(axis=1))
    return worst


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


def _isometries(rng: np.random.Generator, g: gr.Metric, n: int) -> Iterator[np.ndarray]:
    """n random isometries of ``g``, every third one on the -A branch."""
    for i in range(n):
        a = tr.random_lorentz(rng, g)
        yield -a if i % 3 == 2 else a  # opposite branch of the special orthogonal group


def _well_conditioned_map(rng: np.random.Generator) -> np.ndarray:
    """Q1 diag(s) Q2 with orthogonal Q1, Q2 and s in [0.5, 2]: condition number at most 4."""
    q1, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    q2, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    return q1 @ np.diag(rng.uniform(0.5, 2.0, size=4)) @ q2


# ---------------------------------------------------------------------------
# grassmann


def _generator_anticommutator(ctx, rng, n):
    eye = np.eye(NBLADES)
    metrics = itertools.chain([ctx.metric, gr.minkowski()], (_random_metric(rng) for _ in range(n)))
    for batch in _batches(metrics):
        g = np.stack([m.g for m in batch])
        ops = gr._gamma_ops(g)
        yield from zip(_anticommutator_worst(lambda mu, nu: ops[:, mu] @ ops[:, nu], g, eye), g)


def _wedge_associativity(ctx, rng, n):
    for _ in range(n):
        a, b, c = (gr.GrassmannElement(_random_element(rng)) for _ in range(3))
        yield _maxabs(gr.wedge(gr.wedge(a, b), c).coeffs - gr.wedge(a, gr.wedge(b, c)).coeffs)


def _grade_shift(ctx, rng, n):
    # the largest coefficient outside grade k + 1 of the raised element and
    # outside grade k - 1 of the lowered one
    for k in range(5):
        for _ in range(10):
            omega = gr.GrassmannElement(np.where(GRADE == k, _random_element(rng), 0))
            v = _random_vector(rng)
            yield _maxabs(gr.delta(v, omega).coeffs[GRADE != k + 1])
            yield _maxabs(gr.delta_star(v, omega, ctx.metric).coeffs[GRADE != k - 1])


def _hodge_rank_deficit(ctx, rng, n):
    yield NBLADES - np.linalg.matrix_rank(gr.hodge_matrix(ctx.metric))


def _double_star_sign(ctx, rng, n):
    # on grade k the double star is (-1)^(k(4-k)) sign(det g) times the identity
    h = gr.hodge_matrix(ctx.metric)
    yield _maxabs(h @ h - np.diag((-1.0) ** (GRADE * (4 - GRADE)) * np.sign(ctx.metric.det)))


def _double_star_detail(ctx):
    scalars = gr.star_star_scalars(ctx.metric)
    return "double star per grade: " + ", ".join(f"{s:+.6g}" for s in scalars)


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
    trials = ((ctx.metric if i == 0 else _random_metric(rng),
               [_random_element(rng) for _ in range(3)]) for i in range(n))
    for batch in _batches(trials):
        g = np.stack([m.g for m, _ in batch])
        t = cl._structure(g)
        a, b, c = np.array([elements for _, elements in batch]).transpose(1, 0, 2)
        lhs = _kernels.mul16(_kernels.mul16(a, b, t), c, t)
        rhs = _kernels.mul16(a, _kernels.mul16(b, c, t), t)
        yield from zip(np.abs(lhs - rhs).max(axis=1), g)


def _product_anticommutator(ctx, rng, n):
    unit = np.zeros(NBLADES)
    unit[0] = 1.0
    gens = [cl.CliffordElement.generator(mu).coeffs for mu in range(4)]
    for batch in _batches(ctx.metric if i == 0 else _random_metric(rng) for i in range(n)):
        g = np.stack([m.g for m in batch])
        t = cl._structure(g)
        yield from _anticommutator_worst(lambda mu, nu: _kernels.mul16(gens[mu], gens[nu], t),
                                         g, unit)


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


def _matrix_representation(ctx, rng, n):
    g = ctx.metric
    basis = ctx.basis()
    for _ in range(n):
        a = cl.CliffordElement(_random_element(rng))
        b = cl.CliffordElement(_random_element(rng))
        lhs = iso.clifford_to_matrix(cl.geometric_product(a, b, g), basis)
        rhs = iso.clifford_to_matrix(a, basis) @ iso.clifford_to_matrix(b, basis)
        yield _maxabs(lhs - rhs)


def _matrix_basis_rank_deficit(ctx, rng, n):
    blades = iso.gamma_blade_matrices(ctx.basis())
    yield NBLADES - np.linalg.matrix_rank(blades.reshape(NBLADES, 16))


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


def _no_lift_for_non_isometry(ctx, rng, n):
    # the smallest normalized singular value of the conjugation system
    basis = ctx.basis()
    for _ in range(n):
        a = tr.random_invertible_non_isometry(rng, ctx.metric)
        yield tr.conjugation_singular_values(a, basis)[-1], a


# per grade: its blades, and each blade's generator indices as one row
_GRADE_INDICES = tuple((np.array(blades), np.array([BLADE_BITS[b] for b in blades], dtype=np.intp))
                       for blades in BLADES_BY_GRADE)


def _pushforward(ctx, rng, n):
    for _ in range(n):
        a = rng.normal(size=(4, 4))
        p = tr.exterior_pushforward(a)
        # independent oracle: every block entry is a minor determinant (the
        # grade-1 block is a itself, the top entry det a, the empty minor 1),
        # off-block entries vanish
        oracle = np.zeros((NBLADES, NBLADES))
        for blades, bits in _GRADE_INDICES:
            minors = a[bits[:, None, :, None], bits[None, :, None, :]]
            oracle[np.ix_(blades, blades)] = np.linalg.det(minors)
        b = rng.normal(size=(4, 4))
        functor = tr.exterior_pushforward(a @ b) - p @ tr.exterior_pushforward(b)
        yield _maxabs([_maxabs(p - oracle), _maxabs(functor)])


def _gl4_invertibility(ctx, rng, n):
    basis = ctx.basis()
    for _ in range(n):
        a = _well_conditioned_map(rng)
        act, act_inv = tr.GL4Action(a, basis), tr.GL4Action(np.linalg.inv(a), basis)
        m = _random_matrix(rng)
        yield _maxabs(act(act_inv(m)) - m)


# ---------------------------------------------------------------------------
# proposition


def _proposition_isometry(ctx, rng, n):
    basis = ctx.basis()
    blades = iso.gamma_blade_matrices(basis)
    for a in _isometries(rng, ctx.metric, n):
        yield tr.transport_residual(a, basis, blades), a


def _proposition_non_isometry(ctx, rng, n):
    g = ctx.metric
    basis = ctx.basis()
    for _ in range(n):
        a, b = tr.random_invertible_non_isometry(rng, g), tr.random_invertible_non_isometry(rng, g)
        lhs = tr.GL4Action(a @ b, basis)
        act_a, act_b = tr.GL4Action(a, basis), tr.GL4Action(b, basis)
        m = _random_matrix(rng)
        yield _maxabs(lhs(m) - act_a(act_b(m)))


def _lift_grade_leak(ctx, rng, n):
    a = tr.random_lorentz(rng, ctx.metric)
    basis = ctx.basis()
    yield tr.grade_leakage(tr.spin_lift(a, basis).matrix, basis), a


def _even_element_grade_leak(ctx, rng, n):
    # 1 + (0.5 + 0.25i) g0g1g2g3: even and invertible, but it lifts no isometry
    coeffs = np.zeros(NBLADES, dtype=np.complex128)
    coeffs[0] = 1.0
    coeffs[TOP] = 0.5 + 0.25j
    basis = ctx.basis()
    yield tr.grade_leakage(iso.clifford_to_matrix(cl.CliffordElement(coeffs), basis), basis)


# ---------------------------------------------------------------------------
# dirac


def _null_space_dimension(m: np.ndarray) -> int:
    svals = np.linalg.svd(m, compute_uv=False)
    scale = max(float(svals[0]), 1.0)
    return int(np.count_nonzero(svals <= 1e-8 * scale))


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


def _solution_dimensions(ctx, rng, n):
    # how far the eigenspace route and the SVD null-space oracle each are from
    # the expected column dimension: 2 on the mass shell, 0 off it
    basis = ctx.basis()
    g = ctx.metric

    def defect(lam, m, expected):
        sols = dr.plane_wave_solutions(lam, m, basis)
        oracle = _null_space_dimension(dr.symbol_matrix(lam, basis) - m * np.eye(4))
        return max(abs(sols.column_dimension - expected), abs(oracle - expected))

    for _ in range(n):
        m = rng.normal() + 1j * rng.normal()
        if abs(m) < 0.5:
            m += 0.7 * (1 if m.real >= 0 else -1)
        yield defect(_random_massive_exponent(rng, g, m), m, 2)
    for _ in range(n):
        m = rng.normal() + 1j * rng.normal()
        lam = _random_vector(rng)
        q = g.inner(lam, lam)
        if abs(q - m * m) < 0.1:
            lam = lam * 2.0
        yield defect(lam, m, 0)


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


def _realigned_factor(ctx, rng, n):
    # spin_lift's real null vector on blade coefficients is the independent
    # oracle; comparing conjugations cancels the free scale and phase
    basis = ctx.basis()
    for a in _isometries(rng, ctx.metric, n):
        m = tr.spinor_factorization(a, basis)[1]
        s = tr.spin_lift(a, basis)
        yield _maxabs(m @ basis.gammas @ np.linalg.inv(m)
                      - s.matrix @ basis.gammas @ s.inverse_matrix), a


def _isometry_rank(ctx, rng, n):
    basis = ctx.basis()
    for a in _isometries(rng, ctx.metric, n):
        yield tr.spinor_factorization(a, basis)[0], a


def _non_isometry_mixing(ctx, rng, n):
    basis = ctx.basis()
    maps = itertools.chain([np.diag([1.0, 2.0, 3.0, 4.0])],
                           (tr.random_invertible_non_isometry(rng, ctx.metric) for _ in range(n)))
    for a in maps:
        yield tr.spinor_factorization(a, basis)[0], a


# ---------------------------------------------------------------------------
# suite, name, key, samples, tol, then the trials

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
          _solution_dimensions, detail="eigenspace route validated against SVD null-space oracle"),
    Check("dirac", "right_multiplication_closure", "dirac.rightclosure", 20, 1e-11, _right_closure),
    Check("dirac", "isometry_covariance", "dirac.covariance", 20, 1e-10, _covariance,
          detail="transformed solutions stay solutions"),
    Check("dirac", "realigned_factor_is_the_spin_lift", "dirac.realigned", 20, 1e-10,
          _realigned_factor, detail="conjugations compared with spin_lift's", inputs="A"),
    Check("dirac", "isometries_preserve_rank_one", "dirac.rank", 20, 1e-9, _isometry_rank,
          detail="operator-Schmidt ratio of the realigned action", inputs="A"),
    Check("dirac", "generic_map_mixes_product_states", "dirac.entangle", 20, 1e-3,
          _non_isometry_mixing, inputs="A", at_least=True),

    Check("grassmann", "generator_anticommutator", "grassmann.anticommutator", 200, 1e-12,
          _generator_anticommutator, inputs="metric"),
    Check("grassmann", "wedge_associativity", "grassmann.wedge_assoc", 100, 1e-12,
          _wedge_associativity),
    Check("grassmann", "grade_shift", "grassmann.grade_shift", None, None, _grade_shift,
          detail="raising/lowering exact on homogeneous input"),
    Check("grassmann", "hodge_bijection", None, None, None, _hodge_rank_deficit,
          detail=_double_star_detail),
    Check("grassmann", "double_star_is_per_grade_sign", None, None, 1e-10, _double_star_sign),
    Check("grassmann", "contraction_vs_vee_stable", "grassmann.vee", 50, 1e-10,
          _contraction_vs_vee, detail=_ratio_detail),
    Check("grassmann", "left_right_commutation", "grassmann.left_right", None, 1e-12,
          _left_right_commutation),

    Check("iso", "canonical_map_roundtrip", None, None, None, _roundtrip,
          detail="coefficientwise identity on all blades"),
    Check("iso", "left_multiplication_intertwining", "iso.left", 100, 1e-11, _left_intertwining),
    Check("iso", "two_sided_intertwining", "iso.lmr", 100, 1e-11, _two_sided_intertwining),
    Check("iso", "left_right_images_commute", "iso.commute", 50, 1e-11, _left_right_commute),
    Check("iso", "matrix_representation", "iso.matrixrep", 100, 1e-11, _matrix_representation),
    Check("iso", "matrix_basis_rank", None, None, None, _matrix_basis_rank_deficit,
          detail="the 16 blade matrices span Mat(4)"),
    Check("iso", "matrix_wedge_rules", "iso.matrixwedge", 50, 1e-11, _matrix_wedge,
          detail="nilpotent generators, unit law, associativity"),
    Check("iso", "gamma_basis_factorization", "iso.factorization", 20, 1e-11,
          _gamma_basis_factorization, detail="random Lorentz-signature metrics"),

    Check("proposition", "exterior_transport_equals_conjugation", "proposition.isometry", 50,
          1e-10, _proposition_isometry, detail="all 16 basis blades per map", inputs="A"),
    Check("proposition", "non_isometry_still_homomorphism", "proposition.noniso", 30, 1e-10,
          _proposition_non_isometry),
    Check("proposition", "non_isometry_has_no_lift", "proposition.nolift", 30,
          tr.NO_LIFT_SEPARATION, _no_lift_for_non_isometry, inputs="A", at_least=True),
    Check("proposition", "conjugation_preserves_grades_only_for_lifts", "proposition.grades",
          None, 1e-11, _lift_grade_leak, inputs="A"),
    Check("proposition", "generic_even_element_mixes_grades", None, None, 1e-11,
          _even_element_grade_leak, at_least=True),

    Check("transforms", "substitution_matches_pullback", "transforms.substitution", 30, 1e-11,
          _substitution_metric),
    Check("transforms", "spin_lift_conjugates_generators", "transforms.lift", 50, 1e-10,
          _spin_lift, inputs="A"),
    Check("transforms", "lift_projective_homomorphism", "transforms.projective", 30, 1e-10,
          _lift_projective, detail="conjugations compared, not the elements"),
    Check("transforms", "no_lift_for_non_isometries", "transforms.nolift", 30,
          tr.NO_LIFT_SEPARATION, _no_lift_for_non_isometry, inputs="A", at_least=True),
    Check("transforms", "pushforward_blocks_and_functoriality", "transforms.pushforward", 30,
          1e-10, _pushforward, detail="minor-determinant oracle"),
    Check("transforms", "gl4_action_invertible", "transforms.gl4inv", 20, 1e-10,
          _gl4_invertibility),
)

SUITE_NAMES = tuple(sorted({c.suite for c in CHECKS}))


def _worst(trials: Iterable[Any], at_least: bool) -> tuple[float, Any, int]:
    """The worst value, the input it came with and the number of values.

    Each trial is a value or a ``(value, input)`` pair.  The worst is the
    largest value, or the smallest when ``at_least``, and the first of equals;
    a NaN is worse than any number (``max()`` would drop it).  No trials give 0.0.
    """
    sign = -1.0 if at_least else 1.0
    worst, culprit, count = None, None, 0
    for trial in trials:
        value, sample = trial if isinstance(trial, tuple) else (trial, None)
        count += 1
        if worst is None or not math.isnan(worst) and not sign * value <= sign * worst:
            worst, culprit = float(value), sample
    return (0.0 if worst is None else worst), culprit, count


def _run(check: Check, ctx: SuiteContext) -> CheckResult:
    t0 = time.perf_counter()
    rng = ctx.rng(check.key) if check.key else None
    n = ctx.n(check.samples) if check.samples is not None else None
    tol = check.tol if check.tol is None or check.at_least else ctx.tolerance(check.tol)
    value, culprit, samples = _worst(check.trials(ctx, rng, n), check.at_least)
    ok = value == 0.0 if tol is None else (value > tol if check.at_least else value < tol)
    bound = "exact zero" if tol is None else f"{'at least' if check.at_least else 'tol'} {tol:g}"
    detail = check.detail(ctx) if callable(check.detail) else check.detail or bound
    inputs = {check.inputs: np.asarray(culprit).tolist()} if not ok and check.inputs else None
    if not math.isfinite(value):
        ok, value, detail = False, None, f"{detail}; non-finite residual"
    result = CheckResult(check.suite, check.name, PASS if ok else FAIL, residual=value,
                         samples=samples, detail=detail, inputs=inputs)
    result.elapsed = time.perf_counter() - t0
    return result


def run_suite(name: str, ctx: SuiteContext) -> list[CheckResult]:
    """Run one suite and return its timed check results."""
    return [_run(check, ctx) for check in CHECKS if check.suite == name]
