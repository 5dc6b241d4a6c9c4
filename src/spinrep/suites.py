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
* ``trials(ctx, rng, n)``, which draws the samples from ``rng`` in a fixed
  order and yields one value per sample judged; a sample it cannot judge,
  such as a degenerate draw, yields nothing.  A check draws its samples in
  batches of at most ``_BATCH`` (:func:`_chunks`), each batch in the order
  that one draw per sample would take, and judges the batch as one stack:
  a leading axis through the lifts, exponentials, wedges and products.  A
  draw with a rejection loop stays one draw per sample, stacked before it is
  judged.  A sample whose map has no lift yields NaN, so it fails the check
  and its input is recorded;
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
from dataclasses import dataclass, field
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
    basis: iso.GammaBasis = field(init=False)  # the metric's Dirac basis, built once

    def __post_init__(self) -> None:
        self.basis = iso.dirac_matrices(self.metric)


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


# a check stacks at most this many samples (metrics, maps or elements) into
# one batch, so its memory stays bounded whatever --samples asks for
_BATCH = 16


def _maxabs(x) -> float:
    return float(np.abs(x).max())


def _rowmax(x: np.ndarray) -> np.ndarray:
    """Per sample of the leading axis, the largest absolute entry."""
    return np.abs(x).reshape(len(x), -1).max(axis=1)


def _batches(items: Iterable[Any]) -> Iterator[list[Any]]:
    """Consecutive lists of at most ``_BATCH`` items, drawn from ``items`` in order."""
    items = iter(items)
    while batch := list(itertools.islice(items, _BATCH)):
        yield batch


def _chunks(n: int) -> Iterator[int]:
    """The sizes of the batches of n samples."""
    return (len(batch) for batch in _batches(range(n)))


def _random_metric(rng: np.random.Generator) -> np.ndarray:
    """A random symmetric 4x4 array with |det| at least 1e-6, far above the
    degeneracy threshold of :class:`Metric`."""
    while True:
        m = rng.uniform(-2.0, 2.0, size=(4, 4))
        m = (m + m.T) / 2.0
        if abs(np.linalg.det(m)) >= 1e-6:
            return m


def _complex(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """One complex array of ``shape``, its real part drawn first."""
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _complex_draws(rng: np.random.Generator, n: int, *shapes: tuple[int, ...]) -> list[np.ndarray]:
    """For n samples in turn, one complex array of each of ``shapes``, real
    part then imaginary part, as :func:`_complex` draws one: one (n, *shape)
    stack per shape."""
    sizes = [2 * math.prod(shape) for shape in shapes]
    x = np.split(rng.normal(size=(n, sum(sizes))), np.cumsum(sizes)[:-1], axis=1)
    return [(part := xs.reshape((n, 2) + shape))[:, 0] + 1j * part[:, 1]
            for xs, shape in zip(x, shapes)]


def _isometries(rng: np.random.Generator, g: gr.Metric, n: int) -> Iterator[np.ndarray]:
    """n random isometries of ``g`` in stacks of at most ``_BATCH``, every
    third one on the -A branch."""
    done = 0
    for size in _chunks(n):
        a = tr.random_lorentz(rng, g, (size,))
        flip = np.arange(done, done + size) % 3 == 2  # opposite branch of the special orthogonal group
        yield np.where(flip[:, None, None], -a, a)
        done += size


def _nondegenerate(make: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
    """make(item) for each of ``items`` whose metric is not degenerate."""
    out = []
    for item in items:
        try:
            out.append(make(item))
        except DegenerateMetric:
            continue
    return out


def _well_conditioned_map(rng: np.random.Generator) -> np.ndarray:
    """Q1 diag(s) Q2 with orthogonal Q1, Q2 and s in [0.5, 2]: condition number at most 4."""
    q1, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    q2, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    return q1 @ np.diag(rng.uniform(0.5, 2.0, size=4)) @ q2


# ---------------------------------------------------------------------------
# grassmann


def _generator_anticommutator(ctx, rng, n):
    metrics = itertools.chain([ctx.metric.g, gr.minkowski().g], (_random_metric(rng) for _ in range(n)))
    for batch in _batches(metrics):
        g = np.stack(batch)
        yield from zip(iso._anticommutator_worst(gr._gamma_ops(g), g), g)


def _wedge_associativity(ctx, rng, n):
    for size in _chunks(n):
        a, b, c = map(gr.GrassmannElement, _complex_draws(rng, size, *[(NBLADES,)] * 3))
        yield from _rowmax(gr.wedge(gr.wedge(a, b), c).coeffs - gr.wedge(a, gr.wedge(b, c)).coeffs)


def _grade_shift(ctx, rng, n):
    # the largest coefficient outside grade k + 1 of the raised element and
    # outside grade k - 1 of the lowered one
    for k in range(5):
        omega, v = _complex_draws(rng, 10, (NBLADES,), (4,))
        omega = gr.GrassmannElement(np.where(GRADE == k, omega, 0))
        raised = _rowmax(gr.delta(v, omega).coeffs[:, GRADE != k + 1])
        lowered = _rowmax(gr.delta_star(v, omega, ctx.metric).coeffs[:, GRADE != k - 1])
        for pair in zip(raised, lowered):
            yield from pair


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
    for size in _chunks(n):
        v, omega = _complex_draws(rng, size, (4,), (NBLADES,))
        omega = gr.GrassmannElement(omega)
        lhs = gr.delta_star(v, omega, g)
        # the dual product of the grade-k part lands in grade k-1; rescale piecewise
        rhs = gr.GrassmannElement.zero()
        for k in range(1, 5):
            rhs = rhs + table[k] * gr.vee(
                gr.GrassmannElement.from_vector(v), omega.grade_project(k), g)
        yield from _rowmax(lhs.coeffs - rhs.coeffs)


def _ratio_detail(ctx):
    table = gr.contraction_vs_vee_table(ctx.metric)
    return "ratio per grade: " + ", ".join(f"{s:+.6g}" for s in table[1:])


def _left_right_commutation(ctx, rng, n):
    for g in [ctx.metric] + [gr.Metric(_random_metric(rng)) for _ in range(10)]:
        for mu in range(4):
            left = gr.gamma_op(mu, g)
            for nu in range(4):
                right = gr.right_gamma_op(nu, g)
                yield _maxabs(left @ right - right @ left)


# ---------------------------------------------------------------------------
# clifford


def _product_associativity(ctx, rng, n):
    trials = ((ctx.metric.g if i == 0 else _random_metric(rng),
               [_complex(rng, NBLADES) for _ in range(3)]) for i in range(n))
    for batch in _batches(trials):
        g = np.stack([m for m, _ in batch])
        t = cl._structure(g)
        a, b, c = np.array([elements for _, elements in batch]).transpose(1, 0, 2)
        lhs = _kernels.mul16(_kernels.mul16(a, b, t), c, t)
        rhs = _kernels.mul16(a, _kernels.mul16(b, c, t), t)
        yield from zip(np.abs(lhs - rhs).max(axis=1), g)


def _reversion(ctx, rng, n):
    g = ctx.metric
    for size in _chunks(n):
        a, b = map(cl.CliffordElement, _complex_draws(rng, size, (NBLADES,), (NBLADES,)))
        lhs = cl.reversion(cl.geometric_product(a, b, g))
        rhs = cl.geometric_product(cl.reversion(b), cl.reversion(a), g)
        yield from _rowmax(lhs.coeffs - rhs.coeffs)


def _even_closure(ctx, rng, n):
    for size in _chunks(n):
        a, b = (cl.even_part(cl.CliffordElement(x))
                for x in _complex_draws(rng, size, (NBLADES,), (NBLADES,)))
        yield from cl.odd_part(cl.geometric_product(a, b, ctx.metric)).norm()


# ---------------------------------------------------------------------------
# iso


def _two_sided_intertwining(ctx, rng, n):
    g = ctx.metric
    for size in _chunks(n):
        L, M, R = map(cl.CliffordElement, _complex_draws(rng, size, *[(NBLADES,)] * 3))
        lmr = cl.geometric_product(cl.geometric_product(L, M, g), R, g).coeffs
        rm = iso.right_rep(R, g) @ M.coeffs[..., None]
        yield from _rowmax(lmr - (iso.left_rep(L, g) @ rm)[..., 0])


def _left_right_commute(ctx, rng, n):
    for size in _chunks(n):
        a, b = map(cl.CliffordElement, _complex_draws(rng, size, (NBLADES,), (NBLADES,)))
        a, b = iso.left_rep(a, ctx.metric), iso.right_rep(b, ctx.metric)
        yield from _rowmax(a @ b - b @ a)


def _matrix_representation(ctx, rng, n):
    g = ctx.metric
    basis = ctx.basis
    for size in _chunks(n):
        a, b = map(cl.CliffordElement, _complex_draws(rng, size, (NBLADES,), (NBLADES,)))
        lhs = iso.clifford_to_matrix(cl.geometric_product(a, b, g), basis)
        yield from _rowmax(lhs - iso.clifford_to_matrix(a, basis) @ iso.clifford_to_matrix(b, basis))


def _matrix_basis_rank_deficit(ctx, rng, n):
    blades = iso.gamma_blade_matrices(ctx.basis)
    yield NBLADES - np.linalg.matrix_rank(blades.reshape(NBLADES, 16))


def _matrix_wedge(ctx, rng, n):
    basis = ctx.basis
    gam = basis.gammas
    eye = np.eye(4)
    # nilpotent generators and antisymmetrised pairs draw nothing; every
    # sample's residual includes them
    rules = [iso.matrix_wedge(gam[mu], gam[mu], basis) for mu in range(4)]
    rules += [iso.matrix_wedge(gam[mu], gam[nu], basis) - (gam[mu] @ gam[nu] - gam[nu] @ gam[mu]) / 2.0
              for mu in range(4) for nu in range(mu + 1, 4)]
    fixed = _maxabs(rules)
    for size in _chunks(n):
        m, a, b, c = _complex_draws(rng, size, (4, 4), (4, 4), (4, 4), (4, 4))
        unit = _rowmax(iso.matrix_wedge(eye, m, basis) - m)
        lhs = iso.matrix_wedge(iso.matrix_wedge(a, b, basis), c, basis)
        rhs = iso.matrix_wedge(a, iso.matrix_wedge(b, c, basis), basis)
        yield from np.maximum(fixed, np.maximum(unit, _rowmax(lhs - rhs)))


def _gamma_basis_factorization(ctx, rng, n):
    mink = gr.minkowski()
    for size in _chunks(n):
        # per sample, a random_lorentz draw and then the perturbation
        k, noise = rng.normal(size=(size, 2, 4, 4)).transpose(1, 0, 2, 3)
        maps = tr._lorentz(k, mink) @ (np.eye(4) + 0.2 * noise)
        bases = _nondegenerate(lambda a: iso.dirac_matrices(tr.metric_pullback(a, mink)), maps)
        if bases:
            yield from iso.anticommutator_defect(bases)


# ---------------------------------------------------------------------------
# transforms


def _substitution_metric(ctx, rng, n):
    basis = ctx.basis
    for size in _chunks(n):
        # on a metric with small |det g| some pullbacks fall below det_tol
        maps = rng.normal(size=(size, 4, 4))
        bases = _nondegenerate(lambda a: tr.substitute_gammas(a, basis), maps)
        if bases:
            yield from iso.anticommutator_defect(bases)


def _spin_lift(ctx, rng, n):
    g = ctx.metric
    basis = ctx.basis
    stacks = [tr.random_lorentz(rng, g, (size,)) for size in _chunks(n)]
    if g == gr.minkowski():
        stacks.append(np.stack([tr.parity_matrix(), tr.time_reversal_matrix()]))
    for maps in stacks:
        yield from zip(tr._lift_stack(maps, basis)[4], maps)


def _lift_projective(ctx, rng, n):
    g = ctx.metric
    basis = ctx.basis
    for size in _chunks(n):
        pairs = tr.random_lorentz(rng, g, (size, 2))
        # lift a, b and a b as one stack
        maps = np.concatenate((pairs, (pairs[:, 0] @ pairs[:, 1])[:, None]), axis=1)
        _, m, inverse, _, residual = tr._lift_stack(maps, basis)
        prod = m[:, 0] @ m[:, 1]
        pinv = np.linalg.inv(prod)
        worst = _rowmax(prod[:, None] @ basis.gammas @ pinv[:, None]
                        - m[:, 2, None] @ basis.gammas @ inverse[:, 2, None])
        yield from np.where(np.isnan(residual).any(axis=1), np.nan, worst)


def _no_lift_for_non_isometry(ctx, rng, n):
    # the smallest normalized singular value of the conjugation system
    basis = ctx.basis
    for size in _chunks(n):
        maps = np.stack([tr.random_invertible_non_isometry(rng, ctx.metric) for _ in range(size)])
        yield from zip(tr.conjugation_singular_values(maps, basis)[:, -1], maps)


# per grade: its blades, and each blade's generator indices as one row
_GRADE_INDICES = tuple((np.array(blades), np.array([BLADE_BITS[b] for b in blades], dtype=np.intp))
                       for blades in BLADES_BY_GRADE)


def _pushforward(ctx, rng, n):
    for size in _chunks(n):
        a, b = rng.normal(size=(size, 2, 4, 4)).transpose(1, 0, 2, 3)
        p = tr.exterior_pushforward(a)
        # independent oracle: every block entry is a minor determinant (the
        # grade-1 block is a itself, the top entry det a, the empty minor 1),
        # off-block entries vanish
        oracle = np.zeros((size, NBLADES, NBLADES))
        for blades, bits in _GRADE_INDICES:
            minors = a[:, bits[:, None, :, None], bits[None, :, None, :]]
            oracle[:, blades[:, None], blades] = np.linalg.det(minors)
        functor = tr.exterior_pushforward(a @ b) - p @ tr.exterior_pushforward(b)
        yield from np.maximum(_rowmax(p - oracle), _rowmax(functor))


def _gl4_invertibility(ctx, rng, n):
    basis = ctx.basis
    for size in _chunks(n):
        a, m = map(np.stack, zip(*[(_well_conditioned_map(rng), _complex(rng, 4, 4))
                                   for _ in range(size)]))
        act, act_inv = tr.GL4Action(a, basis), tr.GL4Action(np.linalg.inv(a), basis)
        yield from _rowmax(act(act_inv(m)) - m)


# ---------------------------------------------------------------------------
# proposition


def _proposition_isometry(ctx, rng, n):
    basis = ctx.basis
    blades = iso.gamma_blade_matrices(basis)
    for maps in _isometries(rng, ctx.metric, n):
        yield from zip(tr.transport_residual(maps, basis, blades), maps)


def _proposition_non_isometry(ctx, rng, n):
    g = ctx.metric
    basis = ctx.basis
    non_isometry = tr.random_invertible_non_isometry
    for size in _chunks(n):
        a, b, m = map(np.stack, zip(*[(non_isometry(rng, g), non_isometry(rng, g), _complex(rng, 4, 4))
                                      for _ in range(size)]))
        lhs = tr.GL4Action(a @ b, basis)(m)
        yield from _rowmax(lhs - tr.GL4Action(a, basis)(tr.GL4Action(b, basis)(m)))


def _lift_grade_leak(ctx, rng, n):
    a = tr.random_lorentz(rng, ctx.metric)
    basis = ctx.basis
    yield tr.grade_leakage(tr.spin_lift(a, basis).matrix, basis), a


def _even_element_grade_leak(ctx, rng, n):
    # 1 + (0.5 + 0.25i) g0g1g2g3: even and invertible, but it lifts no isometry
    coeffs = np.zeros(NBLADES, dtype=np.complex128)
    coeffs[0] = 1.0
    coeffs[TOP] = 0.5 + 0.25j
    basis = ctx.basis
    yield tr.grade_leakage(iso.clifford_to_matrix(cl.CliffordElement(coeffs), basis), basis)


# ---------------------------------------------------------------------------
# dirac


def _null_space_dimension(m: np.ndarray) -> int:
    svals = np.linalg.svd(m, compute_uv=False)
    scale = max(float(svals[0]), 1.0)
    return int(np.count_nonzero(svals <= 1e-8 * scale))


def _random_massive_exponent(rng, g: gr.Metric, m: complex) -> np.ndarray:
    while True:
        lam = _complex(rng, 4)
        q = g.inner(lam, lam)
        if abs(q) > 1e-3:
            return lam * (m / np.sqrt(q))


def _symbol_square(ctx, rng, n):
    basis = ctx.basis
    eye = np.eye(4)
    for _ in range(n):
        lam = _complex(rng, 4)
        s = dr.symbol_matrix(lam, basis)
        yield _maxabs(s @ s - ctx.metric.inner(lam, lam) * eye)


def _hodge_dirac_square(ctx, rng, n):
    g = ctx.metric
    eye = np.eye(NBLADES)
    for _ in range(n):
        lam = _complex(rng, 4)
        h = dr.hodge_dirac_symbol(lam, g)
        yield _maxabs(h @ h - g.inner(lam, lam) * eye)


def _solution_dimensions(ctx, rng, n):
    # how far the eigenspace route and the SVD null-space oracle each are from
    # the expected column dimension: 2 on the mass shell, 0 off it
    basis = ctx.basis
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
        lam = _complex(rng, 4)
        q = g.inner(lam, lam)
        if abs(q - m * m) < 0.1:
            lam = lam * 2.0
        yield defect(lam, m, 0)


def _right_closure(ctx, rng, n):
    basis = ctx.basis
    m = 1.0 + 0.3j
    lam = _random_massive_exponent(rng, ctx.metric, m)
    sols = dr.plane_wave_solutions(lam, m, basis)
    coefs = rng.normal(size=sols.dimension)
    amplitude = np.einsum("i,ijk->jk", coefs, sols.matrix_basis)
    for _ in range(n):
        yield dr.PlaneWave(amplitude @ _complex(rng, 4, 4), lam, m).residual(basis)


def _covariance(ctx, rng, n):
    basis = ctx.basis
    g = ctx.metric
    for _ in range(5):
        m = 0.5 + rng.random() + 0.5j * rng.random()
        lam = _random_massive_exponent(rng, g, m)
        sols = dr.plane_wave_solutions(lam, m, basis)
        coefs = rng.normal(size=sols.dimension)
        wave = dr.PlaneWave(np.einsum("i,ijk->jk", coefs, sols.matrix_basis), lam, m)
        for size in _chunks(max(1, n // 5)):
            yield from dr.covariance_residual(tr.random_lorentz(rng, g, (size,)), wave, basis)


def _realigned_factor(ctx, rng, n):
    # spin_lift's real null vector on blade coefficients is the independent
    # oracle; comparing conjugations cancels the free scale and phase
    basis = ctx.basis
    gammas = basis.gammas
    for maps in _isometries(rng, ctx.metric, n):
        m = tr.spinor_factorization(maps, basis)[1][:, None]
        _, s, s_inv, _, residual = tr._lift_stack(maps, basis)
        worst = _rowmax(m @ gammas @ np.linalg.inv(m) - s[:, None] @ gammas @ s_inv[:, None])
        yield from zip(np.where(np.isnan(residual), np.nan, worst), maps)


def _isometry_rank(ctx, rng, n):
    basis = ctx.basis
    for maps in _isometries(rng, ctx.metric, n):
        yield from zip(tr.spinor_factorization(maps, basis)[0], maps)


def _non_isometry_mixing(ctx, rng, n):
    basis = ctx.basis
    draws = itertools.chain([np.diag([1.0, 2.0, 3.0, 4.0])],
                            (tr.random_invertible_non_isometry(rng, ctx.metric) for _ in range(n)))
    for batch in _batches(draws):
        maps = np.stack(batch)
        yield from zip(tr.spinor_factorization(maps, basis)[0], maps)


# ---------------------------------------------------------------------------
# suite, name, key, samples, tol, then the trials

CHECKS = (
    Check("clifford", "product_associativity", "clifford.assoc", 100, 1e-11,
          _product_associativity, inputs="metric"),
    Check("clifford", "reversion_antiautomorphism", "clifford.reversion", 50, 1e-11, _reversion),
    Check("clifford", "even_subalgebra_closure", "clifford.even", 50, 1e-12, _even_closure),

    Check("dirac", "symbol_squares_to_metric_norm", "dirac.square", 50, 1e-11, _symbol_square),
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
    # the one place where --samples and --tol replace a declaration's values
    rng = np.random.default_rng([ctx.seed, zlib.crc32(check.key.encode())]) if check.key else None
    n = check.samples if check.samples is None or ctx.samples is None else ctx.samples
    tol = check.tol if check.tol is None or check.at_least or ctx.tol is None else ctx.tol
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
