"""The stacked numeric core against its single-map loop.

Every function that takes a leading stack axis must give, map by map, what
one call per map gives: byte for byte where the per-map arithmetic is the
same, and within rounding where only the summation order differs.
"""

import numpy as np
import pytest

from spinrep import _kernels
from spinrep import clifford as cl
from spinrep import dirac as dr
from spinrep import grassmann as gr
from spinrep import isomorphisms as iso
from spinrep import transforms as tr
from spinrep._tables import GRADE, NBLADES, WEDGE_SIGN
from spinrep.report import FAIL
from spinrep.suites import Check, SuiteContext, _run

from conftest import random_element_coeffs, random_symmetric_metric
from test_transforms import ORACLE_IDS, ORACLE_METRICS, oracle_maps


def test_random_lorentz_stack_draws_the_loop_maps(mink, rng):
    for g in (mink, ORACLE_METRICS[1]):
        seed = int(rng.integers(1 << 30))
        one_by_one, stacked = np.random.default_rng(seed), np.random.default_rng(seed)
        loop = np.stack([tr.random_lorentz(one_by_one, g) for _ in range(50)])
        stack = tr.random_lorentz(stacked, g, (50,))
        assert stack.tobytes() == loop.tobytes()
        assert stacked.bit_generator.state == one_by_one.bit_generator.state
        # a (5, 2) stack is the same 10 maps in the same order
        again = np.random.default_rng(seed)
        assert tr.random_lorentz(again, g, (5, 2)).reshape(10, 4, 4).tobytes() == loop[:10].tobytes()


@pytest.mark.parametrize("g", ORACLE_METRICS, ids=ORACLE_IDS)
def test_lift_stack_equals_spin_lift_per_map(g, rng):
    basis = iso.dirac_matrices(g)
    maps = np.stack(oracle_maps(rng, g))
    coeffs, matrix, inverse, odd, residual = tr._lift_stack(maps, basis)
    for i, a in enumerate(maps):
        lift = tr.spin_lift(a, basis)
        assert coeffs[i].tobytes() == lift.element.coeffs.real.tobytes()
        assert matrix[i].tobytes() == lift.matrix.tobytes()
        assert inverse[i].tobytes() == lift.inverse_matrix.tobytes()
        assert ("even", "odd")[int(odd[i])] == lift.parity
        assert residual[i] == lift.residual


def test_wedge16_batched_equals_per_pair_and_sign_table(rng):
    a = np.stack([random_element_coeffs(rng) for _ in range(40)])
    b = np.stack([random_element_coeffs(rng) for _ in range(40)])
    batched = _kernels.wedge16(a, b)
    assert batched.tobytes() == np.stack([_kernels.wedge16(x, y) for x, y in zip(a, b)]).tobytes()
    # one factor broadcast against a stack
    assert _kernels.wedge16(a[0], b).tobytes() == \
        np.stack([_kernels.wedge16(a[0], y) for y in b]).tobytes()
    oracle = np.zeros_like(batched)
    for i in range(NBLADES):
        for j in range(NBLADES):
            oracle[:, i | j] += WEDGE_SIGN[i, j] * a[:, i] * b[:, j]
    assert np.abs(batched - oracle).max() <= 1e-13
    # real factors take the real product
    real = _kernels.wedge16(a.real, b.real)
    assert real.dtype == np.float64
    assert np.abs(real - _kernels.wedge16(a.real + 0j, b.real + 0j)).max() == 0.0


def test_compound16_batched_equals_per_map(rng):
    maps = rng.normal(size=(3, 7, 4, 4))
    batched = _kernels.compound16(maps)
    assert batched.shape == (3, 7, NBLADES, NBLADES)
    per_map = np.stack([[_kernels.compound16(a) for a in row] for row in maps])
    assert batched.tobytes() == per_map.tobytes()


def test_element_stacks_equal_per_element(basis, rng):
    g = random_symmetric_metric(rng)
    x, y = (np.stack([random_element_coeffs(rng) for _ in range(9)]) for _ in range(2))
    v = x[:, :4] + 0.5
    a, b = gr.GrassmannElement(x), gr.GrassmannElement(y)
    c, d = cl.CliffordElement(x), cl.CliffordElement(y)
    matrices = y[:, :16].reshape(9, 4, 4)
    stacked = [gr.wedge(a, b), gr.delta(v, a), gr.delta_star(v, a, g), gr.right_delta(v, a),
               gr.right_delta_star(v, a, g), gr.hodge(a, g), gr.vee(a, b, g), a.grade_project(2),
               gr.GrassmannElement.from_vector(v), cl.geometric_product(c, d, g), cl.reversion(c),
               cl.even_part(c), cl.odd_part(c), cl.grade_project(c, 3)]
    for i in range(9):
        ai, bi = gr.GrassmannElement(x[i]), gr.GrassmannElement(y[i])
        ci, di = cl.CliffordElement(x[i]), cl.CliffordElement(y[i])
        single = [gr.wedge(ai, bi), gr.delta(v[i], ai), gr.delta_star(v[i], ai, g),
                  gr.right_delta(v[i], ai), gr.right_delta_star(v[i], ai, g), gr.hodge(ai, g),
                  gr.vee(ai, bi, g), ai.grade_project(2), gr.GrassmannElement.from_vector(v[i]),
                  cl.geometric_product(ci, di, g), cl.reversion(ci), cl.even_part(ci),
                  cl.odd_part(ci), cl.grade_project(ci, 3)]
        for many, one in zip(stacked, single):
            assert many.coeffs[i].tobytes() == one.coeffs.tobytes()
        assert a.norm()[i] == pytest.approx(ai.norm(), rel=1e-15)
        assert iso.left_rep(c, g)[i].tobytes() == iso.left_rep(ci, g).tobytes()
        assert iso.right_rep(c, g)[i].tobytes() == iso.right_rep(ci, g).tobytes()
        assert iso.clifford_to_matrix(c, basis)[i].tobytes() == \
            iso.clifford_to_matrix(ci, basis).tobytes()
        assert iso.matrix_to_clifford(matrices, basis).coeffs[i].tobytes() == \
            iso.matrix_to_clifford(matrices[i], basis).coeffs.tobytes()
        assert iso.matrix_wedge(matrices, matrices[::-1], basis)[i].tobytes() == \
            iso.matrix_wedge(matrices[i], matrices[8 - i], basis).tobytes()
    with pytest.raises(ValueError, match="16 coefficients"):
        gr.GrassmannElement(np.zeros((3, 15)))
    assert not stacked[7].coeffs[:, GRADE != 2].any()


def test_stacked_bases_and_waves_equal_per_item(mink, basis, rng):
    bases = [tr.substitute_gammas(rng.normal(size=(4, 4)), basis) for _ in range(5)]
    bases.append(iso.dirac_matrices(random_symmetric_metric(rng)))
    defects = iso.anticommutator_defect(bases)
    assert [float(d) for d in defects] == [iso.anticommutator_defect(b) for b in bases]
    amplitudes = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    exponents = rng.normal(size=(6, 4))
    residuals = dr.PlaneWave(amplitudes, exponents, 0.7).residual(basis)
    for i in range(6):
        assert residuals[i] == dr.PlaneWave(amplitudes[i], exponents[i], 0.7).residual(basis)


def test_stacked_actions_and_residuals_equal_per_map(mink, basis, rng):
    maps = tr.random_lorentz(rng, mink, (12,))
    maps[2::3] *= -1
    blades = iso.gamma_blade_matrices(basis)
    matrices = rng.normal(size=(12, 4, 4)) + 1j * rng.normal(size=(12, 4, 4))
    wave = dr.PlaneWave(np.eye(4), np.array([1.0, 0.2, 0.0, 0.0]), 1.0)
    ratios, factors = tr.spinor_factorization(maps, basis)
    transported = tr.transport_residual(maps, basis, blades)
    covariant = dr.covariance_residual(maps, wave, basis)
    acted = tr.GL4Action(maps, basis)(matrices)
    for i, a in enumerate(maps):
        ratio, factor = tr.spinor_factorization(a, basis)
        assert (ratios[i], factors[i].tobytes()) == (ratio, factor.tobytes())
        assert transported[i] == tr.transport_residual(a, basis, blades)
        assert covariant[i] == dr.covariance_residual(a, wave, basis)
        assert acted[i].tobytes() == tr.GL4Action(a, basis)(matrices[i]).tobytes()
        assert tr.isometry_defect(maps, mink)[i] == tr.isometry_defect(a, mink)
    assert tr.conjugation_singular_values(maps, basis).tobytes() == \
        np.stack([tr.conjugation_singular_values(a, basis) for a in maps]).tobytes()


@pytest.mark.parametrize("bad", [np.diag([1.0, 2.0, 1.0, 1.0]), np.full((4, 4), np.nan),
                                 np.diag([np.inf, 1.0, 1.0, 1.0])], ids=["non-isometry", "nan", "inf"])
def test_one_failing_map_fails_only_itself_and_is_recorded(bad, mink, basis, rng):
    maps = tr.random_lorentz(rng, mink, (7,))
    maps[4] = bad
    blades = iso.gamma_blade_matrices(basis)
    wave = dr.PlaneWave(np.eye(4), np.array([1.0, 0.2, 0.0, 0.0]), 1.0)
    # under the warnings-as-errors setting, so no step warns of the bad map
    residual = tr._lift_stack(maps, basis)[4]
    transported = tr.transport_residual(maps, basis, blades)
    covariant = dr.covariance_residual(maps, wave, basis)
    assert np.isnan(residual[4]) and np.isnan(transported[4]) and np.isnan(covariant[4])
    for i in (0, 1, 2, 3, 5, 6):
        assert residual[i] == tr.spin_lift(maps[i], basis).residual
        assert transported[i] == tr.transport_residual(maps[i], basis, blades)
        assert covariant[i] == dr.covariance_residual(maps[i], wave, basis)
    check = Check("stacked", "transport", None, None, 1e-10,
                  lambda ctx, rng, n: zip(tr.transport_residual(maps, basis, blades), maps),
                  inputs="A")
    result = _run(check, SuiteContext(mink))
    assert (result.status, result.residual, result.samples) == (FAIL, None, 7)
    np.testing.assert_array_equal(np.array(result.inputs["A"]), bad)
    # the one map alone still raises
    with pytest.raises(tr.NotIsometry):
        tr.spin_lift(bad, basis)
