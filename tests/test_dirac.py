import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinrep import clifford as cl
from spinrep import dirac as dr
from spinrep import grassmann as gr
from spinrep import isomorphisms as iso
from spinrep import transforms as tr
from spinrep._tables import NBLADES
from spinrep.errors import NotIsometry

from conftest import random_element_coeffs


def null_space_dim_oracle(m, rel_tol=1e-8):
    """Null-space dimension by singular values, independent of any eigensolver."""
    svals = np.linalg.svd(m, compute_uv=False)
    scale = max(float(svals[0]), 1.0)
    return int(np.count_nonzero(svals <= rel_tol * scale))


def random_massive_exponent(rng, g, m):
    while True:
        lam = rng.normal(size=4) + 1j * rng.normal(size=4)
        q = g.inner(lam, lam)
        if abs(q) > 1e-3:
            return lam * (m / np.sqrt(q))


def random_solution(rng, g, basis, m=1.2 + 0.4j):
    lam = random_massive_exponent(rng, g, m)
    sols = dr.plane_wave_solutions(lam, m, basis)
    coeffs = rng.normal(size=sols.dimension)
    return dr.PlaneWave(np.einsum("i,ijk->jk", coeffs, sols.matrix_basis), lam, m)


# ---------------------------------------------------------------------------
# symbol

def test_symbol_basis_vector(basis):
    np.testing.assert_array_equal(
        dr.symbol_matrix(np.array([1, 0, 0, 0], complex), basis), basis.gammas[0])


def test_symbol_zero(basis):
    assert np.abs(dr.symbol_matrix(np.zeros(4, complex), basis)).max() == 0


def test_symbol_squares_to_metric_norm(mink, basis, rng):
    worst = 0.0
    for _ in range(50):
        lam = rng.normal(size=4) + 1j * rng.normal(size=4)
        s = dr.symbol_matrix(lam, basis)
        worst = max(worst, np.abs(s @ s - mink.inner(lam, lam) * np.eye(4)).max())
    assert worst < 1e-11


# ---------------------------------------------------------------------------
# solution spaces

def test_rest_frame_solutions(mink, basis):
    m = 1.5
    sols = dr.plane_wave_solutions(np.array([m, 0, 0, 0], complex), m, basis)
    assert sols.column_dimension == 2
    assert sols.dimension == 8
    # oracle: the +1 eigenspace of the first generator matrix is the top block
    span = sols.column_basis
    top = np.abs(span[:2]).sum()
    bottom = np.abs(span[2:]).sum()
    assert bottom < 1e-12 and top > 1.0 - 1e-12
    for n in sols.matrix_basis:
        assert dr.PlaneWave(n, np.array([m, 0, 0, 0], complex), m).residual(basis) < 1e-12


def test_mismatched_mass_gives_empty_space(basis):
    sols = dr.plane_wave_solutions(np.array([1, 0, 0, 0], complex), 2.0, basis)
    assert sols.column_dimension == 0
    assert sols.matrix_basis.shape == (0, 4, 4)


def test_solution_dimensions_match_null_space_oracle(mink, basis, rng):
    for _ in range(20):
        m = rng.normal() + 1j * rng.normal()
        if abs(m) < 0.5:
            m += 0.7
        lam = random_massive_exponent(rng, mink, m)
        sols = dr.plane_wave_solutions(lam, m, basis)
        oracle = null_space_dim_oracle(dr.symbol_matrix(lam, basis) - m * np.eye(4))
        assert sols.column_dimension == oracle == 2
    for _ in range(20):
        m = rng.normal() + 1j * rng.normal()
        lam = rng.normal(size=4) + 1j * rng.normal(size=4)
        if abs(mink.inner(lam, lam) - m * m) < 0.1:
            lam = lam * 2.0
        sols = dr.plane_wave_solutions(lam, m, basis)
        oracle = null_space_dim_oracle(dr.symbol_matrix(lam, basis) - m * np.eye(4))
        assert sols.column_dimension == oracle == 0


def test_lightlike_massless_solutions(mink, basis, rng):
    for _ in range(10):
        tail = rng.normal(size=3) + 1j * rng.normal(size=3)
        head = np.sqrt(np.sum(tail**2))  # makes the exponent null
        lam = np.concatenate([[head], tail])
        assert abs(mink.inner(lam, lam)) < 1e-10
        sols = dr.plane_wave_solutions(lam, 0.0, basis)
        assert sols.column_dimension == 2
        for n in sols.matrix_basis:
            assert dr.PlaneWave(n, lam, 0.0).residual(basis) < 1e-10


def test_right_multiplication_closure(mink, basis, rng):
    wave = random_solution(rng, mink, basis)
    for _ in range(20):
        r = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        moved = dr.PlaneWave(wave.amplitude @ r, wave.exponent, wave.mass)
        assert moved.residual(basis) < 1e-11


def test_is_solution_flag(mink, basis, rng):
    wave = random_solution(rng, mink, basis)
    assert wave.residual(basis) < 1e-10
    broken = dr.PlaneWave(wave.amplitude + 0.1 * np.eye(4), wave.exponent, wave.mass)
    assert broken.residual(basis) > 1e-3


# ---------------------------------------------------------------------------
# operator form of the symbol

def test_hodge_dirac_is_weighted_generator_sum(mink, rng):
    lam = rng.normal(size=4) + 1j * rng.normal(size=4)
    direct = sum(lam[i] * gr.gamma_op(i, mink) for i in range(4))
    np.testing.assert_array_equal(dr.hodge_dirac_symbol(lam, mink), direct)


def test_hodge_dirac_transport(mink, rng):
    worst = 0.0
    for _ in range(50):
        lam = rng.normal(size=4) + 1j * rng.normal(size=4)
        h = dr.hodge_dirac_symbol(lam, mink)
        omega = random_element_coeffs(rng)
        rhs = cl.geometric_product(dr.symbol_element(lam), cl.CliffordElement(omega),
                                   mink).coeffs
        worst = max(worst, np.abs(h @ omega - rhs).max())
    assert worst < 1e-11


def test_hodge_dirac_square(mink, rng):
    worst = 0.0
    for _ in range(50):
        lam = rng.normal(size=4) + 1j * rng.normal(size=4)
        h = dr.hodge_dirac_symbol(lam, mink)
        worst = max(worst, np.abs(h @ h - mink.inner(lam, lam) * np.eye(NBLADES)).max())
    assert worst < 1e-11


# ---------------------------------------------------------------------------
# covariance

def test_identity_keeps_residual(mink, basis, rng):
    wave = random_solution(rng, mink, basis)
    assert abs(dr.covariance_residual(np.eye(4), wave, basis) - wave.residual(basis)) < 1e-12


def test_covariance_random_isometries(mink, basis, rng):
    worst = 0.0
    for _ in range(5):
        wave = random_solution(rng, mink, basis, m=0.8 + 0.3j * rng.random())
        for _ in range(4):
            a = tr.random_lorentz(rng, mink)
            worst = max(worst, dr.covariance_residual(a, wave, basis))
    assert worst < 1e-10


def test_covariance_rejects_non_isometry(mink, basis, rng):
    wave = random_solution(rng, mink, basis)
    with pytest.raises(NotIsometry):
        dr.covariance_residual(np.diag([1.0, 2.0, 1.0, 1.0]), wave, basis)


def test_non_solution_has_positive_residual(mink, basis, rng):
    wave = random_solution(rng, mink, basis)
    broken = dr.PlaneWave(wave.amplitude + np.eye(4), wave.exponent, wave.mass)
    a = tr.random_lorentz(rng, mink)
    assert dr.covariance_residual(a, broken, basis) > 1e-3


# ---------------------------------------------------------------------------
# spinor factorization: the GL(4) action on Mat(4) = S (x) S* realigned

METRICS = {
    "minkowski": gr.minkowski(),
    "minkowski-+++": gr.Metric(np.diag([-1.0, 1.0, 1.0, 1.0])),
    "non-diagonal": gr.Metric(np.array([[1.0, 0.3, 0.0, 0.0], [0.3, -1.0, 0.0, 0.0],
                                        [0.0, 0.0, -1.0, 0.2], [0.0, 0.0, 0.2, -1.0]])),
}


def time_reversal(g):
    """Reflection along e_0 in g; diag(-1, 1, 1, 1) on a diagonal metric."""
    e0 = np.eye(4)[0]
    return np.eye(4) - 2.0 * np.outer(e0, g.g @ e0) / g.g[0, 0]


ISOMETRIES = {
    "random": lambda rng, g: tr.random_lorentz(rng, g),
    "negated": lambda rng, g: -tr.random_lorentz(rng, g),
    "parity": lambda rng, g: -time_reversal(g),
    "time-reversal": lambda rng, g: time_reversal(g),
    "minus-identity": lambda rng, g: -np.eye(4),
}

NON_ISOMETRIES = {
    "diag(1,2,3,4)": lambda rng, g: [np.diag([1.0, 2.0, 3.0, 4.0])],
    "random": lambda rng, g: [tr.random_invertible_non_isometry(rng, g) for _ in range(20)],
}

on_isometries = pytest.mark.parametrize(
    "metric, kind", [(m, k) for m in METRICS for k in ISOMETRIES])


def conjugated_gammas(m, basis):
    """m gamma_mu m^-1, which does not depend on the scale or phase of m."""
    return m @ basis.gammas @ np.linalg.inv(m)


@on_isometries
def test_isometry_ratio_vanishes(metric, kind, rng):
    g = METRICS[metric]
    a = ISOMETRIES[kind](rng, g)
    assert tr.isometry_defect(a, g) < 1e-12
    assert tr.spinor_factorization(a, iso.dirac_matrices(g))[0] < 1e-12


@on_isometries
def test_realigned_factor_is_the_spin_lift(metric, kind, rng):
    g = METRICS[metric]
    basis = iso.dirac_matrices(g)
    a = ISOMETRIES[kind](rng, g)
    factor = tr.spinor_factorization(a, basis)[1]
    lift = tr.spin_lift(a, basis).matrix
    assert np.abs(conjugated_gammas(factor, basis) - conjugated_gammas(lift, basis)).max() < 1e-10


@pytest.mark.parametrize("metric", ["minkowski", "non-diagonal"])
@pytest.mark.parametrize("c", [0.1, 0.5, 1.5, 2.0, 3.0, 7.0, -2.0, -0.5])
def test_conformal_ratio_oracle(metric, c, rng):
    # c Lambda scales grade k by c^k on top of a conjugation; the realigned
    # operator's two largest singular values are then in ratio ||c| - 1| / (|c| + 1)
    g = METRICS[metric]
    ratio = tr.spinor_factorization(c * tr.random_lorentz(rng, g), iso.dirac_matrices(g))[0]
    assert abs(ratio - abs(abs(c) - 1.0) / (abs(c) + 1.0)) < 1e-13


@pytest.mark.parametrize("metric, kind", [(m, k) for m in METRICS for k in NON_ISOMETRIES])
def test_non_isometry_ratio_stays_large(metric, kind, rng):
    g = METRICS[metric]
    basis = iso.dirac_matrices(g)
    assert min(tr.spinor_factorization(a, basis)[0] for a in NON_ISOMETRIES[kind](rng, g)) > 1e-3


@pytest.mark.parametrize("a", [np.zeros((4, 4)), np.diag([1.0, 1.0, 1.0, 0.0])],
                         ids=["zero", "rank-3"])
def test_singular_map_raises(a, basis):
    with pytest.raises(ValueError):
        tr.spinor_factorization(a, basis)


@settings(max_examples=40, deadline=None)
@given(st.integers(-20, 20), st.integers(0, 2**32 - 1))
def test_isometry_ratio_does_not_depend_on_metric_scale(j, seed):
    # 2^j is exact, so the isometries of 2^j eta are those of eta; det_tol=0
    # admits the scales whose |det| falls below the default degeneracy bound
    g = gr.Metric(2.0**j * np.diag([1.0, -1.0, -1.0, -1.0]), det_tol=0.0)
    a = tr.random_lorentz(np.random.default_rng(seed), g)
    assert tr.spinor_factorization(a, iso.dirac_matrices(g))[0] < 1e-12
