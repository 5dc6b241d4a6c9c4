import numpy as np
import pytest

from spinrep import clifford as cl
from spinrep import grassmann as gr
from spinrep import isomorphisms as iso
from spinrep import transforms as tr
from spinrep._tables import NBLADES
from spinrep.errors import DegenerateMetric

from conftest import (SIGNATURES, frame_metric, preset_metrics, random_element_coeffs,
                      random_lorentz_metric, random_symmetric_metric)


def random_matrix(rng):
    return rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))


# ---------------------------------------------------------------------------
# canonical map

def test_canonical_map_is_coefficient_identity():
    one = gr.GrassmannElement.scalar()
    np.testing.assert_array_equal(iso.to_clifford(one).coeffs,
                                  cl.CliffordElement.unit().coeffs)
    d02 = gr.GrassmannElement.blade(0b0101)
    np.testing.assert_array_equal(iso.to_clifford(d02).coeffs,
                                  cl.CliffordElement.basis_blade(0b0101).coeffs)
    mixed = 2.0 * gr.GrassmannElement.blade(0b0010) + gr.GrassmannElement.blade(0b0011)
    expected = (2.0 * cl.CliffordElement.generator(1)
                + cl.CliffordElement.basis_blade(0b0011))
    np.testing.assert_array_equal(iso.to_clifford(mixed).coeffs, expected.coeffs)


def test_canonical_map_roundtrip():
    for b in range(NBLADES):
        omega = gr.GrassmannElement.blade(b)
        back = iso.to_grassmann(iso.to_clifford(omega))
        np.testing.assert_array_equal(back.coeffs, omega.coeffs)


# ---------------------------------------------------------------------------
# left / right regular representations

def test_left_rep_unit_and_generator(mink):
    np.testing.assert_allclose(iso.left_rep(cl.CliffordElement.unit(), mink),
                               np.eye(NBLADES), atol=1e-15)
    np.testing.assert_allclose(iso.left_rep(cl.CliffordElement.generator(0), mink),
                               gr.gamma_op(0, mink), atol=1e-15)


def test_left_rep_is_homomorphism(mink, rng):
    for _ in range(30):
        a = cl.CliffordElement(random_element_coeffs(rng))
        b = cl.CliffordElement(random_element_coeffs(rng))
        lhs = iso.left_rep(cl.geometric_product(a, b, mink), mink)
        rhs = iso.left_rep(a, mink) @ iso.left_rep(b, mink)
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_left_intertwining(mink, rng):
    worst = 0.0
    for _ in range(100):
        L = cl.CliffordElement(random_element_coeffs(rng))
        M = cl.CliffordElement(random_element_coeffs(rng))
        lhs = cl.geometric_product(L, M, mink).coeffs
        rhs = iso.left_rep(L, mink) @ M.coeffs
        worst = max(worst, np.abs(lhs - rhs).max())
    assert worst < 1e-11


def test_left_intertwining_random_diagonal_metric(rng):
    # the coefficientwise canonical map intertwines left multiplication for
    # any metric, diagonal or not
    diag = np.array([1.7, -0.6, 2.3, -1.1])
    for g in (gr.Metric(np.diag(diag)), random_symmetric_metric(rng)):
        for _ in range(30):
            L = cl.CliffordElement(random_element_coeffs(rng))
            M = cl.CliffordElement(random_element_coeffs(rng))
            lhs = cl.geometric_product(L, M, g).coeffs
            rhs = iso.left_rep(L, g) @ M.coeffs
            np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_right_rep_unit(mink):
    np.testing.assert_allclose(iso.right_rep(cl.CliffordElement.unit(), mink),
                               np.eye(NBLADES), atol=1e-15)


def test_two_sided_intertwining(mink, rng):
    worst = 0.0
    for _ in range(50):
        L = cl.CliffordElement(random_element_coeffs(rng))
        M = cl.CliffordElement(random_element_coeffs(rng))
        R = cl.CliffordElement(random_element_coeffs(rng))
        lmr = cl.geometric_product(cl.geometric_product(L, M, mink), R, mink).coeffs
        rhs = iso.left_rep(L, mink) @ (iso.right_rep(R, mink) @ M.coeffs)
        worst = max(worst, np.abs(lmr - rhs).max())
    assert worst < 1e-11


def test_single_gamma_two_sided(mink, rng):
    g0 = cl.CliffordElement.generator(0)
    g1 = cl.CliffordElement.generator(1)
    for _ in range(50):
        M = cl.CliffordElement(random_element_coeffs(rng))
        lhs = cl.geometric_product(cl.geometric_product(g0, M, mink), g1, mink).coeffs
        rhs = iso.left_rep(g0, mink) @ (iso.right_rep(g1, mink) @ M.coeffs)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_left_right_commute(mink, rng):
    for _ in range(50):
        a = iso.left_rep(cl.CliffordElement(random_element_coeffs(rng)), mink)
        b = iso.right_rep(cl.CliffordElement(random_element_coeffs(rng)), mink)
        assert np.abs(a @ b - b @ a).max() < 1e-11


def test_right_rep_is_antihomomorphism(mink, rng):
    for _ in range(30):
        a = cl.CliffordElement(random_element_coeffs(rng))
        b = cl.CliffordElement(random_element_coeffs(rng))
        lhs = iso.right_rep(cl.geometric_product(a, b, mink), mink)
        rhs = iso.right_rep(b, mink) @ iso.right_rep(a, mink)
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)


# ---------------------------------------------------------------------------
# concrete gamma matrices

def test_standard_basis_block_form(mink, basis):
    np.testing.assert_array_equal(basis.gammas[0], np.diag([1, 1, -1, -1]).astype(complex))
    assert iso.anticommutator_defect(basis) < 1e-13


def test_dirac_matrices_other_signature():
    g = gr.minkowski("-+++")
    basis = iso.dirac_matrices(g)
    assert iso.anticommutator_defect(basis) < 1e-13


def test_dirac_matrices_scaled_diagonal():
    g = gr.Metric(np.diag([4.0, -9.0, -1.0, -0.25]))
    basis = iso.dirac_matrices(g)
    assert iso.anticommutator_defect(basis) < 1e-13


def test_dirac_matrices_factored_metrics(mink, rng):
    for _ in range(20):
        a = tr.random_lorentz(rng, mink) @ (np.eye(4) + 0.2 * rng.normal(size=(4, 4)))
        try:
            g = tr.metric_pullback(a, mink)
        except DegenerateMetric:
            continue
        basis = iso.dirac_matrices(g)
        assert iso.anticommutator_defect(basis) < 1e-11


def test_dirac_matrices_degenerate_raises(basis):
    # a degenerate form cannot reach dirac_matrices: neither the metric nor
    # the pullback along a singular map can be constructed
    with pytest.raises(DegenerateMetric):
        gr.Metric(np.zeros((4, 4)))
    with pytest.raises(DegenerateMetric):
        tr.substitute_gammas(np.diag([1.0, 1.0, 1.0, 0.0]), basis)


def test_gamma_basis_is_a_value(basis):
    signed = basis.gammas.copy()
    zero = np.argwhere(signed == 0)[0]
    signed[tuple(zero)] = complex(-0.0, -0.0)
    a, b = iso.GammaBasis(basis.gammas.copy(), basis.metric), iso.GammaBasis(signed, basis.metric)
    assert np.signbit(b.gammas[tuple(zero)].real)
    assert a == b == basis and hash(a) == hash(b) == hash(basis)
    assert a != iso.GammaBasis(2.0 * basis.gammas, basis.metric)


def test_dirac_matrices_every_signature():
    rng = np.random.default_rng(7)
    metrics = [gr.Metric(np.diag(d) * [1.0, 2.0, 0.5, 3.0]) for d in SIGNATURES]
    metrics += [frame_metric(rng, d) for d in SIGNATURES for _ in range(20)]
    for g in metrics:
        assert iso.anticommutator_defect(iso.dirac_matrices(g)) <= 1e-13 * np.abs(g.g).max()


def _three_branch_dirac_matrices(g):
    """The former Lorentz-only route, kept as the oracle for the one route."""
    base = iso._standard_gammas()
    diag = np.diagonal(g.g)
    if np.count_nonzero(g.g - np.diag(diag)) == 0:
        pattern = tuple(np.sign(diag).astype(int))
        if pattern == (1, -1, -1, -1):
            return np.sqrt(np.abs(diag))[:, None, None] * base
        if pattern == (-1, 1, 1, 1):
            return np.sqrt(np.abs(diag))[:, None, None] * (1j * base)
    evals, evecs = np.linalg.eigh(g.g)
    n_pos = int(np.count_nonzero(evals > 0))
    assert n_pos in (1, 3)
    if n_pos == 1:
        perm = [3, 0, 1, 2]  # positive eigenvalue first, matching (+,-,-,-)
    else:
        perm = [0, 1, 2, 3]  # negative eigenvalue first, matching (-,+,+,+)
        base = 1j * base
    factor = np.sqrt(np.abs(evals[perm]))[:, None] * evecs[:, perm].T
    return np.einsum("nm,nij->mij", factor, base)


def test_dirac_matrices_equal_three_branch_route_on_lorentz_metrics():
    rng = np.random.default_rng(11)
    metrics = preset_metrics() + [gr.Metric(np.diag([4.0, -9.0, -1.0, -0.25]))]
    for _ in range(200):
        g = random_lorentz_metric(rng)
        metrics += [g, gr.Metric(-g.g)]  # one and three positive eigenvalues
    for g in metrics:
        assert iso.dirac_matrices(g).gammas.tobytes() == _three_branch_dirac_matrices(g).tobytes()


# ---------------------------------------------------------------------------
# matrix representation

def test_clifford_to_matrix_unit(basis):
    np.testing.assert_array_equal(iso.clifford_to_matrix(cl.CliffordElement.unit(), basis),
                                  np.eye(4).astype(complex))


def test_matrix_representation_homomorphism(mink, basis, rng):
    worst = 0.0
    for _ in range(100):
        a = cl.CliffordElement(random_element_coeffs(rng))
        b = cl.CliffordElement(random_element_coeffs(rng))
        lhs = iso.clifford_to_matrix(cl.geometric_product(a, b, mink), basis)
        rhs = iso.clifford_to_matrix(a, basis) @ iso.clifford_to_matrix(b, basis)
        worst = max(worst, np.abs(lhs - rhs).max())
    assert worst < 1e-11


def test_matrix_basis_rank_16(basis, rng):
    for b in [basis] + [iso.dirac_matrices(random_symmetric_metric(rng)) for _ in range(20)]:
        flat = iso.gamma_blade_matrices(b).reshape(NBLADES, 16)
        assert np.linalg.matrix_rank(flat) == NBLADES


def test_matrix_roundtrip(basis, rng):
    for _ in range(20):
        m = random_matrix(rng)
        back = iso.clifford_to_matrix(iso.matrix_to_clifford(m, basis), basis)
        np.testing.assert_allclose(back, m, atol=1e-12)


# ---------------------------------------------------------------------------
# matrix wedge

def test_matrix_wedge_nilpotent_generators(basis):
    for mu in range(4):
        got = iso.matrix_wedge(basis.gammas[mu], basis.gammas[mu], basis)
        assert np.abs(got).max() < 1e-13


def test_matrix_wedge_ordered_pair_is_product(basis):
    got = iso.matrix_wedge(basis.gammas[0], basis.gammas[1], basis)
    np.testing.assert_allclose(got, basis.gammas[0] @ basis.gammas[1], atol=1e-13)
    anti = iso.matrix_wedge(basis.gammas[1], basis.gammas[0], basis)
    np.testing.assert_allclose(anti, -got, atol=1e-13)


def test_matrix_wedge_unit_law(basis, rng):
    eye = np.eye(4)
    for _ in range(20):
        m = random_matrix(rng)
        np.testing.assert_allclose(iso.matrix_wedge(eye, m, basis), m, atol=1e-12)
        np.testing.assert_allclose(iso.matrix_wedge(m, eye, basis), m, atol=1e-12)


def test_matrix_wedge_associative(basis, rng):
    worst = 0.0
    for _ in range(100):
        a, b, c = (random_matrix(rng) for _ in range(3))
        lhs = iso.matrix_wedge(iso.matrix_wedge(a, b, basis), c, basis)
        rhs = iso.matrix_wedge(a, iso.matrix_wedge(b, c, basis), basis)
        worst = max(worst, np.abs(lhs - rhs).max())
    assert worst < 1e-11


def test_matrix_wedge_anticommutative_on_vectors(basis, rng):
    # odd-grade-1 images anticommute under the transported product
    for _ in range(50):
        u = rng.normal(size=4) + 1j * rng.normal(size=4)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        mu_mat = np.einsum("m,mij->ij", u, basis.gammas)
        mv_mat = np.einsum("m,mij->ij", v, basis.gammas)
        lhs = iso.matrix_wedge(mu_mat, mv_mat, basis)
        rhs = iso.matrix_wedge(mv_mat, mu_mat, basis)
        np.testing.assert_allclose(lhs, -rhs, atol=1e-11)


def test_left_rep_transport_closes_triangle(mink, basis, rng):
    # multiplying abstractly, then mapping to matrices, agrees with applying
    # the 16-dim operator and mapping the result
    for _ in range(50):
        L = cl.CliffordElement(random_element_coeffs(rng))
        M = cl.CliffordElement(random_element_coeffs(rng))
        via_op = cl.CliffordElement(iso.left_rep(L, mink) @ M.coeffs)
        lhs = iso.clifford_to_matrix(via_op, basis)
        rhs = iso.clifford_to_matrix(L, basis) @ iso.clifford_to_matrix(M, basis)
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)
