import numpy as np
import pytest
from scipy.linalg import expm

from spinrep import clifford as cl
from spinrep import dirac as dr
from spinrep import grassmann as gr
from spinrep import isomorphisms as iso
from spinrep import transforms as tr
from spinrep._tables import BLADE_BITS, GRADE, NBLADES
from spinrep.errors import LiftNotFound, NotIsometry

from conftest import random_symmetric_metric


def rotation_12(theta, mink):
    k = np.zeros((4, 4))
    k[1, 2], k[2, 1] = -theta, theta
    return expm(np.linalg.solve(mink.g, k))


def boost_01(chi, mink):
    k = np.zeros((4, 4))
    k[0, 1], k[1, 0] = chi, -chi
    return expm(np.linalg.solve(mink.g, k))


SKEW = gr.Metric(np.array([1, 0.3, 0, 0, 0.3, -1, 0, 0,
                           0, 0, -1, 0.2, 0, 0, 0.2, -1.0]).reshape(4, 4))


@pytest.fixture(scope="module")
def skew_basis():
    return iso.dirac_matrices(SKEW)


def conjugations_agree(m1, m2, basis, tol=1e-10):
    """Whether two invertible matrices induce the same conjugation map."""
    inv1, inv2 = np.linalg.inv(m1), np.linalg.inv(m2)
    worst = 0.0
    for mu in range(4):
        worst = max(worst, np.abs(m1 @ basis.gammas[mu] @ inv1
                                  - m2 @ basis.gammas[mu] @ inv2).max())
    return worst < tol


# ---------------------------------------------------------------------------
# substitution and pullback

def test_substitute_identity(basis):
    out = tr.substitute_gammas(np.eye(4), basis)
    np.testing.assert_array_equal(out.gammas, basis.gammas)
    np.testing.assert_array_equal(out.metric.g, basis.metric.g)


def test_substitute_scaling(mink, basis):
    a = np.diag([2.0, 1.0, 1.0, 1.0])
    out = tr.substitute_gammas(a, basis)
    np.testing.assert_allclose(out.gammas[0], 2.0 * basis.gammas[0], atol=1e-15)
    np.testing.assert_allclose(out.metric.g, np.diag([4.0, -1.0, -1.0, -1.0]), atol=1e-15)


def test_substitution_represents_pulled_back_metric(basis, rng):
    eye = np.eye(4)
    for _ in range(30):
        a = rng.normal(size=(4, 4))
        out = tr.substitute_gammas(a, basis)
        for mu in range(4):
            for nu in range(4):
                ac = out.gammas[mu] @ out.gammas[nu] + out.gammas[nu] @ out.gammas[mu]
                assert np.abs(ac - 2 * out.metric.g[mu, nu] * eye).max() < 1e-11


def test_metric_pullback(mink, rng):
    np.testing.assert_array_equal(tr.metric_pullback(np.eye(4), mink).g, mink.g)
    a = tr.random_lorentz(rng, mink)
    np.testing.assert_allclose(tr.metric_pullback(a, mink).g, mink.g, atol=1e-12)
    a = np.diag([2.0, 1.0, 1.0, 1.0])
    np.testing.assert_allclose(tr.metric_pullback(a, mink).g,
                               np.diag([4.0, -1.0, -1.0, -1.0]), atol=1e-15)


# ---------------------------------------------------------------------------
# spin lift

def test_lift_identity(basis):
    s = tr.spin_lift(np.eye(4), basis)
    np.testing.assert_allclose(s.matrix, np.eye(4), atol=1e-12)
    assert s.parity == "even"
    assert s.residual < 1e-12


def test_lift_rotation_closed_form(mink, basis):
    theta = 0.7
    a = rotation_12(theta, mink)
    s = tr.spin_lift(a, basis)
    # oracle: cos(theta/2) Id - sin(theta/2) g1 g2, fixed up to global sign
    expected = np.zeros(NBLADES, dtype=complex)
    expected[0] = np.cos(theta / 2)
    expected[0b0110] = -np.sin(theta / 2)
    match = min(np.abs(s.element.coeffs - expected).max(),
                np.abs(s.element.coeffs + expected).max())
    assert match < 1e-10
    assert s.parity == "even"
    assert s.residual < 1e-12


def test_lift_quarter_turn(mink, basis):
    a = rotation_12(np.pi / 2, mink)
    s = tr.spin_lift(a, basis)
    expected = np.zeros(NBLADES, dtype=complex)
    expected[0] = np.sqrt(0.5)
    expected[0b0110] = -np.sqrt(0.5)
    match = min(np.abs(s.element.coeffs - expected).max(),
                np.abs(s.element.coeffs + expected).max())
    assert match < 1e-10


def test_lift_boost_closed_form(mink, basis):
    chi = 1.3
    a = boost_01(chi, mink)
    s = tr.spin_lift(a, basis)
    expected = np.zeros(NBLADES, dtype=complex)
    expected[0] = np.cosh(chi / 2)
    expected[0b0011] = -np.sinh(chi / 2)
    match = min(np.abs(s.element.coeffs - expected).max(),
                np.abs(s.element.coeffs + expected).max())
    assert match < 1e-10
    assert s.parity == "even"


def test_lift_rejects_non_isometry(basis):
    with pytest.raises(NotIsometry):
        tr.spin_lift(np.diag([1.0, 2.0, 1.0, 1.0]), basis)


@pytest.mark.parametrize("a", [np.full((4, 4), np.nan), np.diag([np.inf, 1.0, 1.0, 1.0])],
                         ids=["nan", "inf"])
def test_non_finite_map_is_not_an_isometry(a, basis):
    # rejected before any arithmetic, so numpy warns of nothing
    wave = dr.PlaneWave(np.eye(4), np.array([1.0, 0.2, 0.0, 0.0]), 1.0)
    calls = (lambda: tr.spin_lift(a, basis),
             lambda: tr.transport_residual(a, basis, basis.gammas),
             lambda: dr.covariance_residual(a, wave, basis),
             lambda: tr.isometry_defect(a, basis.metric))
    for call in calls:
        with pytest.raises(NotIsometry, match="map entries must be finite"):
            call()


@pytest.mark.parametrize("a", [np.diag([1.0, 2.0, 1.0, 1.0]), np.full((4, 4), 1e150), 1e300 * np.eye(4)],
                         ids=["stretch", "large", "overflow"])
def test_non_isometry_raises_before_the_solve(a, basis, monkeypatch):
    # a single map that is not an isometry never reaches LAPACK
    def solve(*args, **kwargs):
        raise AssertionError("a non-isometry reached the solve")

    monkeypatch.setattr(np.linalg, "svd", solve)
    monkeypatch.setattr(np.linalg, "det", solve)
    wave = dr.PlaneWave(np.eye(4), np.array([1.0, 0.2, 0.0, 0.0]), 1.0)
    for call in (lambda: tr.spin_lift(a, basis),
                 lambda: tr.transport_residual(a, basis, basis.gammas),
                 lambda: dr.covariance_residual(a, wave, basis)):
        with pytest.raises(NotIsometry, match="max entry"):
            call()


def test_lift_without_an_isolated_null_vector_raises(basis):
    # 2 I passes a tolerance of 100, but no element conjugates g_mu into 2 g_mu
    with pytest.raises(LiftNotFound, match="no isolated null vector"):
        tr.spin_lift(2 * np.eye(4), basis, 100.0)


def test_lift_discrete_maps(mink, basis):
    p = tr.spin_lift(tr.parity_matrix(), basis)
    assert p.parity == "odd" and p.residual < 1e-12
    # the parity lift is the time generator itself
    assert abs(abs(p.element.coeffs[0b0001]) - 1.0) < 1e-10
    t = tr.spin_lift(tr.time_reversal_matrix(), basis)
    assert t.parity == "odd" and t.residual < 1e-12
    assert abs(abs(t.element.coeffs[0b1110]) - 1.0) < 1e-10
    pt = tr.spin_lift(-np.eye(4), basis)
    assert pt.parity == "even" and pt.residual < 1e-12
    assert abs(abs(pt.element.coeffs[0b1111]) - 1.0) < 1e-10


def test_lift_random_lorentz_residuals(mink, basis, rng):
    worst = 0.0
    for _ in range(50):
        a = tr.random_lorentz(rng, mink)
        s = tr.spin_lift(a, basis)
        worst = max(worst, s.residual)
        assert s.parity == "even"
        assert abs(np.linalg.det(s.matrix) - 1.0) < 1e-9
    assert worst < 1e-10


def test_lift_projective_homomorphism(mink, basis, rng):
    for _ in range(30):
        a, b = tr.random_lorentz(rng, mink), tr.random_lorentz(rng, mink)
        sa, sb = tr.spin_lift(a, basis), tr.spin_lift(b, basis)
        sab = tr.spin_lift(a @ b, basis)
        assert conjugations_agree(sa.matrix @ sb.matrix, sab.matrix, basis)


def test_lift_deterministic_branch(mink, basis, rng):
    a = tr.random_lorentz(rng, mink)
    s1, s2 = tr.spin_lift(a, basis), tr.spin_lift(a, basis)
    np.testing.assert_array_equal(s1.matrix, s2.matrix)


def test_values_holding_arrays_compare_by_identity(mink, basis, rng):
    # equal values from two calls are still two objects; comparing arrays
    # field by field would raise, and arrays have no hash
    a = tr.random_lorentz(rng, mink)
    lam = np.array([1.0, 0.2, 0.0, 0.0])
    pairs = [
        (tr.spin_lift(a, basis), tr.spin_lift(a, basis)),
        (gr.GrassmannElement.blade(3), gr.GrassmannElement.blade(3)),
        (cl.CliffordElement.generator(1), cl.CliffordElement.generator(1)),
        (dr.PlaneWave(np.eye(4), lam, 1.0), dr.PlaneWave(np.eye(4), lam, 1.0)),
        (dr.plane_wave_solutions(lam, 1.0, basis), dr.plane_wave_solutions(lam, 1.0, basis)),
    ]
    for x, y in pairs:
        assert x == x and x != y
        assert len({x, y}) == 2


def test_no_lift_for_random_non_isometries(mink, basis, rng):
    smallest = np.inf
    maps = [np.diag([1.0, 2.0, 3.0, 4.0])]
    maps += [tr.random_invertible_non_isometry(rng, mink) for _ in range(30)]
    for a in maps:
        svals = tr.conjugation_singular_values(a, basis)
        smallest = min(smallest, svals[-1])
    assert smallest > 1e-6


def kron_conjugation_system(a, basis):
    """The conjugation system as a stack of Kronecker products, one mu at a time."""
    eye = np.eye(4, dtype=np.complex128)
    rows = []
    for mu in range(4):
        gp = np.einsum("n,nij->ij", a[:, mu], basis.gammas)
        rows.append(np.kron(eye, basis.gammas[mu].T) - np.kron(gp, eye))
    return np.vstack(rows)


def test_conjugation_system_equals_kron_stack(basis, skew_basis, rng):
    for b in (basis, skew_basis):
        for _ in range(10):
            a = rng.normal(size=(4, 4))
            np.testing.assert_array_equal(tr.conjugation_system(a, b),
                                          kron_conjugation_system(a, b))


def oracle_lift_matrix(a, basis):
    """The lift from the matrix-space route: the full-SVD null vector of the
    complex conjugation system, turned so that its largest-magnitude blade
    coefficient is positive, then scaled to unit determinant."""
    _, _, vh = np.linalg.svd(tr.conjugation_system(a, basis))
    m = vh[-1].conj().reshape(4, 4)
    coeffs = iso.matrix_to_clifford(m, basis).coeffs
    largest = coeffs[np.argmax(np.abs(coeffs))]
    m = m * (abs(largest) / largest)
    return m / np.linalg.det(m) ** 0.25


def anisotropic_lorentz_metric():
    """F^T eta F for F = Q1 diag(1, 2, 0.7, 8) Q2."""
    rng = np.random.default_rng(7)
    q1, q2 = (np.linalg.qr(rng.normal(size=(4, 4)))[0] for _ in range(2))
    f = q1 @ np.diag([1.0, 2.0, 0.7, 8.0]) @ q2
    m = f.T @ np.diag([1.0, -1.0, -1.0, -1.0]) @ f
    return gr.Metric((m + m.T) / 2.0)


ETA = np.diag([1.0, -1.0, -1.0, -1.0])
ORACLE_METRICS = [gr.Metric(ETA), SKEW, gr.Metric(3.0 * np.eye(4)),
                  gr.Metric(np.diag([1.0, 1.0, -1.0, -1.0])), gr.Metric(-np.eye(4)),
                  anisotropic_lorentz_metric(), gr.Metric(0.0015 * ETA), gr.Metric(30.0 * ETA)]


def random_reflection(rng, g):
    """The g-reflection I - 2 v v^T g / (v^T g v) along a random v that is not
    nearly null, |v^T g v| > 0.1 max|g|: an isometry of determinant -1."""
    while True:
        v = rng.normal(size=4)
        norm = v @ g.g @ v
        if abs(norm) > 0.1 * np.abs(g.g).max():
            return np.eye(4) - 2.0 * np.outer(v, g.g @ v) / norm


def oracle_maps(rng, g):
    """Isometries of ``g`` of both parities: +-A, products, and g-reflections."""
    maps = [tr.random_lorentz(rng, g) * (-1 if i % 3 == 2 else 1) for i in range(9)]
    maps += [tr.random_lorentz(rng, g) @ tr.random_lorentz(rng, g) for _ in range(6)]
    # the odd block: reflections, alone and composed with isometries on either side
    maps += [random_reflection(rng, g), random_reflection(rng, g) @ tr.random_lorentz(rng, g),
             tr.random_lorentz(rng, g) @ random_reflection(rng, g),
             -random_reflection(rng, g) @ tr.random_lorentz(rng, g),
             random_reflection(rng, g) @ random_reflection(rng, g) @ tr.random_lorentz(rng, g)]
    return maps


ORACLE_IDS = ["eta", "non-diagonal", "3I", "split", "-I", "frame", "0.0015eta", "30eta"]


@pytest.mark.parametrize("g", ORACLE_METRICS, ids=ORACLE_IDS)
def test_spin_lift_matches_matrix_space_oracle(g, rng):
    b = iso.dirac_matrices(g)
    for a in oracle_maps(rng, g):
        expected = oracle_lift_matrix(a, b)
        lift = tr.spin_lift(a, b)
        assert np.abs(lift.matrix - expected).max() <= 1e-12 * np.abs(expected).max()
        assert lift.parity == ("even" if np.linalg.det(a) > 0 else "odd")


def recorded_gates(monkeypatch):
    """Every call of the lift's accept gate: its two blocks' singular values
    and what it returned."""
    calls = []
    gate = tr._gate

    def record(even, odd):
        calls.append((even, odd, gate(even, odd)))
        return calls[-1][2]

    monkeypatch.setattr(tr, "_gate", record)
    return calls


def assert_gate_reads_the_sorted_values(calls):
    for even, odd, (block, smallest, next_smallest) in calls:
        values = np.array(even + odd)
        low = np.sort(values)[:2] / values.max()
        assert (smallest, next_smallest) == (low[0], low[1])
        assert block == int(odd[-1] < even[-1])


@pytest.mark.parametrize("g", ORACLE_METRICS, ids=ORACLE_IDS)
def test_gate_equals_the_two_smallest_of_the_sorted_values(g, rng, monkeypatch):
    # the gate reads the per-block minima; they give what sorting all 16 gives
    b = iso.dirac_matrices(g)
    maps = oracle_maps(rng, g)
    calls = recorded_gates(monkeypatch)
    for a in maps:
        tr.spin_lift(a, b)
    tr._lift_stack(np.stack(maps), b)
    assert len(calls) == 2 * len(maps)
    assert_gate_reads_the_sorted_values(calls)


def test_gate_equals_the_sorted_values_without_a_lift(basis, monkeypatch):
    calls = recorded_gates(monkeypatch)
    with pytest.raises(LiftNotFound):
        tr.spin_lift(2 * np.eye(4), basis, 100.0)
    assert len(calls) == 1
    assert_gate_reads_the_sorted_values(calls)


def test_gate_equals_the_sorted_values_on_any_blocks(rng):
    # lifts rarely put the next smallest value in the block of the smallest;
    # random blocks, with ties, put it anywhere
    calls = []
    for _ in range(200):
        even, odd = (sorted(rng.integers(1, 6, size=8).tolist(), reverse=True) for _ in range(2))
        calls.append((even, odd, tr._gate(even, odd)))
    assert_gate_reads_the_sorted_values(calls)


@pytest.mark.parametrize("g", ORACLE_METRICS, ids=ORACLE_IDS)
def test_spin_lift_is_real_with_unit_determinant(g, rng):
    b = iso.dirac_matrices(g)
    for a in oracle_maps(rng, g):
        lift = tr.spin_lift(a, b)
        coeffs = lift.element.coeffs
        assert np.all(coeffs.imag == 0.0)
        assert coeffs.real[np.argmax(np.abs(coeffs))] > 0
        assert abs(np.linalg.det(lift.matrix) - 1.0) <= 1e-13


def recorded_svd_inputs(monkeypatch):
    """Replace np.linalg.svd by a wrapper that records every input it is given."""
    inputs = []
    svd = np.linalg.svd

    def recording_svd(x, *args, **kwargs):
        inputs.append(np.asarray(x))
        return svd(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    return inputs


def test_spin_lift_takes_one_real_svd(basis, rng, monkeypatch):
    inputs = recorded_svd_inputs(monkeypatch)
    tr.spin_lift(tr.random_lorentz(rng, basis.metric), basis)
    assert [(x.dtype, x.shape) for x in inputs] == [(np.dtype(np.float64), (2, 32, 8))]


@pytest.mark.parametrize("table", ["_INSERT_LEFT", "_REMOVE_LEFT", "_INSERT_RIGHT", "_REMOVE_RIGHT"])
def test_move_tables_change_parity(table):
    same_parity = GRADE[:, None] % 2 == GRADE[None, :] % 2
    stack = getattr(gr, table)
    assert np.count_nonzero(stack[:, same_parity]) == 0
    # each generator moves in or out of half the blades
    assert np.count_nonzero(stack[:, ~same_parity]) == 4 * NBLADES // 2


@pytest.mark.parametrize("g", ORACLE_METRICS[:2] + ORACLE_METRICS[-2:],
                         ids=["eta", "non-diagonal", "0.0015eta", "30eta"])
def test_parity_blocks_keep_the_full_systems_singular_values(g, rng, monkeypatch):
    """The two 32x8 blocks have the singular values of the real 64x16 system
    built from the four whole move tables, even and odd maps alike."""
    b = iso.dirac_matrices(g)
    svd = np.linalg.svd
    inputs = recorded_svd_inputs(monkeypatch)
    tables = np.concatenate([gr._INSERT_RIGHT, gr._REMOVE_RIGHT, gr._INSERT_LEFT,
                             gr._REMOVE_LEFT]).reshape(4 * 4, NBLADES * NBLADES)
    sigma = abs(g.det) ** 0.125
    for a in [tr.random_lorentz(rng, g) for _ in range(3)] + [random_reflection(rng, g)]:
        tr.spin_lift(a, b)
        weight = np.concatenate((sigma * np.eye(4), g.g / sigma, -sigma * a.T,
                                 -a.T @ g.g / sigma), axis=1)
        full = svd((weight @ tables).reshape(4 * NBLADES, NBLADES), compute_uv=False)
        blocks = svd(inputs[-1], compute_uv=False)
        assert np.abs(np.sort(blocks, axis=None)[::-1] - full).max() <= 1e-14 * full[0]


def test_lift_works_for_non_minkowski_metric(rng):
    g = gr.Metric(np.diag([2.0, -1.0, -3.0, -0.5]))
    basis = iso.dirac_matrices(g)
    for _ in range(10):
        a = tr.random_lorentz(rng, g)
        s = tr.spin_lift(a, basis)
        assert s.residual < 1e-9


# ---------------------------------------------------------------------------
# exterior pushforward

def test_pushforward_identity():
    np.testing.assert_array_equal(tr.exterior_pushforward(np.eye(4)), np.eye(NBLADES))


def test_pushforward_grade1_block_exact(rng):
    a = rng.normal(size=(4, 4))
    p = tr.exterior_pushforward(a)
    grade1 = [1, 2, 4, 8]
    np.testing.assert_array_equal(p[np.ix_(grade1, grade1)], a)


def test_pushforward_top_block_is_det(rng):
    for _ in range(10):
        a = rng.normal(size=(4, 4))
        p = tr.exterior_pushforward(a)
        assert abs(p[15, 15] - np.linalg.det(a)) < 1e-12


def test_pushforward_scaling_example(mink):
    a = np.diag([2.0, 1.0, 1.0, 1.0])
    p = tr.exterior_pushforward(a)
    got = p @ gr.GrassmannElement.blade(0b0011).coeffs
    np.testing.assert_allclose(got, 2.0 * gr.GrassmannElement.blade(0b0011).coeffs,
                               atol=1e-15)


def test_pushforward_matches_minor_oracle(rng):
    # independent oracle: each entry is a k x k minor determinant of A
    for _ in range(10):
        a = rng.normal(size=(4, 4))
        p = tr.exterior_pushforward(a)
        for out_b in range(NBLADES):
            for in_b in range(NBLADES):
                if GRADE[out_b] != GRADE[in_b]:
                    assert p[out_b, in_b] == 0
                    continue
                rows, cols = BLADE_BITS[out_b], BLADE_BITS[in_b]
                minor = 1.0 if not rows else np.linalg.det(a[np.ix_(rows, cols)])
                assert abs(p[out_b, in_b] - minor) < 1e-12


def test_pushforward_functorial(rng):
    for _ in range(30):
        a, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        lhs = tr.exterior_pushforward(a @ b)
        rhs = tr.exterior_pushforward(a) @ tr.exterior_pushforward(b)
        assert np.abs(lhs - rhs).max() < 1e-12


# ---------------------------------------------------------------------------
# induced action on matrices

def test_gl4_identity_action(basis, rng):
    act = tr.gl4_on_matrices(np.eye(4), basis)
    for _ in range(20):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        np.testing.assert_allclose(act(m), m, atol=1e-12)


def test_gl4_homomorphism(mink, basis, rng):
    worst = 0.0
    diag = np.diag([1.0, 2.0, 3.0, 4.0])
    for i in range(51):
        a = diag if i == 50 else tr.random_invertible_non_isometry(rng, mink, min_defect=0.0)
        b = tr.random_invertible_non_isometry(rng, mink, min_defect=0.0)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lhs = tr.gl4_on_matrices(a @ b, basis)(m)
        rhs = tr.gl4_on_matrices(a, basis)(tr.gl4_on_matrices(b, basis)(m))
        worst = max(worst, np.abs(lhs - rhs).max())
    assert worst < 1e-10


def test_gl4_action_matches_conjugation_for_isometries(mink, basis, rng):
    blades = iso.gamma_blade_matrices(basis)
    for _ in range(20):
        a = tr.random_lorentz(rng, mink)
        act = tr.gl4_on_matrices(a, basis)
        s = tr.spin_lift(a, basis)
        sinv = s.inverse_matrix
        for b in range(NBLADES):
            np.testing.assert_allclose(act(blades[b]), s.matrix @ blades[b] @ sinv,
                                       atol=1e-10)


def test_gl4_action_invertible(mink, basis, rng):
    for _ in range(20):
        a = tr.random_invertible_non_isometry(rng, mink, min_defect=0.0)
        act = tr.gl4_on_matrices(a, basis)
        act_inv = tr.gl4_on_matrices(np.linalg.inv(a), basis)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        np.testing.assert_allclose(act(act_inv(m)), m, atol=1e-10)


def test_gl4_action_matches_blade_round_trip(basis, skew_basis, rng):
    for b in (basis, skew_basis):
        for _ in range(20):
            a = rng.normal(size=(4, 4))
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            pushed = tr.exterior_pushforward(a) @ iso.matrix_to_clifford(m, b).coeffs
            expected = iso.clifford_to_matrix(cl.CliffordElement(pushed), b)
            np.testing.assert_allclose(tr.gl4_on_matrices(a, b)(m), expected, rtol=0, atol=1e-13)


def test_gl4_action_rejects_non_4x4(basis):
    act = tr.gl4_on_matrices(np.eye(4), basis)
    for bad in (np.eye(3), np.zeros(16)):
        with pytest.raises(ValueError):
            act(bad)


# ---------------------------------------------------------------------------
# proposition checker and grade preservation

def proposition_inputs(basis, rng, samples):
    """The 16 blade matrices followed by ``samples`` random complex matrices."""
    random = rng.normal(size=(samples, 4, 4)) + 1j * rng.normal(size=(samples, 4, 4))
    return np.concatenate([iso.gamma_blade_matrices(basis), random])


def test_proposition_identity(basis, rng):
    assert tr.transport_residual(np.eye(4), basis, proposition_inputs(basis, rng, 5)) < 1e-12


def test_proposition_boost_rotation(mink, basis, rng):
    a = boost_01(0.9, mink) @ rotation_12(1.1, mink)
    assert tr.transport_residual(a, basis, proposition_inputs(basis, rng, 10)) < 1e-10


def test_grade_preservation_for_lift(mink, basis, rng):
    s = tr.spin_lift(tr.random_lorentz(rng, mink), basis)
    assert tr.grade_leakage(s.matrix, basis) < 1e-11


def test_grade_preservation_identity(basis):
    assert tr.grade_leakage(np.eye(4), basis) < 1e-14


def test_grade_leakage_for_generic_even_element(basis, rng):
    coeffs = np.zeros(NBLADES, dtype=complex)
    coeffs[0] = 1.0
    coeffs[15] = 0.3 + 0.6j * rng.random()
    probe = iso.clifford_to_matrix(cl.CliffordElement(coeffs), basis)
    assert tr.grade_leakage(probe, basis) > 1e-3


def test_random_lorentz_is_isometry(mink, rng):
    for _ in range(20):
        a = tr.random_lorentz(rng, mink)
        assert tr.isometry_defect(a, mink) < tr.DEFAULT_ISOMETRY_TOL
        assert np.linalg.det(a) > 0


def test_random_lorentz_general_metric(rng):
    g = random_symmetric_metric(rng)
    for _ in range(10):
        a = tr.random_lorentz(rng, g)
        assert tr.isometry_defect(a, g) < 1e-9


@pytest.mark.parametrize("norm", [0.0, 0.1, 3.0, 10.0])
def test_expm_matches_scipy(mink, rng, norm):
    for g in (mink, SKEW):
        for _ in range(20):
            k = rng.normal(size=(4, 4))
            x = np.linalg.solve(g.g, k - k.T)
            x *= norm / np.linalg.norm(x, 2)
            expected = expm(x)
            gap = np.abs(tr._expm(x) - expected).max()
            assert gap <= 1e-12 * np.abs(expected).max()
