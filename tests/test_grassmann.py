import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinrep import grassmann as gr
from spinrep._tables import (
    BLADE_BITS,
    GRADE,
    NBLADES,
    REVERSION_SIGN,
    TOP,
    WEDGE_SIGN,
)
from spinrep.errors import DegenerateMetric

from conftest import (
    move_sign_table,
    preset_metrics,
    random_element_coeffs,
    random_symmetric_metric,
    wedge_sign,
)


# ---------------------------------------------------------------------------
# independent oracles

def wedge_blades_oracle(a_bits, b_bits):
    """Wedge of two ascending generator tuples by explicit insertion counting.

    Returns (sign, merged_tuple); sign 0 when a generator repeats.
    """
    if set(a_bits) & set(b_bits):
        return 0, ()
    seq = list(a_bits) + list(b_bits)
    sign = 1
    # insertion sort, one adjacent swap at a time
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(seq)


def wedge_oracle(x, y):
    """Dense wedge product computed from the blade oracle alone."""
    out = np.zeros(NBLADES, dtype=np.complex128)
    for a in range(NBLADES):
        if x[a] == 0:
            continue
        for b in range(NBLADES):
            if y[b] == 0:
                continue
            sign, merged = wedge_blades_oracle(BLADE_BITS[a], BLADE_BITS[b])
            if sign:
                mask = sum(1 << i for i in merged)
                out[mask] += sign * x[a] * y[b]
    return out


def hodge_diagonal_oracle(b, g):
    """Star of a single blade for a diagonal metric, from the defining relation."""
    diag = np.diagonal(g.g)
    scale = 1.0 / np.sqrt(abs(np.prod(diag)))
    gram = 1.0
    for i in BLADE_BITS[b]:
        gram *= diag[i]
    comp = TOP ^ b
    sign, _ = wedge_blades_oracle(BLADE_BITS[b], BLADE_BITS[comp])
    return comp, scale * gram * sign


# ---------------------------------------------------------------------------
# wedge

def test_blade_tables_equal_loop_oracles():
    # the tables are array expressions over the masks; each entry is checked
    # against a loop over one blade or one pair of blades
    assert (GRADE.dtype, WEDGE_SIGN.dtype, REVERSION_SIGN.dtype) == (np.int64, np.int8, np.int8)
    for a in range(NBLADES):
        assert GRADE[a] == bin(a).count("1")
        assert REVERSION_SIGN[a] == (-1) ** (len(BLADE_BITS[a]) * (len(BLADE_BITS[a]) - 1) // 2)
        for b in range(NBLADES):
            sign = wedge_blades_oracle(BLADE_BITS[a], BLADE_BITS[b])[0]
            assert WEDGE_SIGN[a, b] == wedge_sign(a, b) == sign, (a, b)


def test_wedge_repeated_generator_is_zero():
    d1 = gr.GrassmannElement.blade(0b0010)
    assert gr.wedge(d1, d1).norm() == 0


def test_wedge_antisymmetry_on_generators():
    d0 = gr.GrassmannElement.blade(0b0001)
    d1 = gr.GrassmannElement.blade(0b0010)
    lhs = gr.wedge(d1, d0)
    expected = -gr.GrassmannElement.blade(0b0011)
    np.testing.assert_array_equal(lhs.coeffs, expected.coeffs)


def test_wedge_bilinear_expansion():
    # (d0+d1) ^ (d0-d1) = -d0^d1 - d1^d0 = -2 d0^d1
    d0 = gr.GrassmannElement.blade(0b0001)
    d1 = gr.GrassmannElement.blade(0b0010)
    result = gr.wedge(d0 + d1, d0 - d1)
    expected = -2.0 * gr.GrassmannElement.blade(0b0011)
    np.testing.assert_allclose(result.coeffs, expected.coeffs, atol=1e-15)


def test_wedge_matches_insertion_sort_oracle(rng):
    for _ in range(50):
        x, y = random_element_coeffs(rng), random_element_coeffs(rng)
        got = gr.wedge(gr.GrassmannElement(x), gr.GrassmannElement(y)).coeffs
        np.testing.assert_allclose(got, wedge_oracle(x, y), atol=1e-13)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_wedge_associative_on_blades(a, b, c):
    ea, eb, ec = (gr.GrassmannElement.blade(m) for m in (a, b, c))
    lhs = gr.wedge(gr.wedge(ea, eb), ec)
    rhs = gr.wedge(ea, gr.wedge(eb, ec))
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-14)


def test_wedge_associativity_random(rng):
    worst = 0.0
    for _ in range(100):
        a, b, c = (gr.GrassmannElement(random_element_coeffs(rng)) for _ in range(3))
        lhs = gr.wedge(gr.wedge(a, b), c)
        rhs = gr.wedge(a, gr.wedge(b, c))
        worst = max(worst, np.abs(lhs.coeffs - rhs.coeffs).max())
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# boundary / coboundary operators

def test_delta_examples(mink):
    e0 = np.eye(4)[0]
    one = gr.GrassmannElement.scalar()
    d0 = gr.GrassmannElement.blade(0b0001)
    np.testing.assert_array_equal(gr.delta(e0, one).coeffs, d0.coeffs)
    assert gr.delta(e0, d0).norm() == 0
    # delta_{d0+d1}(d1) = d0 ^ d1
    d1 = gr.GrassmannElement.blade(0b0010)
    v = np.array([1.0, 1.0, 0.0, 0.0])
    np.testing.assert_allclose(
        gr.delta(v, d1).coeffs, gr.GrassmannElement.blade(0b0011).coeffs, atol=1e-15)


def test_delta_star_examples(mink):
    e0 = np.eye(4)[0]
    one = gr.GrassmannElement.scalar()
    d0 = gr.GrassmannElement.blade(0b0001)
    d01 = gr.GrassmannElement.blade(0b0011)
    assert gr.delta_star(e0, one, mink).norm() == 0
    # g00 = +1 for the (+,-,-,-) form
    np.testing.assert_allclose(gr.delta_star(e0, d0, mink).coeffs, one.coeffs, atol=1e-15)
    d1 = gr.GrassmannElement.blade(0b0010)
    np.testing.assert_allclose(gr.delta_star(e0, d01, mink).coeffs, d1.coeffs, atol=1e-15)


def test_delta_star_full_metric_row(rng):
    # contraction uses g(v, .) with the whole row, not only the diagonal
    g = random_symmetric_metric(rng)
    e0 = np.eye(4)[0]
    d1 = gr.GrassmannElement.blade(0b0010)
    got = gr.delta_star(e0, d1, g)
    np.testing.assert_allclose(got.coeffs[0], g.g[0, 1], atol=1e-15)


def test_grade_shift_structure(mink, rng):
    for k in range(5):
        coeffs = np.where(GRADE == k, random_element_coeffs(rng), 0)
        omega = gr.GrassmannElement(coeffs)
        v = rng.normal(size=4)
        up = gr.delta(v, omega)
        down = gr.delta_star(v, omega, mink)
        if up.norm() > 1e-12:
            assert up.grades(1e-13) == (k + 1,)
        if down.norm() > 1e-12:
            assert down.grades(1e-13) == (k - 1,)


def test_degenerate_metric_raises():
    # rejected on construction, so no operation ever sees a degenerate form
    with pytest.raises(DegenerateMetric):
        gr.Metric(np.diag([1.0, 1.0, 1.0, 0.0]))
    with pytest.raises(DegenerateMetric):
        gr.Metric(np.diag([1.0, -1.0, -1.0, -1.0]), det_tol=2.0)


def test_metric_rejects_overflowing_determinant():
    # finite entries, but det g is -inf: the Hodge scale would be 0
    with pytest.raises(DegenerateMetric, match="overflows"):
        gr.Metric(1e100 * np.diag([1.0, -1.0, -1.0, -1.0]))
    assert np.isfinite(gr.Metric(1e77 * np.diag([1.0, -1.0, -1.0, -1.0])).det)


def test_metric_requires_exact_symmetry():
    m = np.eye(4)
    m[0, 1] = 1e-14
    with pytest.raises(ValueError):
        gr.Metric(m)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_metric_rejects_non_finite_entries(bad):
    m = np.diag([1.0, -1.0, -1.0, -1.0])
    m[0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        gr.Metric(m)


def test_metric_det_is_stored_outside_the_fields(mink):
    assert mink.det == np.linalg.det(mink.g)
    assert [f.name for f in dataclasses.fields(gr.Metric)] == ["g", "det_tol"]
    assert gr.Metric(np.diag([1.0, -1.0, -1.0, -1.0])) == mink


def test_metric_is_a_value():
    x = np.array([1, 0.3, 0, 0, 0.3, -1, 0, 0, 0, 0, -1, 0.2, 0, 0, 0.2, -1.0]).reshape(4, 4)
    signed = x.copy()
    signed[0, 2] = signed[2, 0] = -0.0
    a, b, c = gr.Metric(x), gr.Metric(x.copy()), gr.Metric(signed)
    assert np.signbit(c.g[0, 2])
    assert a == b == c and hash(a) == hash(b) == hash(c)
    # det_tol only gates construction; it is not part of the value
    assert gr.Metric(x, det_tol=1e-30) == a
    assert a != gr.Metric(2.0 * x)
    assert len({a, b, c, gr.minkowski()}) == 2


def test_equal_metrics_share_one_cache_entry():
    x = np.diag([2.0, -3.0, -5.0, -7.0])  # used by no other test
    signed = x.copy()
    signed[1, 3] = signed[3, 1] = -0.0
    before = gr._gamma_ops_cached.cache_info()
    for m in (x, x.copy(), signed):
        gr.gamma_op(0, gr.Metric(m))
    after = gr._gamma_ops_cached.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 2)


def test_benchmark_tracer_finds_every_cache():
    # perfbench/tracer.py reads the six lru_cache builders by name on import
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    tracer.clear_caches()
    info = tracer.cache_info()
    assert len(info) == 6
    assert all(i["currsize"] == 0 for i in info.values())


# ---------------------------------------------------------------------------
# generator operators

def test_gamma_op_on_scalar(mink):
    one = gr.GrassmannElement.scalar()
    got = gr.gamma_op(0, mink) @ one.coeffs
    np.testing.assert_array_equal(got, gr.GrassmannElement.blade(0b0001).coeffs)


def test_gamma_op_square_is_metric_diagonal(mink):
    op = gr.gamma_op(0, mink)
    np.testing.assert_allclose(op @ op, mink.g[0, 0] * np.eye(NBLADES), atol=1e-15)


def test_anticommutator_random_metrics(rng):
    # 200 random nondegenerate symmetric metrics, entries in [-2, 2]
    eye = np.eye(NBLADES)
    worst = 0.0
    for _ in range(200):
        g = random_symmetric_metric(rng)
        ops = [gr.gamma_op(i, g) for i in range(4)]
        for mu in range(4):
            for nu in range(4):
                ac = ops[mu] @ ops[nu] + ops[nu] @ ops[mu]
                worst = max(worst, np.abs(ac - 2 * g.g[mu, nu] * eye).max())
    assert worst < 1e-12


def sign_matrix_oracle(w, table):
    """Sum over generators i of w[i] times generator i entering or leaving each blade, by loop."""
    w = np.asarray(w, dtype=np.complex128)
    m = np.zeros((NBLADES, NBLADES), dtype=np.complex128)
    cols = np.arange(NBLADES)
    for i in range(4):
        if w[i] != 0:
            m[cols ^ (1 << i), cols] += w[i] * table[i]
    return m


def test_closed_form_operators_equal_loop_oracle(rng):
    # the generator operators and the four delta matrices contract against
    # precomputed stacks; each entry has one nonzero term, so they are exact
    metrics = [gr.minkowski(), gr.minkowski("-+++")]
    metrics += [random_symmetric_metric(rng) for _ in range(200)]
    sides = ((gr._gamma_ops_cached, gr.delta_matrix, gr.delta_star_matrix,
              move_sign_table("left", False), move_sign_table("left", True)),
             (gr._right_gamma_ops_cached, gr.right_delta_matrix, gr.right_delta_star_matrix,
              move_sign_table("right", False), move_sign_table("right", True)))
    for g in metrics:
        v = random_element_coeffs(rng)[:4]
        for cached, raise_op, lower_op, insert, remove in sides:
            ops = cached(g)
            for i, e in enumerate(np.eye(4)):
                expected = sign_matrix_oracle(e, insert) + sign_matrix_oracle(g.g @ e, remove)
                np.testing.assert_array_equal(ops[i], expected)
            np.testing.assert_array_equal(raise_op(v), sign_matrix_oracle(v, insert))
            np.testing.assert_array_equal(lower_op(v, g), sign_matrix_oracle(g.g @ v, remove))


def test_stacked_generator_operators_equal_cached(rng):
    # the batched build behind the per-metric checks is the cached one per metric
    metrics = preset_metrics() + [random_symmetric_metric(rng) for _ in range(200)]
    stack = np.stack([g.g for g in metrics])
    left = gr._gamma_ops(stack)
    right = gr._gamma_ops(stack, gr._INSERT_RIGHT, gr._REMOVE_RIGHT)
    assert left.shape == (len(metrics), 4, NBLADES, NBLADES)
    for ops, right_ops, g in zip(left, right, metrics):
        assert ops.tobytes() == gr._gamma_ops_cached(g).tobytes()
        assert right_ops.tobytes() == gr._right_gamma_ops_cached(g).tobytes()


# ---------------------------------------------------------------------------
# Hodge star and the dual product

def test_hodge_of_unit_is_volume(mink):
    got = gr.hodge(gr.GrassmannElement.scalar(), mink)
    np.testing.assert_allclose(got.coeffs, gr.GrassmannElement.blade(TOP).coeffs, atol=1e-15)


def test_hodge_of_volume_is_metric_sign(mink):
    got = gr.hodge(gr.GrassmannElement.blade(TOP), mink)
    np.testing.assert_allclose(got.coeffs, -gr.GrassmannElement.scalar().coeffs, atol=1e-15)


def test_hodge_blades_match_diagonal_oracle(mink):
    for b in range(NBLADES):
        got = gr.hodge(gr.GrassmannElement.blade(b), mink).coeffs
        comp, value = hodge_diagonal_oracle(b, mink)
        expected = np.zeros(NBLADES, dtype=complex)
        expected[comp] = value
        np.testing.assert_allclose(got, expected, atol=1e-14)


def test_hodge_d0(mink):
    got = gr.hodge(gr.GrassmannElement.blade(0b0001), mink).coeffs
    expected = np.zeros(NBLADES, dtype=complex)
    expected[0b1110] = 1.0  # +d1^d2^d3 for this convention
    np.testing.assert_allclose(got, expected, atol=1e-15)


def blade_gram_hodge(g):
    """Star from e_a ^ star(e_b) = <e_a, e_b> vol, with the blade pairing
    taken one minor determinant of g at a time."""
    scale = 1.0 / np.sqrt(abs(np.linalg.det(g.g)))
    h = np.zeros((NBLADES, NBLADES))
    for b in range(NBLADES):
        for a in range(NBLADES):
            if GRADE[a] != GRADE[b]:
                continue
            rows, cols = list(BLADE_BITS[a]), list(BLADE_BITS[b])
            gram = np.linalg.det(g.g[np.ix_(rows, cols)]) if rows else 1.0
            h[TOP ^ a, b] += scale * WEDGE_SIGN[a, TOP ^ a] * gram
    return h


def test_hodge_matches_blade_gram_oracle(mink, rng):
    skew = np.array([1, 0.3, 0, 0, 0.3, -1, 0, 0, 0, 0, -1, 0.2, 0, 0, 0.2, -1.0]).reshape(4, 4)
    metrics = [mink, gr.Metric(np.diag([2.0, -1.0, -3.0, -1.0])), gr.Metric(skew)]
    metrics += [random_symmetric_metric(rng) for _ in range(5)]
    # |det g| is 1e-12 and 1e12: the default absolute det_tol is not scale-aware
    metrics += [gr.Metric(s * mink.g, det_tol=1e-30) for s in (1e-3, 1e3)]
    for g in metrics:
        expected = blade_gram_hodge(g)
        gap = np.abs(gr.hodge_matrix(g) - expected).max()
        assert gap <= 1e-13 * np.abs(expected).max()


def test_hodge_is_bijection(rng):
    # det(star) scales like a high power of det g, so rank is the robust check
    for _ in range(10):
        g = random_symmetric_metric(rng)
        h = gr.hodge_matrix(g)
        assert np.linalg.matrix_rank(h) == NBLADES
        assert np.all(np.abs(gr.star_star_scalars(g)) > 0)


def test_double_star_is_per_grade_scalar(mink, rng):
    scalars = gr.star_star_scalars(mink)
    np.testing.assert_allclose(scalars, [-1, 1, -1, 1, -1], atol=1e-14)
    # the star is normalised by the unit volume, so on grade k its square is
    # (-1)^(k(4-k)) sign(det g) whatever the scale of g, diagonal or not
    skew = np.array([1, 0.3, 0, 0, 0.3, -1, 0, 0, 0, 0, -1, 0.2, 0, 0, 0.2, -1.0]).reshape(4, 4)
    metrics = [gr.Metric(2.0 * mink.g), gr.Metric(np.diag([2.0, -1.0, -3.0, -1.0])),
               gr.Metric(skew)] + [random_symmetric_metric(rng) for _ in range(5)]
    for g in [mink] + metrics:
        expected = [(-1) ** (k * (4 - k)) * np.sign(g.det) for k in range(5)]
        np.testing.assert_allclose(gr.star_star_scalars(g), expected, rtol=0, atol=1e-12)
        h = gr.hodge_matrix(g)
        # the whole square, not only the entries star_star_scalars reads
        np.testing.assert_allclose(h @ h, np.diag(np.array(expected)[GRADE]), rtol=0, atol=1e-12)


def test_vee_d0_d0(mink):
    d0 = gr.GrassmannElement.blade(0b0001)
    got = gr.vee(d0, d0, mink)
    # star(d0 ^ star d0) = star(top) = -1 = -g00 here; the sign is the recorded ratio
    np.testing.assert_allclose(got.coeffs, -gr.GrassmannElement.scalar().coeffs, atol=1e-14)


def test_vee_with_scalar_second_argument_vanishes(mink, rng):
    v = gr.GrassmannElement.from_vector(rng.normal(size=4))
    got = gr.vee(v, gr.GrassmannElement.scalar(), mink)
    assert got.norm() < 1e-14


def test_contraction_vs_vee_table_stable(mink, rng):
    table = gr.contraction_vs_vee_table(mink)
    np.testing.assert_allclose(table, [0, -1, -1, -1, -1], atol=1e-12)
    worst = 0.0
    for _ in range(50):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        omega = gr.GrassmannElement(random_element_coeffs(rng))
        lhs = gr.delta_star(v, omega, mink)
        rhs = gr.GrassmannElement.zero()
        for k in range(1, 5):
            rhs = rhs + table[k] * gr.vee(
                gr.GrassmannElement.from_vector(v), omega.grade_project(k), mink)
        worst = max(worst, np.abs(lhs.coeffs - rhs.coeffs).max())
    assert worst < 1e-10


def test_contraction_vs_vee_table_stable_random_metric(rng):
    g = random_symmetric_metric(rng)
    table = gr.contraction_vs_vee_table(g)
    np.testing.assert_allclose(table[1:], np.sign(g.det), rtol=0, atol=1e-12)
    worst = 0.0
    for _ in range(20):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        omega = gr.GrassmannElement(random_element_coeffs(rng))
        lhs = gr.delta_star(v, omega, g)
        rhs = gr.GrassmannElement.zero()
        for k in range(1, 5):
            rhs = rhs + table[k] * gr.vee(
                gr.GrassmannElement.from_vector(v), omega.grade_project(k), g)
        worst = max(worst, np.abs(lhs.coeffs - rhs.coeffs).max())
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# right actions

def test_right_delta_antisymmetry():
    d0 = np.eye(4)[0]
    d1 = gr.GrassmannElement.blade(0b0010)
    got = gr.right_delta(d0, d1)  # d1 ^ d0 = -d0^d1
    np.testing.assert_allclose(got.coeffs, -gr.GrassmannElement.blade(0b0011).coeffs, atol=1e-15)


def test_right_gamma_on_scalar(mink):
    got = gr.right_gamma_op(0, mink) @ gr.GrassmannElement.scalar().coeffs
    np.testing.assert_array_equal(got, gr.GrassmannElement.blade(0b0001).coeffs)


def test_right_gamma_anticommutator(mink, rng):
    eye = np.eye(NBLADES)
    for g in [mink] + [random_symmetric_metric(rng) for _ in range(10)]:
        ops = [gr.right_gamma_op(i, g) for i in range(4)]
        for mu in range(4):
            for nu in range(4):
                ac = ops[mu] @ ops[nu] + ops[nu] @ ops[mu]
                assert np.abs(ac - 2 * g.g[mu, nu] * eye).max() < 1e-12


def test_left_right_gamma_ops_commute(mink, rng):
    for g in [mink] + [random_symmetric_metric(rng) for _ in range(10)]:
        for mu in range(4):
            left = gr.gamma_op(mu, g)
            for nu in range(4):
                right = gr.right_gamma_op(nu, g)
                assert np.abs(left @ right - right @ left).max() < 1e-12


def test_left_right_delta_parity_table(mink):
    # the pure wedge parts commute exactly; the mixed wedge/contraction
    # cross terms cancel between the two orderings grade by grade
    e = np.eye(4)
    for mu in range(4):
        dl = gr.delta_matrix(e[mu])
        for nu in range(4):
            dr_ = gr.right_delta_matrix(e[nu])
            np.testing.assert_allclose(dl @ dr_, dr_ @ dl, atol=1e-15)
            cr = gr.right_delta_star_matrix(e[nu], mink)
            cl_ = gr.delta_star_matrix(e[mu], mink)
            np.testing.assert_allclose(cl_ @ cr, cr @ cl_, atol=1e-15)
            # [delta_L, contraction_R] is (-1)^grade g[mu,nu] per grade
            comm = dl @ cr - cr @ dl
            for b in range(NBLADES):
                col = comm[:, b]
                expected = np.zeros(NBLADES, dtype=complex)
                expected[b] = -((-1.0) ** GRADE[b]) * mink.g[mu, nu]
                np.testing.assert_allclose(col, expected, atol=1e-14)
