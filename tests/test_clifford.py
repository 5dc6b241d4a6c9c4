import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spinrep import clifford as cl
from spinrep import grassmann as gr
from spinrep import isomorphisms as iso
from spinrep._tables import BLADE_BITS, GRADE, NBLADES

from conftest import (
    preset_metrics,
    random_element_coeffs,
    random_lorentz_metric,
    random_symmetric_metric,
)


# ---------------------------------------------------------------------------
# oracle: reduce a generator word with the anticommutation rule alone

def reduce_word_oracle(word, g):
    """Coefficients of a product of generators, by recursive rewriting.

    Uses only the defining relations: equal adjacent generators contract to
    g[i, i]; a descending adjacent pair (i, j) rewrites to 2 g[i, j] minus the
    swapped pair.  Valid for any symmetric metric.
    """
    out = np.zeros(NBLADES, dtype=np.complex128)
    stack = [(list(word), 1.0 + 0.0j)]
    while stack:
        seq, coeff = stack.pop()
        for p in range(len(seq) - 1):
            i, j = seq[p], seq[p + 1]
            if i < j:
                continue
            rest = seq[:p] + seq[p + 2:]
            if i == j:
                stack.append((rest, coeff * g[i, i]))
            else:
                stack.append((rest, coeff * 2.0 * g[i, j]))
                stack.append((seq[:p] + [j, i] + seq[p + 2:], -coeff))
            break
        else:
            out[sum(1 << i for i in seq)] += coeff
    return out


def _antisymmetrised_words(mask):
    """(sign, word) over all orderings of the factors of blade ``mask``."""
    for perm in itertools.permutations(BLADE_BITS[mask]):
        inversions = sum(x > y for x, y in itertools.combinations(perm, 2))
        yield (-1) ** inversions, list(perm)


def product_oracle(mask_a, mask_b, g):
    """Product of two antisymmetrised blades, in the antisymmetrised basis.

    Both factors are expanded into signed averages over the orderings of their
    generators and reduced word by word; the result, which the reduction gives
    in the ordered-product basis, is then read back through the matrix whose
    columns are the antisymmetrised blades reduced the same way.
    """
    ordered = np.zeros(NBLADES, dtype=np.complex128)
    for sa, wa in _antisymmetrised_words(mask_a):
        for sb, wb in _antisymmetrised_words(mask_b):
            ordered += sa * sb * reduce_word_oracle(wa + wb, g)
    ordered /= math.factorial(GRADE[mask_a]) * math.factorial(GRADE[mask_b])
    change = np.zeros((NBLADES, NBLADES), dtype=np.complex128)
    for m in range(NBLADES):
        for sign, word in _antisymmetrised_words(m):
            change[:, m] += sign * reduce_word_oracle(word, g)
        change[:, m] /= math.factorial(GRADE[m])
    return np.linalg.solve(change, ordered)


def test_oracle_basics(mink):
    # gamma1 gamma1 = g11 = -1
    got = reduce_word_oracle([1, 1], mink.g)
    assert got[0] == -1 and np.count_nonzero(got) == 1
    # gamma1 gamma0 = -gamma0 gamma1
    got = reduce_word_oracle([1, 0], mink.g)
    assert got[0b0011] == -1 and np.count_nonzero(got) == 1


# ---------------------------------------------------------------------------

def test_generator_squares(mink):
    g0 = cl.CliffordElement.generator(0)
    got = cl.geometric_product(g0, g0, mink)
    np.testing.assert_allclose(got.coeffs, cl.CliffordElement.unit(mink.g[0, 0]).coeffs,
                               atol=1e-15)


def test_unit_law(mink, rng):
    unit = cl.CliffordElement.unit()
    for _ in range(20):
        a = cl.CliffordElement(random_element_coeffs(rng))
        np.testing.assert_allclose(cl.geometric_product(unit, a, mink).coeffs, a.coeffs,
                                   atol=1e-15)
        np.testing.assert_allclose(cl.geometric_product(a, unit, mink).coeffs, a.coeffs,
                                   atol=1e-15)


def test_bivector_times_generator(mink):
    # (g0 g1) g1 = g11 g0 = -g0 for this signature
    g01 = cl.CliffordElement.basis_blade(0b0011)
    g1 = cl.CliffordElement.generator(1)
    got = cl.geometric_product(g01, g1, mink)
    np.testing.assert_allclose(got.coeffs, (-cl.CliffordElement.generator(0)).coeffs,
                               atol=1e-15)


def test_full_product_table_matches_reduction_oracle(mink):
    for i in range(NBLADES):
        for j in range(NBLADES):
            got = cl.geometric_product(
                cl.CliffordElement.basis_blade(i), cl.CliffordElement.basis_blade(j), mink)
            np.testing.assert_allclose(got.coeffs, product_oracle(i, j, mink.g), atol=1e-13)


def test_product_table_matches_oracle_nondiagonal(rng):
    # on a non-diagonal metric the ordered and antisymmetrised bases differ
    for _ in range(3):
        g = random_symmetric_metric(rng)
        for i in range(NBLADES):
            for j in range(NBLADES):
                got = cl.geometric_product(
                    cl.CliffordElement.basis_blade(i), cl.CliffordElement.basis_blade(j), g)
                np.testing.assert_allclose(got.coeffs, product_oracle(i, j, g.g),
                                           atol=1e-11)


def test_associativity_random_metrics(rng):
    worst = 0.0
    for _ in range(100):
        g = random_symmetric_metric(rng)
        a, b, c = (cl.CliffordElement(random_element_coeffs(rng)) for _ in range(3))
        lhs = cl.geometric_product(cl.geometric_product(a, b, g), c, g)
        rhs = cl.geometric_product(a, cl.geometric_product(b, c, g), g)
        worst = max(worst, np.abs(lhs.coeffs - rhs.coeffs).max())
    assert worst < 1e-11


def test_anticommutator_random_metrics(rng):
    unit = np.zeros(NBLADES)
    unit[0] = 1.0
    for _ in range(50):
        g = random_symmetric_metric(rng)
        for mu in range(4):
            for nu in range(4):
                a = cl.CliffordElement.generator(mu)
                b = cl.CliffordElement.generator(nu)
                ac = cl.geometric_product(a, b, g) + cl.geometric_product(b, a, g)
                assert np.abs(ac.coeffs - 2 * g.g[mu, nu] * unit).max() < 1e-12


def blade_products_loop(gens):
    """The 16 antisymmetrised products one blade at a time, each from its
    lowest factor and the blade below: the loop the per-grade build replaced."""
    out = np.empty((NBLADES,) + gens.shape[1:], dtype=gens.dtype)
    out[0] = np.eye(gens.shape[1])
    for mask in range(1, NBLADES):
        i = BLADE_BITS[mask][0]
        w = out[mask ^ (1 << i)]
        sign = 1.0 if GRADE[mask] % 2 else -1.0
        out[mask] = 0.5 * (gens[i] @ w + sign * (w @ gens[i]))
    return out


def test_blade_products_per_grade_equal_per_blade_loop(rng):
    # one stacked product per grade takes the same products as the loop, so
    # structure tensors, right blade operators and Dirac blade matrices agree
    # to the bit
    metrics = preset_metrics() + [random_symmetric_metric(rng) for _ in range(200)]
    for g in metrics:
        left = blade_products_loop(gr._gamma_ops_cached(g))
        assert cl.product_tensor(g).tobytes() == left.tobytes()
        right = blade_products_loop(gr._right_gamma_ops_cached(g).transpose(0, 2, 1))
        assert iso._right_blade_ops_cached(g).tobytes() == \
            np.ascontiguousarray(right.transpose(0, 2, 1)).tobytes()
    for g in preset_metrics() + [random_lorentz_metric(rng) for _ in range(200)]:
        basis = iso.dirac_matrices(g)
        matrices = blade_products_loop(basis.gammas)
        assert iso.gamma_blade_matrices(basis).tobytes() == matrices.tobytes()


def test_stacked_structure_equals_cached(rng):
    # the batched build behind the per-metric checks is the cached one per metric
    metrics = preset_metrics() + [random_symmetric_metric(rng) for _ in range(37)]
    stack = cl._structure(np.stack([g.g for g in metrics]))
    assert stack.shape == (len(metrics), NBLADES, NBLADES, NBLADES)
    for tensor, g in zip(stack, metrics):
        assert tensor.tobytes() == cl.product_tensor(g).tobytes()
    # a batch of batches is the same stack
    nested = cl._structure(np.stack([g.g for g in metrics[:40]]).reshape(5, 8, 4, 4))
    assert nested.reshape(stack.shape).tobytes() == stack.tobytes()


def test_product_table_matches_matrix_representation(mink, basis):
    blades = iso.gamma_blade_matrices(basis)
    for i in range(NBLADES):
        for j in range(NBLADES):
            via_ops = cl.geometric_product(
                cl.CliffordElement.basis_blade(i), cl.CliffordElement.basis_blade(j), mink)
            via_mat = iso.matrix_to_clifford(blades[i] @ blades[j], basis)
            assert np.abs(via_ops.coeffs - via_mat.coeffs).max() < 1e-12


# ---------------------------------------------------------------------------
# grading

def test_grade_project_examples():
    a = cl.CliffordElement.unit() + cl.CliffordElement.basis_blade(0b0011)
    got = cl.grade_project(a, 2)
    np.testing.assert_array_equal(got.coeffs, cl.CliffordElement.basis_blade(0b0011).coeffs)


def test_grade_projections_complete(rng):
    a = cl.CliffordElement(random_element_coeffs(rng))
    total = cl.CliffordElement.zero()
    for k in range(5):
        total = total + cl.grade_project(a, k)
    np.testing.assert_array_equal(total.coeffs, a.coeffs)


def test_grade_zero_of_generator_square(mink):
    g0 = cl.CliffordElement.generator(0)
    prod = cl.geometric_product(g0, g0, mink)
    got = cl.grade_project(prod, 0)
    np.testing.assert_allclose(got.coeffs, cl.CliffordElement.unit(mink.g[0, 0]).coeffs,
                               atol=1e-15)


def test_even_part_examples():
    a = cl.CliffordElement.generator(0) + cl.CliffordElement.basis_blade(0b0011)
    got = cl.even_part(a)
    np.testing.assert_array_equal(got.coeffs, cl.CliffordElement.basis_blade(0b0011).coeffs)
    unit = cl.CliffordElement.unit()
    np.testing.assert_array_equal(cl.even_part(unit).coeffs, unit.coeffs)


def test_even_closure(mink, rng):
    for _ in range(50):
        a = cl.even_part(cl.CliffordElement(random_element_coeffs(rng)))
        b = cl.even_part(cl.CliffordElement(random_element_coeffs(rng)))
        prod = cl.geometric_product(a, b, mink)
        assert cl.odd_part(prod).norm() < 1e-12


# ---------------------------------------------------------------------------
# reversion

def test_reversion_examples():
    g01 = cl.CliffordElement.basis_blade(0b0011)
    np.testing.assert_array_equal(cl.reversion(g01).coeffs, (-g01).coeffs)
    unit = cl.CliffordElement.unit()
    np.testing.assert_array_equal(cl.reversion(unit).coeffs, unit.coeffs)


def test_reversion_matches_word_reversal_oracle(mink):
    # reversing the generator word must equal the sign rule per grade
    for b in range(NBLADES):
        word = list(BLADE_BITS[b])
        reversed_coeffs = reduce_word_oracle(word[::-1], mink.g)
        got = cl.reversion(cl.CliffordElement.basis_blade(b))
        np.testing.assert_allclose(got.coeffs, reversed_coeffs, atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_reversion_antiautomorphism(seed):
    rng = np.random.default_rng(seed)
    g = gr.minkowski()
    a = cl.CliffordElement(random_element_coeffs(rng))
    b = cl.CliffordElement(random_element_coeffs(rng))
    lhs = cl.reversion(cl.geometric_product(a, b, g))
    rhs = cl.geometric_product(cl.reversion(b), cl.reversion(a), g)
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)
