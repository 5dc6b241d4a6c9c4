import numpy as np
import pytest

from spinrep import _kernels
from spinrep import clifford as cl
from spinrep import grassmann as gr
from spinrep._tables import BLADE_BITS, NBLADES, WEDGE_SIGN

from conftest import move_sign_table, preset_metrics, random_element_coeffs, random_symmetric_metric


def test_backend_selected():
    assert _kernels.backend_name() == "numpy"


def test_numpy_backend_full_suite_equivalence(rng):
    # the wedge drives the pushforward; spot-check it against the sign table
    a = gr.GrassmannElement(random_element_coeffs(rng))
    b = gr.GrassmannElement(random_element_coeffs(rng))
    manual = np.zeros(NBLADES, dtype=np.complex128)
    for i in range(NBLADES):
        for j in range(NBLADES):
            manual[i | j] += WEDGE_SIGN[i, j] * a.coeffs[i] * b.coeffs[j]
    np.testing.assert_allclose(gr.wedge(a, b).coeffs, manual, atol=1e-13)


def test_mul16_matches_einsum(rng):
    for g in preset_metrics() + [random_symmetric_metric(rng) for _ in range(50)]:
        tensor = cl.product_tensor(g)
        a, b = random_element_coeffs(rng), random_element_coeffs(rng)
        expected = np.einsum("i,ikj,j->k", a, tensor, b)
        got = _kernels.mul16(a, b, tensor)
        assert got.shape == (NBLADES,)
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


def test_batched_product_equals_per_sample(rng):
    metrics = preset_metrics() + [random_symmetric_metric(rng) for _ in range(17)]
    tensors = np.stack([cl.product_tensor(g) for g in metrics])
    a = np.stack([random_element_coeffs(rng) for _ in metrics])
    b = np.stack([random_element_coeffs(rng) for _ in metrics])
    per_sample = np.stack([_kernels.mul16(x, y, t) for x, y, t in zip(a, b, tensors)])
    assert _kernels.mul16(a, b, tensors).tobytes() == per_sample.tobytes()
    # one tensor against a batch of elements, and one pair against a batch of tensors
    assert _kernels.mul16(a, b, tensors[0]).tobytes() == \
        np.stack([_kernels.mul16(x, y, tensors[0]) for x, y in zip(a, b)]).tobytes()
    assert _kernels.mul16(a[0], b[0], tensors).tobytes() == \
        np.stack([_kernels.mul16(a[0], b[0], t) for t in tensors]).tobytes()


def wedge_chain_pushforward(a):
    """Exterior extension by one chain of wedge16 calls per blade: the wedge of
    the columns of ``a`` named by the blade's factors, in ascending order."""
    cols = [gr.GrassmannElement.from_vector(a[:, i].astype(np.complex128)).coeffs
            for i in range(4)]
    push = np.zeros((NBLADES, NBLADES))
    unit = np.zeros(NBLADES, dtype=np.complex128)
    unit[0] = 1.0
    for b in range(NBLADES):
        acc = unit
        for i in BLADE_BITS[b]:
            acc = _kernels.wedge16(acc, cols[i])
        push[:, b] = acc.real
    return push


def test_compound16_equals_wedge_chain(rng):
    mats = [np.eye(4)] + [rng.normal(size=(4, 4)) for _ in range(50)]
    # far from unit scale, and singular: rank 1 to 3, so whole minors cancel
    mats += [rng.normal(size=(4, 4)) * scale for scale in (1e-3, 1e-1, 1e1, 1e3) for _ in range(10)]
    mats += [rng.normal(size=(4, rank)) @ rng.normal(size=(rank, 4)) * scale
             for rank in (1, 2, 3) for scale in (1e-3, 1.0, 1e3) for _ in range(5)]
    for a in mats:
        np.testing.assert_array_equal(_kernels.compound16(a), wedge_chain_pushforward(a))


def test_compound16_rejects_other_shapes():
    for shape in [(16,), (2, 8), (1, 4), (4, 4, 1)]:
        with pytest.raises(ValueError, match="expected a 4x4 matrix"):
            _kernels.compound16(np.ones(shape))


def test_insert_remove_signs_match_position_counting():
    # slice i of each move stack carries blade b to b ^ bit(i) with the
    # position-counting sign of that move
    cols = np.arange(NBLADES)
    for name, side, remove in (("_INSERT_LEFT", "left", False), ("_REMOVE_LEFT", "left", True),
                               ("_INSERT_RIGHT", "right", False), ("_REMOVE_RIGHT", "right", True)):
        table = move_sign_table(side, remove)
        expected = np.zeros((4, NBLADES, NBLADES))
        for i in range(4):
            expected[i, cols ^ (1 << i), cols] = table[i]
        stack = getattr(gr, name)
        np.testing.assert_array_equal(stack, expected, err_msg=name)
        assert stack.dtype == np.float64
        # contiguous, so _gamma_ops' reshape of a removal stack is a view
        assert stack.flags.c_contiguous and not stack.flags.writeable, name
