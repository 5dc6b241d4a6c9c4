"""Hot coefficient-space kernels: the wedge product, the metric product and
the exterior extension of a 4x4 matrix."""

from __future__ import annotations

import numpy as np

from ._tables import BLADE_BITS, BLADES_BY_GRADE, NBLADES, WEDGE_TENSOR

_VECTORS = np.array(BLADES_BY_GRADE[1])
# the wedge table with a grade-1 right factor: row 4 a + i pairs blade a with e_i
_WEDGE_VECTOR = WEDGE_TENSOR[:, _VECTORS, :].reshape(NBLADES * 4, NBLADES)
# per grade 2..4: its blades, each without its highest factor, and that factor
_STEPS = [
    (np.array(blades), np.array([b ^ (1 << BLADE_BITS[b][-1]) for b in blades]),
     np.array([BLADE_BITS[b][-1] for b in blades]))
    for blades in BLADES_BY_GRADE[2:]
]


def wedge16(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Wedge product of two dense 16-coefficient vectors."""
    return np.einsum("i,j,ijk->k", a, b, WEDGE_TENSOR)


def mul16(a: np.ndarray, b: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """Bilinear product with per-metric structure tensor ``tensor[i, k, j]``.

    Leading axes of ``a``, ``b`` and ``tensor`` broadcast, so a stack of
    products is one call.  Two BLAS products, contracting ``b`` first: the
    (256, 16) tensor times ``b``, then ``a`` times the resulting 16x16 matrix.
    """
    tb = tensor.reshape(tensor.shape[:-3] + (NBLADES * NBLADES, NBLADES)) @ np.asarray(b)[..., None]
    tb = tb.reshape(tb.shape[:-2] + (NBLADES, NBLADES))
    return (np.asarray(a)[..., None, :] @ tb)[..., 0, :]


def compound16(a: np.ndarray) -> np.ndarray:
    """Exterior extension of a real 4x4 matrix: the 16x16 block-diagonal stack
    of its compound matrices, entry [r, c] the minor of rows r, columns c.

    Column c is the wedge of the columns of ``a`` named by the factors of
    blade c, built grade by grade: the column without its highest factor,
    wedged with that factor's column, in one batched product per grade.
    """
    a = np.asarray(a, dtype=np.float64)
    cols = np.zeros((NBLADES, NBLADES))  # row c holds column c
    cols[0, 0] = 1.0
    cols[_VECTORS[:, None], _VECTORS] = a.T
    for blades, lower, factor in _STEPS:
        pairs = cols[lower][:, :, None] * a[:, factor].T[:, None, :]
        cols[blades] = pairs.reshape(len(blades), -1) @ _WEDGE_VECTOR
    return cols.T


def backend_name() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"
