"""Hot coefficient-space kernels: the wedge product, the metric product and
the exterior extension of a 4x4 matrix."""

from __future__ import annotations

import numpy as np

from ._tables import BLADE_BITS, BLADES_BY_GRADE, DIM, NBLADES, WEDGE_TENSOR


def _expansion_tables(blades: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat gather tables for the compound block of one grade k >= 2.

    Entry (R, c) is sum_j (-1)^j minor(R - v_j, c - top) a[v_j, top], top the
    highest factor of c and v_j the factors of R from the highest down.
    Returns the (k, n, n) indices of those lower minors in the flat 16x16
    result, of the matching entries in the flat stack [a; -a] (the second
    half carries the sign), and the (n, n) indices of the block itself.
    """
    r = np.array(blades)
    down = np.array([BLADE_BITS[b][::-1] for b in blades]).T  # (k, n): v_j of R
    top = down[0]
    minors = (r ^ (1 << down))[:, :, None] * NBLADES + (r ^ (1 << top))
    sign = (np.arange(len(down)) % 2)[:, None, None]
    entries = (sign * DIM + down[:, :, None]) * DIM + top
    return minors, entries, r[:, None] * NBLADES + r


_VECTORS = np.array(BLADES_BY_GRADE[1])
_GRADE1 = (_VECTORS[:, None] * NBLADES + _VECTORS).reshape(-1)
_EXPANSIONS = [_expansion_tables(blades) for blades in BLADES_BY_GRADE[2:]]


# the wedge tensor as one (256, 16) matrix, a view: row (i, j) holds e_i ^ e_j
_WEDGE_MATRIX = WEDGE_TENSOR.reshape(NBLADES * NBLADES, NBLADES)


def wedge16(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Wedge product of dense 16-coefficient vectors; leading axes broadcast.

    One product: the outer product of ``a`` and ``b``, flattened to 256
    entries, against the (256, 16) wedge matrix.  A complex outer product is
    read as real and imaginary columns, so the product stays real and the
    matrix is never copied to complex.
    """
    outer = np.asarray(a)[..., :, None] * np.asarray(b)[..., None, :]
    outer = outer.reshape(outer.shape[:-2] + (NBLADES * NBLADES,))
    if not np.iscomplexobj(outer):
        return outer @ _WEDGE_MATRIX
    pairs = np.ascontiguousarray(outer, dtype=np.complex128).view(np.float64)
    return (_WEDGE_MATRIX.T @ pairs.reshape(outer.shape + (2,))).view(np.complex128)[..., 0]


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
    """Exterior extension of a real 4x4 matrix, or of each of a (..., 4, 4)
    stack: the 16x16 block-diagonal stack of its compound matrices, entry
    [r, c] the minor of rows r, columns c.

    Built grade by grade, each minor expanded along its highest column: one
    gather of the lower minors and one of the matching entries of ``a``, one
    product, one sum over the expansion terms and one scatter.  The terms are
    added in ascending order of the lower row blade, the order in which the
    wedge of the columns adds them, so the two agree bit for bit.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.shape[-2:] != (DIM, DIM):
        raise ValueError(f"expected a 4x4 matrix, got shape {a.shape}")
    # entries along the first axis and any maps along the last, so that the
    # gathers index the first axis whether there is one map or a stack
    flat = a.reshape(-1, DIM * DIM).T if a.ndim > 2 else a.reshape(DIM * DIM)
    signed = np.concatenate((flat, -flat))
    out = np.zeros((NBLADES * NBLADES,) + flat.shape[1:])
    out[0] = 1.0
    out[_GRADE1] = flat
    for minors, entries, block in _EXPANSIONS:
        out[block] = np.add.reduce(out.take(minors, 0) * signed.take(entries, 0))
    return out.T.reshape(a.shape[:-2] + (NBLADES, NBLADES))


def backend_name() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"
