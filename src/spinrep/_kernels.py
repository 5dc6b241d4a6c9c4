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

    Built grade by grade, each minor expanded along its highest column: one
    gather of the lower minors and one of the matching entries of ``a``, one
    product, one sum over the expansion terms and one scatter.  The terms are
    added in ascending order of the lower row blade, the order in which the
    wedge of the columns adds them, so the two agree bit for bit.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (DIM, DIM):
        raise ValueError(f"expected a 4x4 matrix, got shape {a.shape}")
    a = a.reshape(-1)
    signed = np.concatenate((a, -a))
    out = np.zeros(NBLADES * NBLADES)
    out[0] = 1.0
    out[_GRADE1] = a
    for minors, entries, block in _EXPANSIONS:
        out[block] = np.add.reduce(out.take(minors) * signed.take(entries))
    return out.reshape(NBLADES, NBLADES)


def backend_name() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"
