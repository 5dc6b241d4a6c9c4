"""Static blade combinatorics for the 16-dimensional algebras on four generators.

A basis blade is a 4-bit mask: bit ``mu`` set means generator ``mu`` is a
factor, factors always ordered by ascending index.  Everything here is
metric-independent and built once at import time.
"""

from __future__ import annotations

import numpy as np

DIM = 4
NBLADES = 1 << DIM  # 16

# grade of each blade = number of set bits
GRADE = np.array([bin(b).count("1") for b in range(NBLADES)], dtype=np.int64)

# bit positions of each blade, ascending
BLADE_BITS = tuple(
    tuple(i for i in range(DIM) if b >> i & 1) for b in range(NBLADES)
)

# blades listed grade by grade (0, 1, 2, 3, 4), ascending mask within a grade
BLADES_BY_GRADE = tuple(
    tuple(b for b in range(NBLADES) if GRADE[b] == k) for k in range(DIM + 1)
)

TOP = NBLADES - 1  # the volume blade 0b1111

MASKS = np.arange(NBLADES)  # every blade mask, ascending


def _parity_sign(swaps: int) -> int:
    return -1 if swaps & 1 else 1


def _wedge_sign(a: int, b: int) -> int:
    """Sign of blade(a) ^ blade(b) relative to the ascending-order blade.

    Zero if the masks overlap.  Counts, for each factor of b, the factors of
    a that must be jumped to merge the two ascending sequences.
    """
    if a & b:
        return 0
    swaps = 0
    for j in BLADE_BITS[b]:
        swaps += bin(a >> (j + 1)).count("1")
    return _parity_sign(swaps)


# WEDGE_SIGN[a, b]: sign of e_a ^ e_b (0 on overlap); result mask is a | b
WEDGE_SIGN = np.array(
    [[_wedge_sign(a, b) for b in range(NBLADES)] for a in range(NBLADES)],
    dtype=np.int8,
)

# dense structure tensor for the wedge product: out[k] += W[i, j, k] a[i] b[j]
WEDGE_TENSOR = np.zeros((NBLADES, NBLADES, NBLADES), dtype=np.float64)
WEDGE_TENSOR[MASKS[:, None], MASKS, MASKS[:, None] | MASKS] = WEDGE_SIGN

# reversion sign of each blade, (-1)^(k(k-1)/2) at grade k
REVERSION_SIGN = np.array(
    [(-1) ** (int(GRADE[b]) * (int(GRADE[b]) - 1) // 2) for b in range(NBLADES)],
    dtype=np.int8,
)


def blade_label(mask: int, symbol: str = "d", unit: str = "1", sep: str = "") -> str:
    """Readable label for a blade mask, e.g. ``d0`` or ``d0d1`` (``1`` for the unit)."""
    if mask == 0:
        return unit
    return sep.join(f"{symbol}{i}" for i in BLADE_BITS[mask])
