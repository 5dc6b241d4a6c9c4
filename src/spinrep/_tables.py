"""Static blade combinatorics for the 16-dimensional algebras on four generators.

A basis blade is a 4-bit mask: bit ``mu`` set means generator ``mu`` is a
factor, factors always ordered by ascending index.  Everything here is
metric-independent and built once at import time.
"""

from __future__ import annotations

import numpy as np

DIM = 4
NBLADES = 1 << DIM  # 16

MASKS = np.arange(NBLADES)  # every blade mask, ascending

# _BITS[b, j]: whether generator j is a factor of blade b
_BITS = MASKS[:, None] >> np.arange(DIM) & 1

# grade of each blade = number of set bits
GRADE = _BITS.sum(axis=1)

# bit positions of each blade, ascending
BLADE_BITS = tuple(
    tuple(i for i in range(DIM) if b >> i & 1) for b in range(NBLADES)
)

# blades listed grade by grade (0, 1, 2, 3, 4), ascending mask within a grade
BLADES_BY_GRADE = tuple(
    tuple(b for b in range(NBLADES) if GRADE[b] == k) for k in range(DIM + 1)
)

TOP = NBLADES - 1  # the volume blade 0b1111

# WEDGE_SIGN[a, b]: sign of e_a ^ e_b (0 on overlap); result mask is a | b.
# Merging the two ascending sequences moves each factor j of b past the
# factors of a above j, GRADE[a >> (j + 1)] of them; the sign is the parity
# of the total
_SWAPS = GRADE[MASKS[:, None] >> np.arange(1, DIM + 1)] @ _BITS.T
WEDGE_SIGN = np.where(MASKS[:, None] & MASKS, 0, 1 - 2 * (_SWAPS & 1)).astype(np.int8)

# dense structure tensor for the wedge product: out[k] += W[i, j, k] a[i] b[j]
WEDGE_TENSOR = np.zeros((NBLADES, NBLADES, NBLADES), dtype=np.float64)
WEDGE_TENSOR[MASKS[:, None], MASKS, MASKS[:, None] | MASKS] = WEDGE_SIGN

# reversion sign of each blade, (-1)^(k(k-1)/2) at grade k
REVERSION_SIGN = ((-1) ** (GRADE * (GRADE - 1) // 2)).astype(np.int8)


def blade_label(mask: int, symbol: str = "d", unit: str = "1", sep: str = "") -> str:
    """Readable label for a blade mask, e.g. ``d0`` or ``d0d1`` (``1`` for the unit)."""
    if mask == 0:
        return unit
    return sep.join(f"{symbol}{i}" for i in BLADE_BITS[mask])
