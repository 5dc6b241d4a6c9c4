"""Hot coefficient-space kernels: the wedge product and the metric product."""

from __future__ import annotations

import numpy as np

from ._tables import WEDGE_TENSOR


def wedge16(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Wedge product of two dense 16-coefficient vectors."""
    return np.einsum("i,j,ijk->k", a, b, WEDGE_TENSOR)


def mul16(a: np.ndarray, b: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """Bilinear product with per-metric structure tensor ``tensor[i, k, j]``."""
    return np.einsum("i,ikj,j->k", a, tensor, b)


def backend_name() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"
