"""Abstract 16-dimensional Clifford algebra of a symmetric nondegenerate metric.

Elements are stored as 16 complex coefficients in the antisymmetrised blade
basis: blade mask m with bits i1 < ... < ik stands for the Chevalley image of
e_i1 ^ ... ^ e_ik, the average over all orderings of the k generators,
weighted by the sign of the ordering (the empty mask is the algebra unit).
This identification of the exterior algebra with the Clifford algebra is
valid for every metric (Chevalley, *The Algebraic Theory of Spinors*, 1954),
and in it each blade operator applied to the scalar 1 returns exactly its
blade.  The geometric product is realized through the generator operators of
:mod:`spinrep.grassmann`: the structure tensor is the stack of the 16 blade
operators, built from the generator operators by :func:`_blade_products`.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from ._tables import (
    BLADE_BITS,
    BLADES_BY_GRADE,
    DIM,
    GRADE,
    NBLADES,
    REVERSION_SIGN,
)
from .grassmann import Metric, _BladeVector, _gamma_ops, _gamma_ops_cached, _per_metric


class CliffordElement(_BladeVector):
    """Element of the Clifford algebra in the antisymmetrised blade basis."""

    _label = ("g", "Id", "")

    @classmethod
    def unit(cls, value: complex = 1.0) -> "CliffordElement":
        return cls._single(0, value)

    @classmethod
    def generator(cls, i: int, value: complex = 1.0) -> "CliffordElement":
        if not 0 <= i < DIM:
            raise ValueError(f"generator index must be in 0..3, got {i}")
        return cls._single(1 << i, value)

    @classmethod
    def basis_blade(cls, mask: int, value: complex = 1.0) -> "CliffordElement":
        return cls._single(mask, value)


# per grade 1..4: its blades, the lowest factor of each, each blade without
# that factor, and the sign (-1)^j for that rest of grade j
_GRADE_STEPS = tuple(
    (np.array(blades), np.array([BLADE_BITS[b][0] for b in blades]),
     np.array([b ^ (1 << BLADE_BITS[b][0]) for b in blades]), 1.0 if k % 2 else -1.0)
    for k, blades in enumerate(BLADES_BY_GRADE) if k
)


def _blade_products(gens: np.ndarray) -> np.ndarray:
    """The 16 antisymmetrised products of four generator matrices, unit first.

    ``gens`` is (..., 4, d, d) and the result (..., 16, d, d); leading axes
    are a batch.  Blade m is built from its lowest factor e_i and the rest w,
    of grade k: q(e_i ^ w) = (gens[i] q(w) + (-1)^k q(w) gens[i]) / 2, all
    blades of one grade in one stacked product from the grade below.  Each
    matrix product is the one a loop over the blades would take, so the
    result is the same to the bit.  Nothing here depends on the metric; the
    generators carry it.
    """
    out = np.empty(gens.shape[:-3] + (NBLADES,) + gens.shape[-2:], dtype=gens.dtype)
    out[..., 0, :, :] = np.eye(gens.shape[-1])
    for blades, first, rest, sign in _GRADE_STEPS:
        gen, w = gens[..., first, :, :], out[..., rest, :, :]
        out[..., blades, :, :] = 0.5 * (gen @ w + sign * (w @ gen))
    return out


def _structure(g: np.ndarray) -> np.ndarray:
    """Real structure tensors of a metric matrix or a (..., 4, 4) stack of them."""
    return _blade_products(_gamma_ops(g))


@_per_metric
def _structure_cached(g: Metric) -> np.ndarray:
    """Real structure tensor: the stack of the 16 blade operators, built on
    the cached generator operators."""
    return _blade_products(_gamma_ops_cached(g))


def product_tensor(g: Metric) -> np.ndarray:
    """Real structure tensor t with (a b)_k = sum_ij t[i, k, j] a_i b_j.

    t[i] is the operator of left multiplication by basis blade i.
    """
    return _structure_cached(g)


def geometric_product(a: CliffordElement, b: CliffordElement, g: Metric) -> CliffordElement:
    """Associative product with generators squaring to the metric."""
    return CliffordElement(_kernels.mul16(a.coeffs, b.coeffs, product_tensor(g)))


def grade_project(a: CliffordElement, k: int) -> CliffordElement:
    """Keep only the coefficients of products of exactly ``k`` generators."""
    if not 0 <= k <= DIM:
        raise ValueError(f"grade must be in 0..4, got {k}")
    return CliffordElement(np.where(GRADE == k, a.coeffs, 0.0))


def even_part(a: CliffordElement) -> CliffordElement:
    """Projection onto the even subalgebra (grades 0, 2, 4)."""
    return CliffordElement(np.where(GRADE % 2 == 0, a.coeffs, 0.0))


def odd_part(a: CliffordElement) -> CliffordElement:
    """Projection onto the odd component (grades 1, 3)."""
    return CliffordElement(np.where(GRADE % 2 == 1, a.coeffs, 0.0))


def reversion(a: CliffordElement) -> CliffordElement:
    """Anti-automorphism reversing factor order: sign (-1)^(k(k-1)/2) on grade k."""
    return CliffordElement(a.coeffs * REVERSION_SIGN)
