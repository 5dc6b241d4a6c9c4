"""Bridges between the exterior algebra, the abstract Clifford algebra and 4x4 matrices.

Contains the canonical coefficientwise identification of the two blade-indexed
bases, the left and right regular representations acting on the 16-dimensional
coefficient space, a concrete Dirac-matrix basis for any metric of Lorentz
signature, and the wedge product transported onto 4x4 matrices.  Every
blade-indexed stack here (left and right operators, 4x4 blade matrices) is
built by :func:`spinrep.clifford._blade_products` in the antisymmetrised
basis, so all of them hold for every metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from ._tables import DIM, NBLADES
from .clifford import CliffordElement, _blade_products, product_tensor
from .errors import NoRealFactorization
from .grassmann import GrassmannElement, Metric, _right_gamma_ops_cached

# standard Dirac representation: diagonal-blocks gamma0, off-diagonal Pauli blocks
_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)


def _standard_gammas() -> np.ndarray:
    gammas = np.zeros((DIM, 4, 4), dtype=np.complex128)
    gammas[0] = np.diag([1.0, 1.0, -1.0, -1.0])
    for i, sigma in enumerate(_PAULI):
        gammas[i + 1, :2, 2:] = sigma
        gammas[i + 1, 2:, :2] = -sigma
    return gammas


@dataclass(frozen=True, eq=False)
class GammaBasis:
    """Four concrete 4x4 generator matrices together with the metric they represent.

    Bases compare and hash by ``gammas`` alone, which determine the metric.
    """

    gammas: np.ndarray
    metric: Metric

    def __post_init__(self) -> None:
        g = np.array(self.gammas, dtype=np.complex128)
        if g.shape != (DIM, 4, 4):
            raise ValueError(f"expected four 4x4 matrices, got shape {g.shape}")
        g.flags.writeable = False
        object.__setattr__(self, "gammas", g)
        # not a field: what equality and the hash compare, -0.0 read as 0.0
        object.__setattr__(self, "_bytes", (g + 0.0).tobytes())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GammaBasis):
            return NotImplemented
        return self._bytes == other._bytes

    def __hash__(self) -> int:
        return hash(self._bytes)


def anticommutator_defect(basis: GammaBasis) -> float:
    """Largest entrywise violation of the metric anticommutation relations."""
    worst = 0.0
    eye = np.eye(4)
    for mu in range(DIM):
        for nu in range(DIM):
            ac = basis.gammas[mu] @ basis.gammas[nu] + basis.gammas[nu] @ basis.gammas[mu]
            worst = max(worst, float(np.abs(ac - 2 * basis.metric.g[mu, nu] * eye).max()))
    return worst


def dirac_matrices(g: Metric) -> GammaBasis:
    """Concrete generator matrices for any nondegenerate metric of Lorentz signature.

    A diagonal metric with sign pattern (+,-,-,-) keeps the standard
    representation (scaled per axis); the pattern (-,+,+,+) multiplies it by
    the imaginary unit.  A general symmetric metric is factored through a
    diagonal form by eigendecomposition and the factor is absorbed into the
    generators.  Raises :class:`NoRealFactorization` unless exactly one or
    exactly three eigenvalues are positive.
    """
    base = _standard_gammas()
    diag = np.diagonal(g.g)
    if np.count_nonzero(g.g - np.diag(diag)) == 0:
        pattern = tuple(np.sign(diag).astype(int))
        if pattern == (1, -1, -1, -1):
            scaled = np.sqrt(np.abs(diag))[:, None, None] * base
            return GammaBasis(scaled, g)
        if pattern == (-1, 1, 1, 1):
            scaled = np.sqrt(np.abs(diag))[:, None, None] * (1j * base)
            return GammaBasis(scaled, g)
    evals, evecs = np.linalg.eigh(g.g)
    n_pos = int(np.count_nonzero(evals > 0))
    if n_pos == 1:
        perm = [3, 0, 1, 2]  # positive eigenvalue first, matching (+,-,-,-)
    elif n_pos == 3:
        perm = [0, 1, 2, 3]  # negative eigenvalue first, matching (-,+,+,+)
        base = 1j * base
    else:
        raise NoRealFactorization(
            f"metric has {n_pos} positive eigenvalues; need exactly 1 or 3"
        )
    factor = np.sqrt(np.abs(evals[perm]))[:, None] * evecs[:, perm].T
    gammas = np.einsum("nm,nij->mij", factor, base)
    return GammaBasis(gammas, g)


def to_clifford(a: GrassmannElement) -> CliffordElement:
    """Canonical linear map: blade coefficients reread in the Clifford basis.

    The Clifford basis is the antisymmetrised one, so this is the Chevalley
    identification of the exterior and Clifford algebras for every metric.
    """
    return CliffordElement(a.coeffs)


def to_grassmann(a: CliffordElement) -> GrassmannElement:
    """Inverse of :func:`to_clifford`."""
    return GrassmannElement(a.coeffs)


def left_rep(L: CliffordElement, g: Metric) -> np.ndarray:
    """Operator of left multiplication by ``L`` on the 16-dim coefficient space.

    The blade operators are the slices of the product tensor, built from the
    generator operators; extended linearly, an algebra homomorphism.
    """
    return np.einsum("i,ikl->kl", L.coeffs, product_tensor(g))


@lru_cache(maxsize=64)
def _right_blade_ops_cached(g: Metric) -> np.ndarray:
    # right multiplication reverses products, so the transposed operators
    # compose like the left ones
    gens = _right_gamma_ops_cached(g).transpose(0, 2, 1)
    ops = np.ascontiguousarray(_blade_products(gens).transpose(0, 2, 1))
    ops.flags.writeable = False
    return ops


def right_rep(R: CliffordElement, g: Metric) -> np.ndarray:
    """Operator matching right multiplication by ``R``; commutes with left_rep images."""
    return np.einsum("i,ikl->kl", R.coeffs, _right_blade_ops_cached(g))


@lru_cache(maxsize=64)
def _matrix_basis_cached(basis: GammaBasis):
    stack = _blade_products(basis.gammas)
    flat = stack.reshape(NBLADES, 16).T  # columns are vectorized basis matrices
    flat_inv = np.linalg.inv(flat)
    stack.flags.writeable = False
    flat_inv.flags.writeable = False
    return stack, flat_inv


def gamma_blade_matrices(basis: GammaBasis) -> np.ndarray:
    """Stack of the 16 antisymmetrised generator-product matrices (unit first)."""
    return _matrix_basis_cached(basis)[0]


def clifford_to_matrix(a: CliffordElement, basis: GammaBasis) -> np.ndarray:
    """Substitute the concrete matrices into the antisymmetrised blade basis."""
    return np.einsum("i,ijk->jk", a.coeffs, gamma_blade_matrices(basis))


def matrix_to_clifford(m: np.ndarray, basis: GammaBasis) -> CliffordElement:
    """Decompose a 4x4 matrix over the 16 blade matrices."""
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (4, 4):
        raise ValueError(f"expected 4x4 matrix, got shape {m.shape}")
    coeffs = _matrix_basis_cached(basis)[1] @ m.reshape(16)
    return CliffordElement(coeffs)


def matrix_wedge(a: np.ndarray, b: np.ndarray, basis: GammaBasis) -> np.ndarray:
    """Wedge product transported onto 4x4 matrices through the blade decomposition."""
    ca = matrix_to_clifford(a, basis)
    cb = matrix_to_clifford(b, basis)
    cw = _kernels.wedge16(ca.coeffs, cb.coeffs)
    return clifford_to_matrix(CliffordElement(cw), basis)
