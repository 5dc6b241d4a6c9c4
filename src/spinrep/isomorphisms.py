"""Bridges between the exterior algebra, the abstract Clifford algebra and 4x4 matrices.

Contains the canonical coefficientwise identification of the two blade-indexed
bases, the left and right regular representations acting on the 16-dimensional
coefficient space, a concrete Dirac-matrix basis for every symmetric
nondegenerate metric, and the wedge product transported onto 4x4 matrices.
Over the complex numbers the Clifford algebra of every signature is Mat(4, C),
so one route serves all of them: the standard Dirac matrices are scaled along
an eigen-frame of the metric, and a generator whose square has the wrong sign
is multiplied by the imaginary unit.  Every blade-indexed stack here (left and
right operators, 4x4 blade matrices) is built by
:func:`spinrep.clifford._blade_products` in the antisymmetrised basis, so all
of them hold for every metric.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._tables import DIM, NBLADES
from .clifford import CliffordElement, _blade_products, product_tensor
from .grassmann import GrassmannElement, Metric, _ByteKey, _per_metric, _right_gamma_ops_cached

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


# the standard generators, their squares (+,-,-,-), and the generators times i
_STANDARD = _standard_gammas()
_STANDARD_SQUARES = np.array([1.0, -1.0, -1.0, -1.0])
_STANDARD_TIMES_I = 1j * _STANDARD


@dataclass(frozen=True, eq=False)
class GammaBasis(_ByteKey):
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
        self._key(g)


def anticommutator_defect(basis: GammaBasis | Sequence[GammaBasis]) -> float | np.ndarray:
    """Largest entrywise violation of the metric anticommutation relations.

    A sequence of bases gives an array, one value per basis.
    """
    bases = [basis] if isinstance(basis, GammaBasis) else basis
    worst = _anticommutator_worst(np.stack([b.gammas for b in bases]),
                                  np.stack([b.metric.g for b in bases]))
    return float(worst[0]) if isinstance(basis, GammaBasis) else worst


def _anticommutator_worst(gens: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Per metric of the (metrics, 4, 4) stack ``g``, the largest entry of
    gens[mu] gens[nu] + gens[nu] gens[mu] - 2 g[mu, nu] Id over all mu, nu.

    ``gens`` is the (metrics, 4, d, d) stack of the four generators of any
    representation, one set per metric.  One pair at a time keeps the memory
    to one stack; each unordered pair is taken once, since the sum is
    symmetric in mu and nu.
    """
    one = np.eye(gens.shape[-1])
    worst = np.zeros(len(g))
    for mu, nu in itertools.combinations_with_replacement(range(DIM), 2):
        ac = (gens[:, mu] @ gens[:, nu] + gens[:, nu] @ gens[:, mu]
              - 2.0 * g[:, mu, nu, None, None] * one)
        worst = np.maximum(worst, np.abs(ac).reshape(len(g), -1).max(axis=1))
    return worst


def dirac_matrices(g: Metric) -> GammaBasis:
    """Concrete generator matrices for any symmetric nondegenerate metric.

    The metric is read in an eigen-frame: a diagonal metric is its own frame,
    with its diagonal as the eigenvalues, and any other metric is
    diagonalised by ``eigh``, its directions ordered minority sign first (the
    lone positive direction of (+,-,-,-), the lone negative one of
    (-,+,+,+)).  Standard generator n is scaled by sqrt|lambda_n| and
    multiplied by the imaginary unit where the sign of lambda_n differs from
    its standard square (+,-,-,-); the frame then carries the generators back
    to the coordinate axes.
    """
    diag = np.diagonal(g.g)
    if np.count_nonzero(g.g - np.diag(diag)) == 0:
        evals, frame = diag, None
    else:
        evals, evecs = np.linalg.eigh(g.g)
        # eigh sorts ascending, so the positive directions are the last n_pos;
        # they move to the front when they are the minority
        n_pos = int(np.count_nonzero(evals > 0))
        shift = n_pos if 2 * n_pos < DIM else 0
        order = [*range(DIM - shift, DIM), *range(DIM - shift)]
        evals, frame = evals[order], evecs[:, order].T
    flip = evals * _STANDARD_SQUARES < 0
    base = np.where(flip[:, None, None], _STANDARD_TIMES_I, _STANDARD)
    scale = np.sqrt(np.abs(evals))
    if frame is None:
        return GammaBasis(scale[:, None, None] * base, g)
    return GammaBasis(np.einsum("nm,nij->mij", scale[:, None] * frame, base), g)


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
    generator operators; extended linearly, an algebra homomorphism.  A stack
    of elements gives a stack of operators, here and in :func:`right_rep`.
    """
    return np.einsum("...i,ikl->...kl", L.coeffs, product_tensor(g))


@_per_metric
def _right_blade_ops_cached(g: Metric) -> np.ndarray:
    """The 16 operators of right multiplication by a blade, unit first.

    Right multiplication reverses products, so the transposed operators
    compose like the left ones.
    """
    gens = _right_gamma_ops_cached(g).transpose(0, 2, 1)
    return np.ascontiguousarray(_blade_products(gens).transpose(0, 2, 1))


def right_rep(R: CliffordElement, g: Metric) -> np.ndarray:
    """Operator matching right multiplication by ``R``; commutes with left_rep images."""
    return np.einsum("...i,ikl->...kl", R.coeffs, _right_blade_ops_cached(g))


@_per_metric
def _matrix_basis_cached(basis: GammaBasis):
    """The (16, 4, 4) blade matrices of ``basis`` and the inverse of the
    16x16 matrix whose columns are those matrices, vectorized."""
    stack = _blade_products(basis.gammas)
    return stack, np.linalg.inv(stack.reshape(NBLADES, 16).T)


def gamma_blade_matrices(basis: GammaBasis) -> np.ndarray:
    """Stack of the 16 antisymmetrised generator-product matrices (unit first)."""
    return _matrix_basis_cached(basis)[0]


def clifford_to_matrix(a: CliffordElement, basis: GammaBasis) -> np.ndarray:
    """Substitute the concrete matrices into the antisymmetrised blade basis.

    A stack of elements gives a stack of matrices.
    """
    return np.einsum("...i,ijk->...jk", a.coeffs, gamma_blade_matrices(basis))


def matrix_to_clifford(m: np.ndarray, basis: GammaBasis) -> CliffordElement:
    """Decompose a 4x4 matrix, or each of a (..., 4, 4) stack, over the 16
    blade matrices."""
    m = np.asarray(m, dtype=np.complex128)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 matrix, got shape {m.shape}")
    coeffs = _matrix_basis_cached(basis)[1] @ m.reshape(m.shape[:-2] + (16, 1))
    return CliffordElement(coeffs[..., 0])


def matrix_wedge(a: np.ndarray, b: np.ndarray, basis: GammaBasis) -> np.ndarray:
    """Wedge product transported onto 4x4 matrices through the blade
    decomposition; (..., 4, 4) stacks broadcast."""
    ca = matrix_to_clifford(a, basis)
    cb = matrix_to_clifford(b, basis)
    cw = _kernels.wedge16(ca.coeffs, cb.coeffs)
    return clifford_to_matrix(CliffordElement(cw), basis)
