"""Plane-wave solutions of the matrix Dirac equation and their transformation behavior.

A plane wave is a constant 4x4 amplitude times exp(sum_mu lambda_mu x_mu);
substituting the derivative by the exponent covector turns the Dirac operator
into the symbol matrix sum_mu lambda_mu gamma_mu.  The module also carries the
operator form of the same symbol on the 16-dim exterior space.  Whether a map
acts on the spinor factor of Mat(4) = S (x) S* alone is
:func:`spinrep.transforms.spinor_factorization`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import CliffordElement
from .grassmann import Metric, _gamma_ops_cached
from .isomorphisms import GammaBasis
from .transforms import _lift_stack

# an eigenvalue of the symbol counts as the mass m within this, relative to
# the symbol's scale
_CLUSTER_TOL = 1e-9


def symbol_matrix(lam: np.ndarray, basis: GammaBasis) -> np.ndarray:
    """The 4x4 symbol sum_mu lambda_mu gamma_mu; squares to g(lambda, lambda) Id.

    A (..., 4) stack of covectors gives a stack of symbols.
    """
    lam = np.asarray(lam, dtype=np.complex128)
    return np.einsum("...m,mij->...ij", lam, basis.gammas)


def symbol_element(lam: np.ndarray) -> CliffordElement:
    """The same symbol as an abstract algebra element (grade 1)."""
    return CliffordElement.from_vector(lam)


def hodge_dirac_symbol(lam: np.ndarray, g: Metric) -> np.ndarray:
    """Operator form of the symbol on the 16-dim exterior space.

    By construction equals sum_mu lambda_mu (delta_mu + delta*_mu), the sum of
    exterior multiplication and contraction weighted by the exponent.
    """
    lam = np.asarray(lam, dtype=np.complex128)
    return np.einsum("m,mkl->kl", lam, _gamma_ops_cached(g))


@dataclass(frozen=True, eq=False)
class PlaneWave:
    """Constant amplitude N, exponent covector lambda and mass m; compares by identity.

    A (..., 4, 4) amplitude or a (..., 4) exponent is a stack of waves, whose
    leading axes broadcast.
    """

    amplitude: np.ndarray
    exponent: np.ndarray
    mass: complex

    def __post_init__(self) -> None:
        n = np.array(self.amplitude, dtype=np.complex128)
        lam = np.array(self.exponent, dtype=np.complex128)
        if n.shape[-2:] != (4, 4):
            raise ValueError(f"amplitude must be 4x4, got {n.shape}")
        if lam.shape[-1:] != (4,):
            raise ValueError(f"exponent must be a 4-vector, got {lam.shape}")
        n.flags.writeable = False
        lam.flags.writeable = False
        object.__setattr__(self, "amplitude", n)
        object.__setattr__(self, "exponent", lam)
        object.__setattr__(self, "mass", complex(self.mass))

    def residual(self, basis: GammaBasis) -> float | np.ndarray:
        """Max-entry violation of symbol(lambda) N = m N, per wave of a stack."""
        s = symbol_matrix(self.exponent, basis)
        residual = np.abs(s @ self.amplitude - self.mass * self.amplitude).max(axis=(-2, -1))
        return float(residual) if residual.ndim == 0 else residual


@dataclass(frozen=True, eq=False)
class PlaneWaveSolutions:
    """Solution space of symbol(lambda) N = m N for fixed lambda and m.

    ``column_basis`` spans the eigenspace the columns may occupy; the matrix
    solution space is that eigenspace tensored with arbitrary rows, of complex
    dimension 4 * column_dimension.  Compares by identity.
    """

    exponent: np.ndarray
    mass: complex
    column_basis: np.ndarray  # (4, r), orthonormal columns

    @property
    def column_dimension(self) -> int:
        return self.column_basis.shape[1]

    @property
    def dimension(self) -> int:
        return 4 * self.column_dimension

    @property
    def matrix_basis(self) -> np.ndarray:
        """(4r, 4, 4) stack: column basis vector times each coordinate row."""
        r = self.column_dimension
        out = np.zeros((4 * r, 4, 4), dtype=np.complex128)
        for i in range(r):
            for j in range(4):
                out[i * 4 + j, :, j] = self.column_basis[:, i]
        return out


def plane_wave_solutions(lam: np.ndarray, m: complex, basis: GammaBasis) -> PlaneWaveSolutions:
    """Basis of the plane-wave solution space (empty basis is a valid result).

    Generic masses use the eigendecomposition of the symbol, clustering
    eigenvalues within 1e-9 of m, relative to the symbol's scale.  The
    massless lightlike case has a nilpotent symbol and is resolved through
    its numerical null space instead.
    """
    lam = np.asarray(lam, dtype=np.complex128)
    m = complex(m)
    s = symbol_matrix(lam, basis)
    scale = max(1.0, float(np.abs(s).max()), abs(m))
    if abs(m) <= _CLUSTER_TOL * scale:
        # null space of the (possibly nilpotent) symbol via SVD
        u, sv, vh = np.linalg.svd(s)
        rank = int(np.count_nonzero(sv > _CLUSTER_TOL * scale))
        cols = vh[rank:].conj().T
        return PlaneWaveSolutions(lam, m, cols)
    evals, evecs = np.linalg.eig(s)
    sel = np.abs(evals - m) < _CLUSTER_TOL * scale
    if not np.any(sel):
        return PlaneWaveSolutions(lam, m, np.zeros((4, 0), dtype=np.complex128))
    q, _ = np.linalg.qr(evecs[:, sel])
    return PlaneWaveSolutions(lam, m, q)


def covariance_residual(a: np.ndarray, wave: PlaneWave, basis: GammaBasis) -> float | np.ndarray:
    """Residual in the Dirac equation of the wave pushed along an isometry.

    The amplitude is conjugated by the lift and the exponent transforms with
    the map itself (the companion of the generator substitution convention),
    so a true solution stays a true solution under any isometry of the
    metric; raises :class:`NotIsometry` otherwise.  A (..., 4, 4) stack of
    maps gives an array of residuals, NaN for a map with no lift.
    """
    a = np.asarray(a, dtype=np.float64)
    _, m, inverse, _, lift_residual = _lift_stack(a, basis)
    failed = np.isnan(lift_residual)
    a = np.where(failed[..., None, None], np.eye(4), a)  # a map with no lift may not be finite
    residual = PlaneWave(m @ wave.amplitude @ inverse, a @ wave.exponent, wave.mass).residual(basis)
    return residual if failed.ndim == 0 else np.where(failed, np.nan, residual)
