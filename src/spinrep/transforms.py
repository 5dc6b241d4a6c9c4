"""Linear coordinate changes and their actions on the algebras.

Covers substitution of generators along a linear map, spin lifts of metric
isometries, the grade-wise exterior extension of an arbitrary linear map,
metric pullback, the induced action on 4x4 matrices, and the residuals
comparing the two transformation routes.  A lift is the null vector of a
real system on the 16 blade coefficients of the real Clifford algebra, with
grade k scaled by sigma^k, sigma = |det g|^(1/8).  Every generator operator
changes the grade by one, so the system splits into two 32x8 parity blocks,
solved in one batched SVD; the lift lies in one of them.  The complex 64x16
conjugation system on 4x4 matrices is kept as its independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._tables import DIM, GRADE, NBLADES
from .clifford import CliffordElement
from .errors import LiftNotFound, NotIsometry
from .grassmann import _INSERT_LEFT, _INSERT_RIGHT, _REMOVE_LEFT, _REMOVE_RIGHT, Metric, _per_metric
from .isomorphisms import (
    GammaBasis,
    _matrix_basis_cached,
    gamma_blade_matrices,
    matrix_to_clifford,
)

_EYE4 = np.eye(DIM)

DEFAULT_ISOMETRY_TOL = 1e-10
LIFT_ACCEPT = 1e-8  # largest normalized singular value accepted as null
LIFT_GAP = 1e-4  # the next singular value must exceed this
# a map has no lift when the smallest normalized singular value of its
# conjugation system exceeds this
NO_LIFT_SEPARATION = 1e-6


def isometry_defect(a: np.ndarray, g: Metric) -> float | np.ndarray:
    """Largest entry of A^T g A - g: a float for one map, an array for a
    (..., 4, 4) stack.  Raises :class:`NotIsometry` when an entry of ``a`` is
    not finite, since no comparison can judge that defect.
    """
    a = np.asarray(a, dtype=np.float64)
    largest = float(np.abs(a).max(initial=0.0))  # NaN or inf when an entry is not finite
    if not largest < np.inf:
        raise NotIsometry("map entries must be finite")
    defect = _defects(a, g, largest)
    return float(defect) if defect.ndim == 0 else defect


def _defects(a: np.ndarray, g: Metric, largest: float) -> np.ndarray:
    """The isometry defect of each finite map of ``a``, whose entries are at
    most ``largest`` in size.  An entry of A^T g A is at most 16 largest^2
    times the largest entry of g.  Where that could overflow, the product is
    taken with its overflow ignored, so that the defect reads inf or NaN and
    fails any tolerance; ``np.errstate`` costs about 2 us, so a map of
    ordinary size skips it."""
    if (16.0 * largest * largest + 1.0) * g._largest < 1e308:
        return np.abs(a.mT @ g.g @ a - g.g).max(axis=(-2, -1))
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(a.mT @ g.g @ a - g.g).max(axis=(-2, -1))


def metric_pullback(a: np.ndarray, g: Metric) -> Metric:
    """The metric A^T g A, symmetrized to machine exactness.

    Raises :class:`DegenerateMetric` when it is degenerate, as it is for a
    singular ``a``.
    """
    a = np.asarray(a, dtype=np.float64)
    m = a.T @ g.g @ a
    return Metric((m + m.T) / 2.0, det_tol=g.det_tol)


def substitute_gammas(a: np.ndarray, basis: GammaBasis) -> GammaBasis:
    """New generator set gamma'_mu = sum_nu A[nu, mu] gamma_nu.

    The returned basis represents the pulled-back metric A^T g A, so a
    singular ``a`` raises :class:`DegenerateMetric`.
    """
    return GammaBasis(_substituted(a, basis), metric_pullback(a, basis.metric))


def conjugation_system(a: np.ndarray, basis: GammaBasis) -> np.ndarray:
    """Stacked 64x16 system whose null vectors conjugate the generators into
    their substituted images: Sigma gamma_mu - gamma'_mu Sigma = 0 for all mu.

    Complex and over the 16 matrix entries of Sigma, independent of the blade
    basis: the oracle for :func:`spin_lift`'s real route, and the diagnosis
    of maps that have no lift.  A (..., 4, 4) stack of maps gives a
    (..., 64, 16) stack of systems.
    """
    gp = _substituted(a, basis)
    # row-major vec: vec(X G) = (I (x) G^T) vec X, vec(G' X) = (G' (x) I) vec X,
    # each Kronecker product as one broadcast product over the four mu
    gt = basis.gammas.transpose(0, 2, 1)
    left = _EYE4[None, :, None, :, None] * gt[:, None, :, None, :]
    right = gp[..., :, :, None, :, None] * _EYE4[None, None, :, None, :]
    return (left - right).reshape(gp.shape[:-3] + (64, 16))


def _substituted(a: np.ndarray, basis: GammaBasis) -> np.ndarray:
    """The four images gamma'_mu = sum_nu A[nu, mu] gamma_nu, per map of a stack."""
    return np.einsum("...nm,nij->...mij", np.asarray(a, dtype=np.float64), basis.gammas)


def conjugation_singular_values(a: np.ndarray, basis: GammaBasis) -> np.ndarray:
    """Normalized singular values (descending, divided by the largest), per
    map of a (..., 4, 4) stack."""
    s = np.linalg.svd(conjugation_system(a, basis), compute_uv=False)
    return s / s[..., :1]


@dataclass(frozen=True, eq=False)
class SpinElement:
    """Invertible algebra element conjugating the generators along an isometry.

    ``parity`` is ``"even"`` for orientation-preserving isometries and
    ``"odd"`` for orientation-reversing ones, and the element has no
    coefficient of the other parity.  The coefficients are real, scaled so
    that the matrix image has unit determinant and the largest-magnitude
    coefficient is positive; ``inverse_matrix`` is the matrix's inverse,
    computed once by :func:`spin_lift`.  Lifts compare and hash by identity.
    """

    element: CliffordElement
    matrix: np.ndarray
    parity: str
    residual: float | None
    inverse_matrix: np.ndarray

    def __post_init__(self) -> None:
        for name in ("matrix", "inverse_matrix"):
            m = np.array(getattr(self, name), dtype=np.complex128)
            m.flags.writeable = False
            object.__setattr__(self, name, m)


# S gamma_mu - gamma'_mu S on blade coefficients is right multiplication by
# generator mu minus left multiplication by sum_nu A[nu, mu] gamma_nu.  With
# the generator operators INS + g REM, block mu of that system is
#   sum_k I[mu,k] INS_R[k] + g[mu,k] REM_R[k] - A^T[mu,k] INS_L[k] - (A^T g)[mu,k] REM_L[k].
# Each table moves one generator in or out, so it maps even blades to odd
# ones and odd to even; only those two 8x8 blocks are kept.  Per side, the
# four insertion tables over the four removal tables, as (8, 128), a column
# per (block, row, column): block 0 takes odd rows x even columns, block 1
# even rows x odd columns.  The left side, taken with A^T, is negated
_EVEN, _ODD = np.flatnonzero(GRADE % 2 == 0), np.flatnonzero(GRADE % 2 == 1)
_PARITY_BLADES = (_EVEN, _ODD)
_PARITY_GRADES = GRADE[np.stack(_PARITY_BLADES)]
_SIDES = np.stack([np.concatenate([_INSERT_RIGHT, _REMOVE_RIGHT]),
                   -np.concatenate([_INSERT_LEFT, _REMOVE_LEFT])])
_SIDES = np.stack((_SIDES[..., _ODD[:, None], _EVEN], _SIDES[..., _EVEN[:, None], _ODD]),
                  axis=2).reshape(2, 2 * DIM, 128)


@_per_metric
def _lift_system_cached(basis: GammaBasis):
    """What the lift of a map takes from its basis alone.

    Grade k is scaled by sigma^k, sigma = |det g|^(1/8), which scales the
    insertions by sigma and the removals by 1/sigma.  Each entry of the
    system then holds one metric term, from a right-hand table, and one map
    term, from a left-hand table, which is a row of A^T times a metric-only
    stack: the (2, 4, 64) system of a map is ``fixed + A^T @ moving``, per
    parity block 32 equations (mu, row) on 8 coefficients.  Also returns the
    sigma^GRADE divisors of the null vector per parity, and the generators as
    a real (4, 32) view of their complex entries, which a real map takes by
    one real product.  The build calls no other function of the package, so
    a cold and a warm cache make the same calls.
    """
    g = basis.metric
    sigma = abs(g.det) ** 0.125
    # the insertions weighted by sigma I and the removals by g / sigma, per
    # side, (side, mu, block, entry) -> (side, block, mu, entry)
    sides = sigma * _SIDES[:, :DIM] + (g.g / sigma) @ _SIDES[:, DIM:]
    fixed, moving = np.ascontiguousarray(sides.reshape(2, DIM, 2, 64).transpose(0, 2, 1, 3))
    return fixed, moving, sigma**_PARITY_GRADES, basis.gammas.view(np.float64).reshape(DIM, 32)


def spin_lift(
    a: np.ndarray,
    basis: GammaBasis,
    isometry_tol: float = DEFAULT_ISOMETRY_TOL,
) -> SpinElement:
    """Conjugating element for an isometry of the basis metric.

    For a real metric and a real isometry the conjugating element lies in
    the real Clifford algebra, and it is even or odd with the orientation of
    the map, so S gamma_mu - gamma'_mu S = 0 is solved as two real 32x8
    systems, one on the even and one on the odd blade coefficients.  Grade k
    is scaled by sigma^k with sigma = |det g|^(1/8), which keeps the systems
    well scaled on metrics far from unit size.  One batched singular value
    decomposition gives both; the 16 singular values, divided by the largest,
    must have an isolated null (smallest below 1e-8, next one above 1e-4),
    and the null vector comes from the block holding the smallest, which
    names the parity.  The coefficients are real, scaled by one real factor
    so that the matrix has unit determinant and the largest-magnitude
    coefficient is positive.  Raises :class:`NotIsometry` when an entry of
    ``a`` is not finite or A^T g A differs from g beyond tolerance, and
    :class:`LiftNotFound` when the system has no usable null vector.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (DIM, DIM):
        raise ValueError(f"expected a 4x4 matrix, got shape {a.shape}")
    coeffs, m, inverse, odd, residual = _lift_stack(a, basis, isometry_tol)
    return SpinElement(CliffordElement(coeffs), m, ("even", "odd")[int(odd)], float(residual), inverse)


def _lift_stack(a: np.ndarray, basis: GammaBasis, isometry_tol: float = DEFAULT_ISOMETRY_TOL):
    """The lifts of one map or of each of a (..., 4, 4) stack, as arrays.

    Returns the real coefficients (..., 16), the matrices and their inverses
    (..., 4, 4), whether each lift is odd, and each conjugation residual.
    This is :func:`spin_lift` for every map at once.  One map raises as
    :func:`spin_lift` does, before any solve when it is not an isometry; in
    a stack a map that has no lift gets a NaN residual and a placeholder
    lift, and the other maps are unaffected.  One map is the stack without
    its leading axes: every product has the same core shape for one map and
    for each map of a stack, so both take the same kernel and give the same
    bytes, and the per-map work past the LAPACK calls is one loop over
    Python floats.  Measured on Minkowski with one BLAS thread (2 vCPUs,
    Python 3.11, numpy 2.4, OpenBLAS 0.3.31), one map takes 100-120 us
    through :func:`spin_lift` as the host's clock speed varies, more than
    half of it in the SVD, ``det``, ``inv`` and the isometry defect.
    """
    g = basis.metric
    lead = a.shape[:-2]
    if lead:
        # a map that is not a finite isometry fails, and the identity stands
        # in for it, so that the solve below stays finite
        finite = np.isfinite(a).all(axis=(-2, -1))
        a = np.where(finite[..., None, None], a, _EYE4)
        failed = ~(finite & (_defects(a, g, float(np.abs(a).max(initial=0.0))) < isometry_tol))
        a = np.where(failed[..., None, None], _EYE4, a)
    else:
        defect = isometry_defect(a, g)
        if not defect < isometry_tol:
            raise NotIsometry(f"A^T g A - g has max entry {defect:.3e} >= {isometry_tol:.3e}")
    fixed, moving, divisors, gammas = _lift_system_cached(basis)
    system = fixed + a.mT[..., None, :, :] @ moving
    _, s, vh = np.linalg.svd(system.reshape(lead + (2, 32, 8)), full_matrices=False)
    # each block's null vector, divided back by sigma^GRADE
    nulls = (vh[..., -1, :] / divisors).reshape(-1, 2, 8)
    coeffs, largest = np.zeros(lead + (1, NBLADES)), np.empty(lead)
    rows, tops, odd = coeffs.reshape(-1, NBLADES), largest.reshape(-1), []
    for i, (even_values, odd_values) in enumerate(s.reshape(-1, 2, 8).tolist()):
        block, smallest, next_smallest = _gate(even_values, odd_values)
        if not (smallest <= LIFT_ACCEPT and next_smallest >= LIFT_GAP):
            if not lead:
                raise LiftNotFound(f"no isolated null vector: normalized singular values "
                                   f"{smallest:.3e}, {next_smallest:.3e}")
            failed.flat[i] = True
        odd.append(block)
        # the null vector of the block holding the smallest singular value
        rows[i, _PARITY_BLADES[block]] = null = nulls[i, block]
        tops[i] = max(null.tolist(), key=abs)
    if lead:  # a placeholder unit, so that a failed map's matrix stays invertible
        coeffs[failed], largest[failed] = np.arange(NBLADES) == 0, 1.0
    # the real row of coefficients against the real view of the blade matrices
    blades = gamma_blade_matrices(basis).view(np.float64).reshape(NBLADES, 32)
    m = (coeffs @ blades).view(np.complex128).reshape(lead + (DIM, DIM))
    # the lift is a real multiple c of a product of unit vectors, each of
    # determinant 1, so det m = c^4 > 0: one real factor gives unit
    # determinant, and its sign makes the largest coefficient positive.  det m
    # is complex up to rounding; the modulus of its complex root equals that
    # root's real part to the last bit, which the root of its modulus need not
    scale = np.copysign(abs(np.linalg.det(m) ** -0.25), largest)[..., None]
    coeffs, m = coeffs[..., 0, :] * scale, m * scale[..., None]
    inverse = np.linalg.inv(m)
    images = m[..., None, :, :] @ basis.gammas @ inverse[..., None, :, :]
    substituted = (a.mT @ gammas).view(np.complex128).reshape(lead + (DIM, 4, 4))
    residual = np.abs(images - substituted).max(axis=(-3, -2, -1))
    if lead:
        residual[failed] = np.nan
    return coeffs, m, inverse, np.array(odd, dtype=bool).reshape(lead), residual


def _gate(even: list[float], odd: list[float]) -> tuple[int, float, float]:
    """Which parity block holds the smallest of a lift's 16 singular values,
    and the smallest and the next smallest divided by the largest.

    ``even`` and ``odd`` are the singular values of the two blocks, each
    descending.  The smallest of the 16 is the last of one block; the next is
    the last of the other block or the one before it in the same block.
    """
    block = int(odd[-1] < even[-1])
    held, other = (odd, even) if block else (even, odd)
    top = max(even[0], odd[0])
    return block, held[-1] / top, min(held[-2], other[-1]) / top


def exterior_pushforward(a: np.ndarray) -> np.ndarray:
    """Grade-wise extension of a linear map to the 16-dim exterior algebra.

    Block-diagonal across grades, each block the compound matrix of A of that
    grade: scalars are fixed, the grade-1 block is A itself, the top block is
    multiplication by det A.
    """
    return _kernels.compound16(a)


def parity_matrix() -> np.ndarray:
    """Spatial inversion diag(1, -1, -1, -1)."""
    return np.diag([1.0, -1.0, -1.0, -1.0])


def time_reversal_matrix() -> np.ndarray:
    """Time inversion diag(-1, 1, 1, 1)."""
    return np.diag([-1.0, 1.0, 1.0, 1.0])


def _gl4_operator(a: np.ndarray, basis: GammaBasis) -> np.ndarray:
    """The operator B P B^-1 of :class:`GL4Action` on vectorised 4x4 matrices.

    B^-1 decomposes a matrix over the antisymmetrised blade matrices, P
    pushes the coefficients forward grade by grade and B reassembles the
    matrix.  A (..., 4, 4) stack of maps gives a (..., 16, 16) stack.
    """
    stack, flat_inv = _matrix_basis_cached(basis)
    return stack.reshape(NBLADES, 16).T @ exterior_pushforward(a) @ flat_inv


class GL4Action:
    """Action of an invertible map on 4x4 matrices through the blade basis.

    Holds only the map's operator from :func:`_gl4_operator`, built once.  A
    (..., 4, 4) stack of maps gives a stack of operators, and the action
    broadcasts the maps against a (..., 4, 4) stack of matrices.
    """

    def __init__(self, a: np.ndarray, basis: GammaBasis):
        self._operator = _gl4_operator(a, basis)

    def __call__(self, m: np.ndarray) -> np.ndarray:
        m = np.asarray(m)
        if m.shape == (4, 4):  # a vector, which matmul takes by a faster route than a column
            return (self._operator @ m.reshape(16)).reshape(self._operator.shape[:-2] + (4, 4))
        if m.shape[-2:] != (4, 4):
            raise ValueError(f"expected 4x4 matrix, got shape {m.shape}")
        acted = (self._operator @ m.reshape(m.shape[:-2] + (16, 1)))[..., 0]
        return acted.reshape(acted.shape[:-1] + (4, 4))


def gl4_on_matrices(a: np.ndarray, basis: GammaBasis) -> GL4Action:
    return GL4Action(a, basis)


def spinor_factorization(a: np.ndarray, basis: GammaBasis) -> tuple[float, np.ndarray]:
    """How far the GL(4) action of ``a`` is from acting on spinors alone.

    The action is an operator O[(i,j),(k,l)] on Mat(4) = S (x) S*.  Realigned
    to R[(i,k),(j,l)] (Van Loan and Pitsianis, 1993), conjugation by Sigma
    becomes vec(Sigma) vec(Sigma^-T)^T, of rank one, so the operator-Schmidt
    ratio sigma_2/sigma_1 of R vanishes up to rounding exactly when the action
    factors over S.  Returns that ratio and the top left singular vector as a
    4x4 matrix, which is then the spin lift up to a scalar.  A (..., 4, 4)
    stack of maps gives an array of ratios and a stack of matrices.  Raises
    ``ValueError`` when a map is singular.
    """
    a = np.asarray(a, dtype=np.float64)
    if (abs(np.linalg.det(a)) < 1e-12).any():
        raise ValueError("spinor factorization requires an invertible map")
    lead = a.shape[:-2]
    realigned = _gl4_operator(a, basis).reshape(lead + (4, 4, 4, 4)).swapaxes(-3, -2)
    u, s, _ = np.linalg.svd(realigned.reshape(lead + (16, 16)))
    ratio = s[..., 1] / s[..., 0]
    return (float(ratio) if ratio.ndim == 0 else ratio), u[..., 0].reshape(lead + (4, 4))


def random_lorentz(rng: np.random.Generator, g: Metric, shape: tuple[int, ...] = ()) -> np.ndarray:
    """Random isometry of ``g`` in the identity component of its isometry group.

    Exponential of a random generator X with g X antisymmetric, rescaled so
    the generator's spectral norm stays at or below 3.  With ``shape``, a
    ``shape + (4, 4)`` stack of maps, the same maps that as many calls
    without it draw one after another.
    """
    return _lorentz(rng.normal(size=shape + (DIM, DIM)), g)


def _lorentz(k: np.ndarray, g: Metric) -> np.ndarray:
    """The isometries :func:`random_lorentz` makes of a (..., 4, 4) stack of
    standard normal draws ``k``."""
    x = np.linalg.solve(g.g, k - np.swapaxes(k, -1, -2))
    norm = np.linalg.norm(x, 2, axis=(-2, -1))
    return _expm(x * (3.0 / np.maximum(norm, 3.0))[..., None, None])


# numerator coefficients b_0..b_13 of the [13/13] Pade approximant of exp
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
           129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
           1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152  # largest 1-norm at which [13/13] is accurate to double


def _expm(x: np.ndarray) -> np.ndarray:
    """Matrix exponential by [13/13] Pade scaling and squaring (Higham, SIAM J.
    Matrix Anal. Appl. 26(4), 2005, Algorithm 2.3 with m = 13), per matrix of
    a stack, each with its own scaling exponent."""
    # scale by 2^-s so that the 1-norm is at most theta_13
    s = np.maximum(0, np.frexp(np.linalg.norm(x, 1, axis=(-2, -1)) / _THETA13)[1])
    x = x / (2.0**s)[..., None, None]
    b, eye = _PADE13, np.eye(x.shape[-1])
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
    v = x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2) + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for i in range(s.max()):
        r = np.where((i < s)[..., None, None], r @ r, r)
    return r


def random_invertible_non_isometry(
    rng: np.random.Generator, g: Metric, min_defect: float = 1e-2
) -> np.ndarray:
    """Random map with |det A| above 1e-2 and an isometry defect above ``min_defect``."""
    while True:
        a = rng.normal(size=(4, 4))
        if abs(np.linalg.det(a)) > 1e-2 and isometry_defect(a, g) > min_defect:
            return a


def transport_residual(a: np.ndarray, basis: GammaBasis, matrices: np.ndarray) -> float | np.ndarray:
    """Largest entry of the exterior-transport action of ``a`` minus conjugation
    by its spin lift, over a stack of 4x4 matrices.

    Zero up to rounding for every isometry of the basis metric; raises
    :class:`NotIsometry` for any other map, which has no lift.  A (..., 4, 4)
    stack of maps gives an array of residuals, NaN for a map with no lift.
    """
    a = np.asarray(a, dtype=np.float64)
    _, m, inverse, _, lift_residual = _lift_stack(a, basis)
    failed = np.isnan(lift_residual)
    a = np.where(failed[..., None, None], _EYE4, a)  # a map with no lift may not be finite
    stack = np.asarray(matrices)
    acted = (_gl4_operator(a, basis) @ stack.reshape(-1, 16).T).swapaxes(-1, -2)
    conjugated = m[..., None, :, :] @ stack @ inverse[..., None, :, :]
    residual = np.abs(acted.reshape(conjugated.shape) - conjugated).max(axis=(-3, -2, -1))
    return float(residual) if residual.ndim == 0 else np.where(failed, np.nan, residual)


def grade_leakage(m: np.ndarray, basis: GammaBasis) -> float:
    """Largest off-grade share of m b m^-1 over the 16 blade matrices b.

    The share is the norm of the coefficients outside the grade of b divided
    by the norm of all coefficients.  It vanishes when ``m`` lifts an
    isometry and is generically nonzero for other invertible matrices.
    """
    # row b holds the coefficients of m b m^-1; no row is all zero, since
    # conjugation maps a nonzero matrix to a nonzero one
    coeffs = matrix_to_clifford(m @ gamma_blade_matrices(basis) @ np.linalg.inv(m), basis).coeffs
    off = np.where(GRADE[:, None] == GRADE, 0.0, coeffs)
    return float((np.linalg.norm(off, axis=1) / np.linalg.norm(coeffs, axis=1)).max())
