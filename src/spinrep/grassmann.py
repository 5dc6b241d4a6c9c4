"""Complex exterior algebra on four generators with its metric operators.

Elements are dense vectors of 16 complex blade coefficients (see
:mod:`spinrep._tables` for the blade indexing), or stacks of them along
leading axes, which every operation here takes element by element.  The
module provides the wedge product, exterior multiplication and metric
contraction by a vector (from the left and from the right), the generator
operators built from their sum, the Hodge star and the dual product it
induces.

All values are immutable after construction and every operation is a pure
function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, wraps
from typing import ClassVar, TypeVar

import numpy as np

from . import _kernels
from ._tables import (
    BLADES_BY_GRADE,
    DIM,
    GRADE,
    MASKS,
    NBLADES,
    TOP,
    WEDGE_SIGN,
    WEDGE_TENSOR,
    blade_label,
)
from .errors import DegenerateMetric

DEFAULT_DET_TOL = 1e-12


class _ByteKey:
    """Equality and hash by the bytes of one defining array, with -0.0 read
    as 0.0 as np.array_equal reads it, so that one value is one cache entry.
    Each subclass, a frozen dataclass, passes that array to :meth:`_key` in
    its ``__post_init__``."""

    _bytes: bytes

    def _key(self, array: np.ndarray) -> None:
        object.__setattr__(self, "_bytes", (array + 0.0).tobytes())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._bytes == other._bytes

    def __hash__(self) -> int:
        return hash(self._bytes)  # bytes keep their hash after the first call


@dataclass(frozen=True, eq=False)
class Metric(_ByteKey):
    """Symmetric nondegenerate real 4x4 bilinear form.

    The matrix is required to be finite and symmetric exactly as stored; it
    is copied and frozen on construction.  ``det_tol`` is the degeneracy
    threshold: construction raises :class:`DegenerateMetric` when |det g| is
    below it, or when det g overflows, so every ``Metric`` that exists has a
    star and a contraction.
    Metrics compare and hash by ``g`` alone, so one value is one cache entry.
    """

    g: np.ndarray
    det_tol: float = DEFAULT_DET_TOL

    def __post_init__(self) -> None:
        g = np.array(self.g, dtype=np.float64)
        if g.shape != (DIM, DIM):
            raise ValueError(f"metric must be 4x4, got shape {g.shape}")
        if not np.isfinite(g).all():
            raise ValueError("metric entries must be finite")
        if not np.array_equal(g, g.T):
            raise ValueError("metric must be symmetric exactly as stored")
        with np.errstate(over="ignore"):
            det = float(np.linalg.det(g))
        if not np.isfinite(det):
            raise DegenerateMetric(f"det g overflows to {det}")
        if abs(det) < self.det_tol:
            raise DegenerateMetric(f"|det g| = {abs(det):.3e} below tolerance {self.det_tol:.3e}")
        g.flags.writeable = False
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "_det", det)  # not a field: derived from g
        self._key(g)

    @property
    def det(self) -> float:
        return self._det

    def inner(self, v: np.ndarray, w: np.ndarray) -> complex:
        """Bilinear pairing g(v, w) of two (possibly complex) 4-vectors."""
        return complex(np.asarray(v) @ self.g @ np.asarray(w))


# Every per-metric build is cached at this one size.  The traffic rule: the
# most metrics any caller alternates between is two (a stream of lifts on two
# fixed metrics), and a verify run judges one, so 8 holds every metric a
# caller returns to with room to spare; a sweep of fresh metrics reuses none,
# and a larger size would only keep structure that is never read again.
_PER_METRIC_SIZE = 8


def _per_metric(build):
    """``build``, a pure function of one metric or basis, cached at
    ``_PER_METRIC_SIZE`` entries.  Every array it returns, alone or in a
    tuple, is marked read-only, since one cached value serves every caller.
    The result is the ``lru_cache`` object, with its ``cache_info`` and
    ``cache_clear``."""

    @wraps(build)
    def frozen(key):
        value = build(key)
        for array in value if isinstance(value, tuple) else (value,):
            array.flags.writeable = False
        return value

    return lru_cache(maxsize=_PER_METRIC_SIZE)(frozen)


def minkowski(signature: str = "+---") -> Metric:
    """Diagonal Minkowski metric for signature string ``"+---"`` or ``"-+++"``."""
    if signature == "+---":
        return Metric(np.diag([1.0, -1.0, -1.0, -1.0]))
    if signature == "-+++":
        return Metric(np.diag([-1.0, 1.0, 1.0, 1.0]))
    raise ValueError(f"unknown signature {signature!r}")


_E = TypeVar("_E", bound="_BladeVector")


@dataclass(frozen=True, eq=False)
class _BladeVector:
    """16 complex blade coefficients, copied and frozen on construction.

    The linear structure shared by :class:`GrassmannElement` and
    :class:`spinrep.clifford.CliffordElement`; each subclass names its
    constructors and sets the blade labels its ``str`` prints.  Elements
    compare and hash by identity: compare ``coeffs`` for values.
    ``coeffs`` of shape (..., 16) is a stack of elements: the arithmetic,
    ``norm`` and the products act on each, ``str`` and ``grades`` read one.
    """

    coeffs: np.ndarray = field(default_factory=lambda: np.zeros(NBLADES, complex))

    _label: ClassVar[tuple[str, str, str]]  # blade_label symbol, unit and separator

    def __post_init__(self) -> None:
        c = np.array(self.coeffs, dtype=np.complex128)
        if c.shape[-1:] != (NBLADES,):
            raise ValueError(f"expected {NBLADES} coefficients, got shape {c.shape}")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zero(cls: type[_E]) -> _E:
        return cls(np.zeros(NBLADES, dtype=np.complex128))

    @classmethod
    def _single(cls: type[_E], mask: int, value: complex) -> _E:
        c = np.zeros(NBLADES, dtype=np.complex128)
        c[mask] = value
        return cls(c)

    @classmethod
    def from_vector(cls: type[_E], v: np.ndarray) -> _E:
        """Grade-1 element with generator coefficients ``v``, (..., 4)."""
        v = np.asarray(v, dtype=np.complex128)
        c = np.zeros(v.shape[:-1] + (NBLADES,), dtype=np.complex128)
        c[..., BLADES_BY_GRADE[1]] = v
        return cls(c)

    def __add__(self: _E, other: _E) -> _E:
        return type(self)(self.coeffs + other.coeffs)

    def __sub__(self: _E, other: _E) -> _E:
        return type(self)(self.coeffs - other.coeffs)

    def __neg__(self: _E) -> _E:
        return type(self)(-self.coeffs)

    def __mul__(self: _E, scalar: complex) -> _E:
        return type(self)(self.coeffs * scalar)

    __rmul__ = __mul__

    def norm(self) -> float | np.ndarray:
        norm = np.linalg.norm(self.coeffs, axis=-1)
        return float(norm) if norm.ndim == 0 else norm

    def __str__(self) -> str:
        terms = []
        for b in range(NBLADES):
            c = self.coeffs[b]
            if c != 0:
                terms.append(f"({c:.6g})*{blade_label(b, *self._label)}")
        return " + ".join(terms) if terms else "0"


class GrassmannElement(_BladeVector):
    """Dense element of the exterior algebra: 16 complex blade coefficients."""

    _label = ("d", "1", "^")

    @classmethod
    def scalar(cls, value: complex = 1.0) -> "GrassmannElement":
        return cls._single(0, value)

    @classmethod
    def blade(cls, mask: int, value: complex = 1.0) -> "GrassmannElement":
        return cls._single(mask, value)

    def grade_project(self, k: int) -> "GrassmannElement":
        return GrassmannElement(np.where(GRADE == k, self.coeffs, 0.0))

    def grades(self, tol: float = 0.0) -> tuple[int, ...]:
        """Grades carrying a coefficient with magnitude above ``tol``."""
        present = np.abs(self.coeffs) > tol
        return tuple(sorted({int(GRADE[b]) for b in range(NBLADES) if present[b]}))


def wedge(a: GrassmannElement, b: GrassmannElement) -> GrassmannElement:
    """Associative antisymmetric product of two elements."""
    return GrassmannElement(_kernels.wedge16(a.coeffs, b.coeffs))


# ---------------------------------------------------------------------------
# boundary / coboundary operators as 16x16 matrices on coefficient vectors

def _frozen(stack: np.ndarray) -> np.ndarray:
    stack = np.ascontiguousarray(stack)
    stack.flags.writeable = False
    return stack


# (4, 16, 16) stacks: slice i moves generator i into or out of each blade,
# [out blade, in blade].  Inserting from the left is the wedge e_i ^ e_b and
# from the right e_b ^ e_i; each removal is the transpose of its insertion
_GENS = 1 << np.arange(DIM)
_INSERT_LEFT = _frozen(WEDGE_TENSOR[_GENS].transpose(0, 2, 1))
_INSERT_RIGHT = _frozen(WEDGE_TENSOR[:, _GENS].transpose(1, 2, 0))
_REMOVE_LEFT = _frozen(_INSERT_LEFT.transpose(0, 2, 1))
_REMOVE_RIGHT = _frozen(_INSERT_RIGHT.transpose(0, 2, 1))


def _contract(w: np.ndarray, stack: np.ndarray) -> np.ndarray:
    return np.einsum("...i,ijk->...jk", np.asarray(w, dtype=np.complex128), stack)


def _apply(matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """A matrix, or a stack of them, applied to a vector or a stack of them."""
    return (matrix @ vectors[..., None])[..., 0]


def _lower(g: Metric, v: np.ndarray) -> np.ndarray:
    """g v for a 4-vector or a (..., 4) stack of them."""
    return _apply(g.g, np.asarray(v, dtype=np.complex128))


def delta_matrix(v: np.ndarray) -> np.ndarray:
    """Matrix of left exterior multiplication by the vector ``v``.

    Here and in the three functions below, a (..., 4) stack of vectors gives
    a stack of matrices.
    """
    return _contract(v, _INSERT_LEFT)


def delta_star_matrix(v: np.ndarray, g: Metric) -> np.ndarray:
    """Matrix of the metric contraction by ``v`` acting from the left.

    On a blade v1^...^vk this is sum_l (-1)^(l+1) g(v, v_l) with factor v_l
    omitted; the alternating sign starts positive so that the generator
    operators square to the metric.
    """
    return _contract(_lower(g, v), _REMOVE_LEFT)


def right_delta_matrix(v: np.ndarray) -> np.ndarray:
    """Matrix of right exterior multiplication: omega -> omega ^ v."""
    return _contract(v, _INSERT_RIGHT)


def right_delta_star_matrix(v: np.ndarray, g: Metric) -> np.ndarray:
    """Matrix of the metric contraction by ``v`` acting from the right."""
    return _contract(_lower(g, v), _REMOVE_RIGHT)


def delta(v: np.ndarray, a: GrassmannElement) -> GrassmannElement:
    """Left exterior multiplication by ``v``; raises the grade by one."""
    return wedge(GrassmannElement.from_vector(v), a)


def delta_star(v: np.ndarray, a: GrassmannElement, g: Metric) -> GrassmannElement:
    """Left contraction of ``a`` by ``v``; lowers the grade by one."""
    return GrassmannElement(_apply(delta_star_matrix(v, g), a.coeffs))


def right_delta(v: np.ndarray, a: GrassmannElement) -> GrassmannElement:
    """Right exterior multiplication: a ^ v."""
    return wedge(a, GrassmannElement.from_vector(v))


def right_delta_star(v: np.ndarray, a: GrassmannElement, g: Metric) -> GrassmannElement:
    """Right contraction of ``a`` by ``v``."""
    return GrassmannElement(_apply(right_delta_star_matrix(v, g), a.coeffs))


def _gamma_ops(g: np.ndarray, insert: np.ndarray = _INSERT_LEFT,
               remove: np.ndarray = _REMOVE_LEFT) -> np.ndarray:
    """Real generator operators of a metric matrix or a stack of them.

    (..., 4, 4) metrics give (..., 4, 16, 16) operators: generator i is
    delta_i + delta*_i, and delta*_i contracts with row i of g.  Each entry
    is one sign or one metric entry, so every route to it is exact.
    """
    g = np.asarray(g, dtype=np.float64)
    return insert + (g @ remove.reshape(DIM, -1)).reshape(g.shape[:-1] + (NBLADES, NBLADES))


@_per_metric
def _gamma_ops_cached(g: Metric) -> np.ndarray:
    """The (4, 16, 16) left generator operators of ``g``."""
    return _gamma_ops(g.g)


@_per_metric
def _right_gamma_ops_cached(g: Metric) -> np.ndarray:
    """The (4, 16, 16) right generator operators of ``g``."""
    return _gamma_ops(g.g, _INSERT_RIGHT, _REMOVE_RIGHT)


def gamma_op(i: int, g: Metric) -> np.ndarray:
    """Generator operator delta_i + delta*_i as a real 16x16 matrix.

    The four operators satisfy the anticommutation relations of the metric:
    gamma_op(mu) gamma_op(nu) + gamma_op(nu) gamma_op(mu) = 2 g[mu, nu] Id.
    """
    if not 0 <= i < DIM:
        raise ValueError(f"generator index must be in 0..3, got {i}")
    return _gamma_ops_cached(g)[i]


def right_gamma_op(i: int, g: Metric) -> np.ndarray:
    """Mirror of :func:`gamma_op` built from the right-acting operators."""
    if not 0 <= i < DIM:
        raise ValueError(f"generator index must be in 0..3, got {i}")
    return _right_gamma_ops_cached(g)[i]


# ---------------------------------------------------------------------------
# Hodge star and the dual product

# star is fixed by e_a ^ star(e_b) = <e_a, e_b> vol, and <e_a, e_b> is the
# minor of g on rows a, columns b: star = S (wedge g) with S[TOP ^ a, a] the
# sign of e_a ^ e_(TOP ^ a), scaled by the unit volume e_0123 / sqrt|det g|
_COMPLEMENT = np.zeros((NBLADES, NBLADES))
_COMPLEMENT[TOP ^ MASKS, MASKS] = WEDGE_SIGN[MASKS, TOP ^ MASKS]


@_per_metric
def _hodge_matrix_cached(g: Metric) -> np.ndarray:
    """The 16x16 Hodge star of ``g``."""
    return 1.0 / np.sqrt(abs(g.det)) * (_COMPLEMENT @ _kernels.compound16(g.g))


def hodge_matrix(g: Metric) -> np.ndarray:
    """16x16 matrix of the Hodge star for metric ``g``, with volume +e_0123."""
    return _hodge_matrix_cached(g)


def hodge(a: GrassmannElement, g: Metric) -> GrassmannElement:
    """Hodge star: grade k goes to grade 4 - k."""
    return GrassmannElement(_apply(hodge_matrix(g), a.coeffs))


def star_star_scalars(g: Metric) -> np.ndarray:
    """The five per-grade scalars of the squared star, computed from the matrix.

    The double star restricted to grade k is (-1)^(k(4-k)) sign(det g) times
    the identity; entry k is the diagonal entry of the first blade of grade
    k, reported, not assumed.  How far the whole square is from those signs
    is the check ``grassmann.double_star_is_per_grade_sign``.
    """
    h = hodge_matrix(g)
    return np.diagonal(h @ h)[[blades[0] for blades in BLADES_BY_GRADE]]


def vee(a: GrassmannElement, b: GrassmannElement, g: Metric) -> GrassmannElement:
    """Dual product: the wedge conjugated by the star, star(a ^ star(b)).

    With a of grade j and b of grade k the result has grade k - j, so that
    contraction by a vector is the dual of exterior multiplication up to a
    per-grade factor (see :func:`contraction_vs_vee_table`).
    """
    return hodge(wedge(a, hodge(b, g)), g)


def contraction_vs_vee_table(g: Metric) -> np.ndarray:
    """Per-grade ratio between v-contraction and the dual product v vee (.).

    Entry k is the factor r_k with delta*_v(omega) = r_k * (v vee omega) for
    omega of grade k >= 1 (entry 0 is set to 0: both sides annihilate
    scalars).  Read off the first blade of grade k whose dual product with a
    fixed generic vector does not vanish; that the ratio holds for every
    vector and element is the check ``grassmann.contraction_vs_vee_stable``.
    """
    vgen = np.array([1.0, 0.5, -0.75, 1.25])
    ds = delta_star_matrix(vgen, g)
    v = GrassmannElement.from_vector(vgen)
    out = np.zeros(DIM + 1)
    for k in range(1, DIM + 1):
        for b in BLADES_BY_GRADE[k]:
            vcol = vee(v, GrassmannElement.blade(b), g).coeffs
            ref = int(np.argmax(np.abs(vcol)))
            if abs(vcol[ref]) > 1e-14:
                out[k] = (ds[ref, b] / vcol[ref]).real
                break
    return out
