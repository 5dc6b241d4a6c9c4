"""Input generators and independent checks, written with plain numpy.

Nothing here calls spinrep: the benchmark draws its inputs and judges the
program's outputs with these functions, so a fault in the program cannot
hide itself by also corrupting the reference.
"""

from __future__ import annotations

import numpy as np

ETA = np.diag([1.0, -1.0, -1.0, -1.0])
GRADE = np.array([bin(b).count("1") for b in range(16)])


def standard_gammas() -> np.ndarray:
    """Dirac representation for diag(1, -1, -1, -1): gamma0 = diag(1, 1, -1, -1),
    gamma_k = [[0, sigma_k], [-sigma_k, 0]]."""
    pauli = (
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    )
    gammas = np.zeros((4, 4, 4), dtype=complex)
    gammas[0] = np.diag([1.0, 1.0, -1.0, -1.0])
    for k, s in enumerate(pauli):
        gammas[k + 1, :2, 2:] = s
        gammas[k + 1, 2:, :2] = -s
    return gammas


def blade_matrices(gammas: np.ndarray) -> np.ndarray:
    """The 16 ordered generator products, blade mask b with ascending factors."""
    out = np.empty((16, 4, 4), dtype=complex)
    for b in range(16):
        m = np.eye(4, dtype=complex)
        for i in range(4):
            if b >> i & 1:
                m = m @ gammas[i]
        out[b] = m
    return out


def _rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    out = np.eye(4)
    out[1:, 1:] = q
    return out


def lorentz(rng: np.random.Generator, max_rapidity: float) -> np.ndarray:
    """Proper orthochronous isometry of ETA: rotation, boost, rotation."""
    phi = rng.uniform(0.0, max_rapidity)
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    boost = np.eye(4)
    boost[0, 0] = np.cosh(phi)
    boost[0, 1:] = boost[1:, 0] = np.sinh(phi) * n
    boost[1:, 1:] += (np.cosh(phi) - 1.0) * np.outer(n, n)
    return _rotation(rng) @ boost @ _rotation(rng)


def lorentz_frame(g: np.ndarray) -> np.ndarray:
    """F with F^T ETA F = g for a metric of signature (+, -, -, -)."""
    evals, evecs = np.linalg.eigh(g)
    if np.count_nonzero(evals > 0) != 1:
        raise ValueError("metric is not of signature (+, -, -, -)")
    order = [3, 0, 1, 2]  # the positive eigenvalue first
    return np.sqrt(np.abs(evals[order]))[:, None] * evecs[:, order].T


def random_frame(rng: np.random.Generator) -> np.ndarray:
    """Well-conditioned frame Q1 diag(s) Q2 with s in [0.5, 2]."""
    q1, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    q2, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    return q1 @ np.diag(rng.uniform(0.5, 2.0, size=4)) @ q2


def isometry_of(frame: np.ndarray, rng: np.random.Generator, max_rapidity: float) -> np.ndarray:
    """Isometry F^-1 L F of F^T ETA F, from a Lorentz map L of ETA."""
    return np.linalg.solve(frame, lorentz(rng, max_rapidity) @ frame)


def map_text(a: np.ndarray) -> str:
    """16 row-major reals that parse back to exactly the same matrix."""
    return ",".join(repr(float(x)) for x in np.asarray(a).ravel())


# --- checks: each returns a residual already divided by its natural scale ---


def anticommutator_residual(ops: np.ndarray, g: np.ndarray) -> float:
    """max |{op_mu, op_nu} - 2 g_mu_nu Id| / max(1, |g|)."""
    eye = np.eye(ops.shape[-1])
    worst = 0.0
    for mu in range(4):
        for nu in range(mu, 4):
            ac = ops[mu] @ ops[nu] + ops[nu] @ ops[mu]
            worst = max(worst, float(np.abs(ac - 2.0 * g[mu, nu] * eye).max()))
    return worst / max(1.0, float(np.abs(g).max()))


def generator_conjugation_residual(m: np.ndarray, a: np.ndarray, gammas: np.ndarray) -> float:
    """max_mu |M gamma_mu M^-1 - sum_nu A[nu, mu] gamma_nu| / max |rhs|."""
    minv = np.linalg.inv(m)
    rhs = np.einsum("nm,nij->mij", a, gammas)
    lhs = np.stack([m @ gammas[mu] @ minv for mu in range(4)])
    return float(np.abs(lhs - rhs).max() / max(1.0, np.abs(rhs).max()))


def blade_conjugation_residual(images: np.ndarray, m: np.ndarray, blades: np.ndarray) -> float:
    """max_b |image_b - M blade_b M^-1| / max |M blade_b M^-1|."""
    conj = m @ blades @ np.linalg.inv(m)
    return float(np.abs(images - conj).max() / max(1.0, np.abs(conj).max()))


def relative_gap(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.abs(x - y).max() / max(1.0, np.abs(x).max()))


def double_star_residual(star: np.ndarray, g: np.ndarray) -> float:
    """How far star @ star is from s_k Id on each grade k with
    sign(s_k) = (-1)^(k(4-k)) sign(det g); inf when a sign is wrong."""
    ss = star @ star
    sign_det = np.sign(np.linalg.det(g))
    worst = 0.0
    for k in range(5):
        idx = np.flatnonzero(GRADE == k)
        block = ss[np.ix_(idx, idx)]
        s = block[0, 0]
        if s == 0 or np.sign(s) != (-1) ** (k * (4 - k)) * sign_det:
            return float("inf")
        worst = max(worst, float(np.abs(block - s * np.eye(len(idx))).max() / abs(s)))
    return worst
