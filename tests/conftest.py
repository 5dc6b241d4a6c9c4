import numpy as np
import pytest

from spinrep import grassmann as gr
from spinrep import isomorphisms as iso


@pytest.fixture(scope="session")
def mink():
    return gr.minkowski()


@pytest.fixture(scope="session")
def basis(mink):
    return iso.dirac_matrices(mink)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_symmetric_metric(rng, min_det=1e-6):
    """Random nondegenerate symmetric metric with entries in [-2, 2]."""
    while True:
        m = rng.uniform(-2.0, 2.0, size=(4, 4))
        m = (m + m.T) / 2.0
        if abs(np.linalg.det(m)) >= min_det:
            return gr.Metric(m)


def random_element_coeffs(rng):
    return rng.normal(size=16) + 1j * rng.normal(size=16)


def move_sign_table(side, remove):
    """(4, 16) signs of generator i entering (or, with ``remove``, leaving)
    blade b from ``side``, "left" or "right", by position counting.

    The sign is the parity of b's factors below i from the left and of those
    above i from the right; it is 0 where the move does not apply, where b
    already holds i for an insertion or lacks it for a removal.
    """
    table = np.zeros((4, 16), dtype=np.int8)
    for i in range(4):
        for b in range(16):
            if bool(b >> i & 1) == remove:
                passed = b & ((1 << i) - 1) if side == "left" else b >> (i + 1)
                table[i, b] = -1 if bin(passed).count("1") & 1 else 1
    return table


def wedge_sign(a, b):
    """Sign of blade(a) ^ blade(b) relative to the ascending-order blade.

    Zero if the masks overlap.  Counts, for each factor of b, the factors of
    a that must be jumped to merge the two ascending sequences.
    """
    if a & b:
        return 0
    swaps = 0
    for j in range(4):
        if b >> j & 1:
            swaps += bin(a >> (j + 1)).count("1")
    return -1 if swaps & 1 else 1


# the non-diagonal Lorentz metric of the golden reports
NON_DIAGONAL = np.array([[1.0, 0.3, 0.0, 0.0], [0.3, -1.0, 0.0, 0.0],
                         [0.0, 0.0, -1.0, 0.2], [0.0, 0.0, 0.2, -1.0]])


def preset_metrics():
    """Both Minkowski presets and the non-diagonal metric."""
    return [gr.minkowski(), gr.minkowski("-+++"), gr.Metric(NON_DIAGONAL)]


def frame_metric(rng, d):
    """F^T diag(d) F for a well-conditioned random frame F = Q1 diag(s) Q2, s in [0.5, 2]."""
    q1, q2 = (np.linalg.qr(rng.normal(size=(4, 4)))[0] for _ in range(2))
    f = q1 @ np.diag(rng.uniform(0.5, 2.0, size=4)) @ q2
    m = f.T @ np.diag(d) @ f
    return gr.Metric((m + m.T) / 2.0)


# one diagonal for each count of positive entries, 4 down to 0
SIGNATURES = [(1.0, 1.0, 1.0, 1.0), (1.0, -1.0, 1.0, 1.0), (1.0, 1.0, -1.0, -1.0),
              (1.0, -1.0, -1.0, -1.0), (-1.0, -1.0, -1.0, -1.0)]


def random_lorentz_metric(rng, min_det=1e-6):
    """Random nondegenerate metric F^T diag(1, -1, -1, -1) F of Lorentz signature."""
    while True:
        f = rng.normal(size=(4, 4))
        m = f.T @ np.diag([1.0, -1.0, -1.0, -1.0]) @ f
        m = (m + m.T) / 2.0
        if abs(np.linalg.det(m)) >= min_det:
            return gr.Metric(m)
