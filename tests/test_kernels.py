import numpy as np

from spinrep import _kernels
from spinrep import grassmann as gr
from spinrep._tables import NBLADES, WEDGE_SIGN

from conftest import random_element_coeffs


def test_backend_selected():
    assert _kernels.backend_name() == "numpy"


def test_numpy_backend_full_suite_equivalence(rng):
    # the wedge drives the pushforward; spot-check it against the sign table
    a = gr.GrassmannElement(random_element_coeffs(rng))
    b = gr.GrassmannElement(random_element_coeffs(rng))
    manual = np.zeros(NBLADES, dtype=np.complex128)
    for i in range(NBLADES):
        for j in range(NBLADES):
            manual[i | j] += WEDGE_SIGN[i, j] * a.coeffs[i] * b.coeffs[j]
    np.testing.assert_allclose(gr.wedge(a, b).coeffs, manual, atol=1e-13)
