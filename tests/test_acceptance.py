"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every tolerance and sample count is pinned here; the checks use independent
routes (reduction rules, null-space oracles, closed forms) wherever the
criterion calls for validation of an implementation path.
"""

import json

import numpy as np
import pytest

from spinrep import cli
from spinrep import clifford as cl
from spinrep import dirac as dr
from spinrep import grassmann as gr
from spinrep import isomorphisms as iso
from spinrep import transforms as tr
from spinrep._tables import NBLADES

from conftest import random_element_coeffs, random_symmetric_metric

SEED = 987654321


def _report(number, label, ok, value):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {label}: {status} ({value})")
    assert ok, f"criterion {number} failed: {label} ({value})"


@pytest.fixture(scope="module")
def mink():
    return gr.minkowski()


@pytest.fixture(scope="module")
def basis(mink):
    return iso.dirac_matrices(mink)


def test_criterion_01_anticommutator(mink):
    rng = np.random.default_rng([SEED, 1])
    eye = np.eye(NBLADES)
    worst = 0.0
    metrics = [mink] + [random_symmetric_metric(rng) for _ in range(200)]
    for g in metrics:
        ops = [gr.gamma_op(i, g) for i in range(4)]
        for mu in range(4):
            for nu in range(4):
                ac = ops[mu] @ ops[nu] + ops[nu] @ ops[mu]
                worst = max(worst, np.abs(ac - 2 * g.g[mu, nu] * eye).max())
    _report(1, "generator anticommutator over 200 random metrics", worst < 1e-12,
            f"max err {worst:.3e}")


def test_criterion_02_two_sided_intertwining(mink):
    rng = np.random.default_rng([SEED, 2])
    worst = 0.0
    for _ in range(100):
        L = cl.CliffordElement(random_element_coeffs(rng))
        M = cl.CliffordElement(random_element_coeffs(rng))
        R = cl.CliffordElement(random_element_coeffs(rng))
        lmr = cl.geometric_product(cl.geometric_product(L, M, mink), R, mink).coeffs
        rhs = iso.left_rep(L, mink) @ (iso.right_rep(R, mink) @ M.coeffs)
        worst = max(worst, np.abs(lmr - rhs).max())
    _report(2, "two-sided multiplication intertwining (100 triples)", worst < 1e-11,
            f"max err {worst:.3e}")


def test_criterion_03_spin_lift(mink, basis):
    rng = np.random.default_rng([SEED, 3])
    maps = [tr.random_lorentz(rng, mink) for _ in range(50)]
    maps += [tr.parity_matrix(), tr.time_reversal_matrix()]
    worst = max(tr.spin_lift(a, basis).residual for a in maps)
    hom_worst = 0.0
    for _ in range(30):
        a, b = tr.random_lorentz(rng, mink), tr.random_lorentz(rng, mink)
        sa, sb = tr.spin_lift(a, basis), tr.spin_lift(b, basis)
        sab = tr.spin_lift(a @ b, basis)
        prod = sa.matrix @ sb.matrix
        pinv = np.linalg.inv(prod)
        for mu in range(4):
            diff = (prod @ basis.gammas[mu] @ pinv
                    - sab.matrix @ basis.gammas[mu] @ sab.inverse_matrix)
            hom_worst = max(hom_worst, np.abs(diff).max())
    ok = worst < 1e-10 and hom_worst < 1e-10
    _report(3, "spin lifts (50 random + P + T) and projective homomorphism", ok,
            f"lift err {worst:.3e}, hom err {hom_worst:.3e}")


def test_criterion_04_no_lift_for_non_isometries(mink, basis):
    rng = np.random.default_rng([SEED, 4])
    smallest = np.inf
    for _ in range(30):
        a = tr.random_invertible_non_isometry(rng, mink)
        svals = tr.conjugation_singular_values(a, basis)
        smallest = min(smallest, svals[-1])
    _report(4, "trivial null space for 30 non-isometries", smallest > 1e-6,
            f"min normalized sv {smallest:.3e}")


def test_criterion_05_proposition(mink, basis):
    rng = np.random.default_rng([SEED, 5])
    # a non-diagonal Lorentz metric F^T eta F from a random frame F
    skew_rng = np.random.default_rng([SEED, 5, 1])
    frame = np.eye(4) + 0.3 * skew_rng.normal(size=(4, 4))
    skew = frame.T @ mink.g @ frame
    skew_basis = iso.dirac_matrices(gr.Metric((skew + skew.T) / 2.0))
    worst = 0.0
    for basis_, rng_ in ((basis, rng), (skew_basis, skew_rng)):
        blades = iso.gamma_blade_matrices(basis_)
        for i in range(50):
            a = tr.random_lorentz(rng_, basis_.metric)
            if i % 3 == 2:
                a = -a  # non-orthochronous branch, still unit determinant
            sigma = tr.spin_lift(a, basis_)
            action = tr.gl4_on_matrices(a, basis_)
            sinv = sigma.inverse_matrix
            for b in range(NBLADES):
                worst = max(worst, np.abs(action(blades[b])
                                          - sigma.matrix @ blades[b] @ sinv).max())
    hom_worst = 0.0
    for _ in range(30):
        a = tr.random_invertible_non_isometry(rng, mink)
        b = tr.random_invertible_non_isometry(rng, mink)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lhs = tr.gl4_on_matrices(a @ b, basis)(m)
        rhs = tr.gl4_on_matrices(a, basis)(tr.gl4_on_matrices(b, basis)(m))
        hom_worst = max(hom_worst, np.abs(lhs - rhs).max())
    ok = worst < 1e-10 and hom_worst < 1e-10
    _report(5, "exterior transport vs conjugation on unit-det isometries of a "
               "diagonal and a non-diagonal metric; homomorphism beyond them", ok,
            f"isometry err {worst:.3e}, hom err {hom_worst:.3e}")


def test_criterion_06_hodge_dirac(mink):
    rng = np.random.default_rng([SEED, 6])
    worst_tr = worst_sq = 0.0
    eye = np.eye(NBLADES)
    for _ in range(50):
        lam = rng.normal(size=4) + 1j * rng.normal(size=4)
        h = dr.hodge_dirac_symbol(lam, mink)
        omega = random_element_coeffs(rng)
        rhs = cl.geometric_product(dr.symbol_element(lam), cl.CliffordElement(omega),
                                   mink).coeffs
        worst_tr = max(worst_tr, np.abs(h @ omega - rhs).max())
        worst_sq = max(worst_sq, np.abs(h @ h - mink.inner(lam, lam) * eye).max())
    ok = worst_tr < 1e-11 and worst_sq < 1e-11
    _report(6, "operator symbol transports to left multiplication and squares "
               "to the metric norm", ok,
            f"transport err {worst_tr:.3e}, square err {worst_sq:.3e}")


def test_criterion_07_solution_spaces(mink, basis):
    rng = np.random.default_rng([SEED, 7])

    def null_dim(m):
        svals = np.linalg.svd(m, compute_uv=False)
        return int(np.count_nonzero(svals <= 1e-8 * max(float(svals[0]), 1.0)))

    ok_dims = True
    for _ in range(20):
        m = rng.normal() + 1j * rng.normal()
        if abs(m) < 0.5:
            m += 0.7
        while True:
            lam = rng.normal(size=4) + 1j * rng.normal(size=4)
            q = mink.inner(lam, lam)
            if abs(q) > 1e-3:
                lam = lam * (m / np.sqrt(q))
                break
        sols = dr.plane_wave_solutions(lam, m, basis)
        oracle = null_dim(dr.symbol_matrix(lam, basis) - m * np.eye(4))
        ok_dims = ok_dims and sols.column_dimension == 2 and oracle == 2
    for _ in range(20):
        m = rng.normal() + 1j * rng.normal()
        lam = rng.normal(size=4) + 1j * rng.normal(size=4)
        if abs(mink.inner(lam, lam) - m * m) < 0.1:
            lam = lam * 2.0
        sols = dr.plane_wave_solutions(lam, m, basis)
        oracle = null_dim(dr.symbol_matrix(lam, basis) - m * np.eye(4))
        ok_dims = ok_dims and sols.column_dimension == 0 and oracle == 0
    m = 1.0 + 0.2j
    lam = rng.normal(size=4) + 1j * rng.normal(size=4)
    lam = lam * (m / np.sqrt(mink.inner(lam, lam)))
    sols = dr.plane_wave_solutions(lam, m, basis)
    amp = np.einsum("i,ijk->jk", rng.normal(size=sols.dimension), sols.matrix_basis)
    worst = 0.0
    for _ in range(20):
        r = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        worst = max(worst, dr.PlaneWave(amp @ r, lam, m).residual(basis))
    ok = ok_dims and worst < 1e-11
    _report(7, "solution space dimensions (eigen route vs null-space oracle) "
               "and right closure", ok,
            f"dims {'ok' if ok_dims else 'BAD'}, closure err {worst:.3e}")


def test_criterion_08_covariance(mink, basis):
    rng = np.random.default_rng([SEED, 8])
    worst = 0.0
    for _ in range(10):
        m = 0.6 + rng.random() + 0.4j * rng.random()
        while True:
            lam = rng.normal(size=4) + 1j * rng.normal(size=4)
            q = mink.inner(lam, lam)
            if abs(q) > 1e-3:
                lam = lam * (m / np.sqrt(q))
                break
        sols = dr.plane_wave_solutions(lam, m, basis)
        wave = dr.PlaneWave(
            np.einsum("i,ijk->jk", rng.normal(size=sols.dimension), sols.matrix_basis),
            lam, m)
        for _ in range(2):
            a = tr.random_lorentz(rng, mink)
            worst = max(worst, dr.covariance_residual(a, wave, basis))
    _report(8, "isometry covariance of constructed solutions", worst < 1e-10,
            f"max residual {worst:.3e}")


def test_criterion_09_product_states(mink, basis):
    # the GL(4) action on Mat(4) = S (x) S* keeps product states exactly when
    # its realigned operator has rank one
    rng = np.random.default_rng([SEED, 9])
    conformal_err = 0.0
    for c in (2.0, 0.5):
        ratio, _ = tr.spinor_factorization(c * tr.random_lorentz(rng, mink), basis)
        conformal_err = max(conformal_err, abs(ratio - abs(c - 1.0) / (c + 1.0)))
    rank_worst = 0.0
    for _ in range(20):
        rank_worst = max(rank_worst, tr.spinor_factorization(tr.random_lorentz(rng, mink), basis)[0])
    mixing = tr.spinor_factorization(np.diag([1.0, 2.0, 3.0, 4.0]), basis)[0]
    for _ in range(20):
        a = tr.random_invertible_non_isometry(rng, mink)
        mixing = min(mixing, tr.spinor_factorization(a, basis)[0])
    ok = conformal_err < 1e-12 and rank_worst < 1e-9 and mixing > 1e-3
    _report(9, "spinor factorization: conformal oracle, isometries rank one, others mix", ok,
            f"conformal err {conformal_err:.3e}, isometry ratio {rank_worst:.3e}, "
            f"smallest mixing ratio {mixing:.3e}")


def test_criterion_10_determinism(capsys):
    argv = ["verify", "--suite", "proposition", "--seed", "42", "--json"]
    code1 = cli.main(list(argv))
    out1 = capsys.readouterr().out
    code2 = cli.main(list(argv))
    out2 = capsys.readouterr().out

    def strip(text):
        payload = json.loads(text)
        for c in payload["checks"]:
            c.pop("elapsed")
        return payload

    ok = code1 == code2 == 0 and strip(out1) == strip(out2)
    with capsys.disabled():
        _report(10, "identical reports for identical seeds (modulo timing)", ok,
                f"exit codes {code1}/{code2}")
