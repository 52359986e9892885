import numpy as np
import pytest

from nlmedium.errors import EnergyConservationError, InputError, MillerRatioError
from nlmedium.medium import MediumParams, chi1, gamma_response
from nlmedium.nonlinear import (
    chi3,
    lambda0_tensor,
    lambda_isotropic,
    miller_ratio,
    source_dressed_tensors,
    validate_pairwise_symmetry,
)
from nlmedium.serialize import lambda_from_config


def brute_force_lambda0(lam, medium, w1, w2, w3, w4):
    """Direct 4-index contraction over all 81 x 81 index pairs."""
    gs = [gamma_response(medium, w) * np.eye(3) for w in (w1, w2, w3, w4)]
    out = np.zeros((3, 3, 3, 3), dtype=complex)
    for a in range(3):
        for b in range(3):
            for m in range(3):
                for n in range(3):
                    acc = 0.0 + 0.0j
                    for r in range(3):
                        for s in range(3):
                            for x in range(3):
                                for g in range(3):
                                    acc += (
                                        lam[r, s, x, g]
                                        * gs[0][a, r]
                                        * gs[1][b, s]
                                        * gs[2][m, x]
                                        * gs[3][n, g]
                                    )
                    out[a, b, m, n] = acc
    return medium.g**4 / 24.0 * out


class TestLambdaTensors:
    def test_zero_weights(self):
        assert np.all(lambda_isotropic(0.0, 0.0, 0.0) == 0.0)

    def test_kronecker_structure(self):
        lam = lambda_isotropic(1.0, 0.0, 0.0)
        assert lam[0, 0, 1, 1] == 1.0
        assert lam[0, 1, 0, 1] == 0.0

    def test_fully_symmetric_weights(self):
        lam = lambda_isotropic(1.0, 1.0, 1.0)
        assert lam[0, 0, 0, 0] == 3.0
        for perm in ((0, 1, 2, 3), (2, 3, 0, 1), (1, 0, 3, 2)):
            assert np.allclose(lam, lam.transpose(perm))

    def test_pairwise_exchange_enforced(self):
        lam = lambda_isotropic(0.3, -0.7, 1.1)
        validate_pairwise_symmetry(lam)
        bad = lam.copy()
        bad[0, 1, 2, 0] += 1.0
        with pytest.raises(InputError):
            validate_pairwise_symmetry(bad)

    def test_config_isotropic_and_table(self):
        lam = lambda_from_config({"isotropic": [0.2, 0.4, 0.1]})
        table = [complex(v) for v in lam.reshape(-1)]
        lam2 = lambda_from_config({"table": [[v.real, v.imag] for v in table]})
        assert np.allclose(lam, lam2)
        # a table is complex whether its entries are pairs or numbers
        lam3 = lambda_from_config({"table": [v.real for v in table]})
        assert lam2.dtype == lam3.dtype == np.complex128 and lam3.tobytes() == lam2.tobytes()
        with pytest.raises(InputError):
            lambda_from_config({"table": [0.0] * 80})


class TestLambda0:
    def test_zero_coupling(self, lossless):
        z = lambda0_tensor(np.zeros((3, 3, 3, 3)), lossless, 0.1, 0.2, 0.3, 0.4)
        assert np.all(z == 0.0)

    def test_vacuum(self):
        vac = MediumParams(omega0=1.0, chi_s=1.0, alpha=0.5, rho=1.0, g=0, loop_cutoff=30.0)
        lam = lambda_isotropic(1.0, 0.5, 0.25)
        assert np.all(lambda0_tensor(lam, vac, 0.1, 0.2, 0.3, 0.4) == 0.0)

    def test_static_lossless_brute_force(self, lossless):
        lam = lambda_isotropic(0.7, -0.3, 0.5)
        got = lambda0_tensor(lam, lossless, 0.0, 0.0, 0.0, 0.0)
        ref = brute_force_lambda0(lam, lossless, 0.0, 0.0, 0.0, 0.0)
        assert np.allclose(got, ref, atol=1e-15)
        # closed form: (eps0 chi_s)^4 / 4! times the bare tensor
        assert np.allclose(got, (lossless.eps0 * lossless.chi_s) ** 4 / 24.0 * lam, atol=1e-15)

    def test_lossy_brute_force(self, lossy):
        lam = lambda_isotropic(0.2, 0.9, -0.4)
        freqs = (0.3, 0.8, 1.4, 0.9)
        got = lambda0_tensor(lam, lossy, *freqs)
        ref = brute_force_lambda0(lam, lossy, *freqs)
        assert np.allclose(got, ref, rtol=1e-13)


class TestSourceDressed:
    def test_zero_source(self, lossy):
        lam0 = lambda0_tensor(lambda_isotropic(1.0, 0.0, 0.0), lossy, 0.1, 0.2, 0.3, 0.4)
        t = source_dressed_tensors(lam0, 0.7, np.zeros(3))
        assert np.any(t.Lambda != 0.0)
        assert np.all(t.Delta == 0.0)
        assert np.all(t.Phi1 == 0.0)
        assert np.all(t.Phi2 == 0.0)
        assert np.all(t.Xi == 0.0)

    def test_zero_alpha(self, lossy):
        lam0 = lambda0_tensor(lambda_isotropic(1.0, 0.2, 0.1), lossy, 0.1, 0.2, 0.3, 0.4)
        f = np.array([0.3 + 0.1j, 0.0, -0.2j])
        t = source_dressed_tensors(lam0, 0.0, f)
        assert np.all(t.Lambda == 0.0)
        assert np.all(t.Delta == 0.0)
        assert np.all(t.Phi1 == 0.0)
        assert np.all(t.Phi2 == 0.0)
        assert np.any(t.Xi != 0.0)

    def test_basis_source_contraction(self, lossless):
        lam0 = lambda0_tensor(lambda_isotropic(0.5, 0.25, -0.1), lossless, 0.0, 0.0, 0.0, 0.0)
        f = np.array([1.0, 0.0, 0.0])
        t = source_dressed_tensors(lam0, 1.0, f)
        assert np.allclose(t.Xi, lam0[0, 0, 0, :], atol=1e-15)

    def test_brute_force_contractions(self, lossy):
        rng = np.random.default_rng(3)
        lam0 = lambda0_tensor(lambda_isotropic(0.4, 0.3, 0.6), lossy, 0.2, 0.5, 0.7, 0.4)
        f = rng.normal(size=3) + 1j * rng.normal(size=3)
        alpha = 0.9
        t = source_dressed_tensors(lam0, alpha, f)
        delta = np.zeros((3, 3, 3), dtype=complex)
        for b in range(3):
            for m in range(3):
                for n in range(3):
                    delta[b, m, n] = alpha**3 * sum(lam0[a, b, m, n] * f[a] for a in range(3))
        assert np.allclose(t.Delta, delta, rtol=1e-14)
        phi2 = np.zeros((3, 3), dtype=complex)
        for m in range(3):
            for n in range(3):
                phi2[m, n] = alpha * sum(
                    lam0[a, b, m, n] * f[a] * f[b] for a in range(3) for b in range(3)
                )
        assert np.allclose(t.Phi2, phi2, rtol=1e-14)


class TestChi3:
    def test_zero_coupling(self, lossy):
        z = chi3(lossy, np.zeros((3, 3, 3, 3)), 0.6, 0.3, 0.1, 0.4)
        assert np.all(z == 0.0)

    def test_energy_conservation_enforced(self, lossy):
        lam = lambda_isotropic(1.0, 0.0, 0.0)
        with pytest.raises(EnergyConservationError, match="energy conservation violated"):
            chi3(lossy, lam, 0.7, 0.3, 0.1, 0.4)

    def test_static_scalar_closed_form(self, lossless):
        lam = lambda_isotropic(0.4, 0.7, 0.2)
        got = chi3(lossless, lam, 0.0, 0.0, 0.0, 0.0)
        lam_scalar = lam[0, 0, 0, 0]
        expected = (
            lossless.eps0**3
            * lossless.alpha**4
            / 32.0
            * (2.0 * lam_scalar / 24.0)
            * lossless.chi_s**4
        )
        assert got[0, 0, 0, 0] == pytest.approx(expected, rel=1e-13)

    def test_degenerate_kerr_doubling(self, lossy):
        # scalar component: the two permutation terms coincide for any
        # isotropic coupling; the full tensor needs l1 == l3
        lam = lambda_isotropic(0.3, 0.8, 0.3)
        w = 0.45
        full = chi3(lossy, lam, w, w, w, w)
        x = chi1(lossy, w)
        single = (
            lossy.eps0**3
            * lossy.alpha**4
            / 32.0
            * x**4
            * np.einsum("gsrk,ag,bs,mr,nk->abmn", lam, *(np.eye(3),) * 4)
            / 24.0
        )
        assert np.allclose(full, 2.0 * single, rtol=1e-12)

    def test_brute_force_two_permutation_sum(self, lossy):
        # chi3 equals (Lambda_abmn + Lambda_anmb)/(32 eps0) built through
        # lambda0_tensor (normalized units: chi1 = Gamma identification)
        lam = lambda_isotropic(0.25, 0.55, 0.15)
        w1, w2, w3 = 0.3, 0.15, 0.6
        w = w1 - w2 + w3
        got = chi3(lossy, lam, w, w1, w2, w3)
        lam_t = lambda0_tensor(lam, lossy, w1, w2, w3, w) * lossy.alpha**4
        ref = (lam_t + lam_t.transpose(0, 3, 2, 1)) / (32.0 * lossy.eps0)
        assert np.allclose(got, ref, rtol=1e-13)

    def test_reality(self, lossy):
        lam = lambda_isotropic(0.2, 0.5, 0.3)
        w1, w2, w3 = 0.4, 0.25, 0.7
        w = w1 - w2 + w3
        plus = chi3(lossy, lam, w, w1, w2, w3)
        minus = chi3(lossy, lam, -w, -w1, -w2, -w3)
        assert np.allclose(minus, np.conj(plus), atol=1e-12 * np.max(np.abs(plus)))

    def test_alpha_scaling_exact(self, lossy):
        lam = lambda_isotropic(0.2, 0.5, 0.3)
        w1, w2, w3 = 0.4, 0.25, 0.7
        w = w1 - w2 + w3
        base = chi3(lossy, lam, w, w1, w2, w3)
        doubled_alpha = MediumParams(
            omega0=lossy.omega0,
            chi_s=lossy.chi_s,
            alpha=2.0 * lossy.alpha,
            rho=lossy.rho,
            nu=lossy.nu,
            loop_cutoff=lossy.loop_cutoff,
        )
        assert np.all(chi3(doubled_alpha, lam, w, w1, w2, w3) == 16.0 * base)
        assert np.all(chi3(lossy, 2.0 * lam, w, w1, w2, w3) == 2.0 * base)

    def test_intrinsic_permutation_symmetry(self, lossy):
        lam = lambda_isotropic(0.35, 0.2, 0.85)
        w1, w2, w3 = 0.5, 0.2, 0.65
        w = w1 - w2 + w3
        t = chi3(lossy, lam, w, w1, w2, w3)
        rebuilt = 0.5 * (t + t.transpose(0, 3, 2, 1))
        assert np.max(np.abs(t - rebuilt)) <= 1e-14 * np.max(np.abs(t))


class TestMillerRatio:
    def test_frequency_independence(self, lossy):
        lam = lambda_isotropic(0.6, 0.1, 0.4)
        r1 = miller_ratio(lossy, lam, 0.55, 0.3, 0.15, 0.4)
        r2 = miller_ratio(lossy, lam, 1.9, 1.3, 0.2, 0.8)
        assert np.allclose(r1, r2, rtol=1e-10)

    def test_zero_coupling(self, lossy):
        assert np.all(miller_ratio(lossy, np.zeros((3, 3, 3, 3)), 0.55, 0.3, 0.15, 0.4) == 0.0)

    def test_loss_independent(self, lossless, lossy):
        lam = lambda_isotropic(0.6, 0.1, 0.4)
        r_ll = miller_ratio(lossless, lam, 0.55, 0.3, 0.15, 0.4)
        r_ly = miller_ratio(lossy, lam, 0.55, 0.3, 0.15, 0.4)
        assert np.allclose(r_ll, r_ly, rtol=1e-10)

    def test_transparency_error(self):
        vac = MediumParams(omega0=1.0, chi_s=1.0, alpha=0.5, rho=1.0, g=0, loop_cutoff=30.0)
        lam = lambda_isotropic(1.0, 0.0, 0.0)
        with pytest.raises(MillerRatioError, match="Miller ratio undefined at transparency point"):
            miller_ratio(vac, lam, 0.55, 0.3, 0.15, 0.4)
