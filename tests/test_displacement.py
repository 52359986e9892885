import math

import numpy as np
import pytest

from conftest import extract_chi1_fd_per_probe, extract_chi3_fd_per_probe
from nlmedium.displacement import (
    FrequencyComb,
    _DressedCoupling,
    displacement,
    extract_chi1_fd,
    extract_chi3_fd,
)
from nlmedium.errors import EnergyConservationError, InputError, StepSizeError
from nlmedium.medium import MediumParams, NuConstant, chi1
from nlmedium.nonlinear import chi3, lambda0_tensor, lambda_isotropic


class TestComb:
    def test_auto_mirror(self):
        comb = FrequencyComb.from_lines([(0.9, [1.0 + 2.0j, 0.0, 0.0])])
        assert len(comb.lines) == 2
        assert comb.is_conjugate_closed()

    def test_closure_violation_rejected(self):
        with pytest.raises(InputError, match="not closed under conjugation"):
            FrequencyComb.from_lines([(0.9, [1.0 + 2.0j, 0, 0]), (-0.9, [1.0 + 2.0j, 0, 0])])

    def test_distinct_frequencies_required(self):
        with pytest.raises(InputError, match="pairwise distinct"):
            FrequencyComb.from_lines([(0.9, [1.0, 0, 0]), (0.9 + 1e-12, [0.5, 0, 0])])

    def test_zero_frequency_must_be_real(self):
        with pytest.raises(InputError, match="real amplitude"):
            FrequencyComb.from_lines([(0.0, [1.0j, 0, 0])])


def test_dressed_coupling_is_scaled_lambda0():
    medium = MediumParams(
        omega0=1.0, chi_s=1.0, alpha=0.37, rho=0.2, nu=NuConstant(0.1, 10.0), loop_cutoff=30.0
    )
    lam = lambda_isotropic(0.3, 0.2, 0.1)
    engine = _DressedCoupling(medium, lam)
    for key in ((0.9, 0.5, 1.7, 1.3), (-0.4, 0.9, 0.9, -0.4)):
        want = medium.alpha**4 * lambda0_tensor(lam, medium, *key)
        assert np.array_equal(engine.dressed(*key), want)
        assert np.array_equal(engine.dressed(*key), want)  # cached


class TestDisplacement:
    def test_zero_field(self, lossy):
        lam = lambda_isotropic(0.3, 0.2, 0.1)
        comb = FrequencyComb.from_lines([(0.9, [0.0, 0.0, 0.0])])
        out = displacement(comb, lossy, lam)
        for _, a in out.lines:
            assert np.all(a == 0.0)

    def test_linear_limit(self, lossy):
        comb = FrequencyComb.from_lines([(0.9, [0.4 + 0.1j, 0.2, 0.0])])
        out = displacement(comb, lossy, np.zeros((3, 3, 3, 3)))
        expected = lossy.eps0 * (np.eye(3) + chi1(lossy, 0.9)) @ comb.amplitude_at(0.9)
        assert np.allclose(out.amplitude_at(0.9), expected, rtol=1e-14)
        assert len(out.lines) == 2

    def test_single_line_kerr_count_and_value(self, lossless, naive_line_oracle):
        # brute-force enumeration fixes the combinatorial count: 3 triples
        # per channel hit the fundamental, 1 per channel the third harmonic
        lam = lambda_isotropic(0.2, 0.3, 0.15)
        w, amp = 0.4, 0.3
        comb = FrequencyComb.from_lines([(w, [amp, 0.0, 0.0])])
        out = displacement(comb, lossless, lam)
        freqs = sorted(v for v, _ in out.lines)
        assert freqs == pytest.approx([-3 * w, -w, w, 3 * w])
        for target in (w, 3 * w, -w, -3 * w):
            ref = naive_line_oracle(comb, lossless, lam, target)
            got = out.amplitude_at(target)
            assert np.array_equal(got, ref)

    def test_two_line_fwm_exact_against_oracle(self, lossy, naive_line_oracle):
        lam = lambda_isotropic(0.3, 0.2, 0.1)
        wa, wb = 0.9, 1.7
        comb = FrequencyComb.from_lines(
            [(wa, [0.2 + 0.1j, 0.05, 0.0]), (wb, [0.05 - 0.02j, 0.03, 0.01j])]
        )
        out = displacement(comb, lossy, lam)
        fwm = math.fsum((wa, wa, -wb))
        got = out.amplitude_at(fwm)
        ref = naive_line_oracle(comb, lossy, lam, fwm)
        assert np.array_equal(got, ref)
        assert np.any(got != 0.0)

    def test_conjugate_closure_exact(self, lossy):
        lam = lambda_isotropic(0.3, 0.2, 0.1)
        comb = FrequencyComb.from_lines(
            [(0.9, [0.2 + 0.1j, 0.0, 0.03j]), (1.7, [0.05 - 0.02j, 0.03, 0.0])]
        )
        out = displacement(comb, lossy, lam)
        assert out.is_conjugate_closed()

    def test_linear_superposition(self, lossy):
        zero = np.zeros((3, 3, 3, 3))
        comb_a = FrequencyComb.from_lines([(0.9, [0.2 + 0.1j, 0.0, 0.0])])
        comb_b = FrequencyComb.from_lines([(1.7, [0.0, 0.3, 0.0])])
        comb_ab = FrequencyComb.from_lines(
            [(0.9, [0.2 + 0.1j, 0.0, 0.0]), (1.7, [0.0, 0.3, 0.0])]
        )
        out_a = displacement(comb_a, lossy, zero)
        out_b = displacement(comb_b, lossy, zero)
        out_ab = displacement(comb_ab, lossy, zero)
        assert np.allclose(out_ab.amplitude_at(0.9), out_a.amplitude_at(0.9), rtol=1e-15)
        assert np.allclose(out_ab.amplitude_at(1.7), out_b.amplitude_at(1.7), rtol=1e-15)

    def test_output_frequency_closure(self, lossy):
        lam = lambda_isotropic(0.3, 0.2, 0.1)
        comb = FrequencyComb.from_lines(
            [(0.9, [0.2, 0.0, 0.0]), (1.7, [0.1, 0.0, 0.0])]
        )
        out = displacement(comb, lossy, lam)
        inputs = [w for w, _ in comb.lines]
        achievable = set()
        for wj in inputs:
            for wk in inputs:
                for wl in inputs:
                    achievable.add(math.fsum((wj, wk, -wl)))
                    achievable.add(math.fsum((wj, -wk, wl)))
        for w, _ in out.lines:
            assert any(abs(w - c) <= out.tolerance for c in achievable)


class TestChi1FiniteDifference:
    def test_matches_closed_form_without_coupling(self, lossy):
        got = extract_chi1_fd(lossy, np.zeros((3, 3, 3, 3)), 0.6, 1e-3)
        assert np.allclose(got, chi1(lossy, 0.6), atol=1e-10)

    def test_vacuum_is_zero(self):
        vac = MediumParams(omega0=1.0, chi_s=1.0, alpha=0.5, rho=1.0, g=0, loop_cutoff=30.0)
        got = extract_chi1_fd(vac, np.zeros((3, 3, 3, 3)), 0.6, 1e-3)
        assert np.max(np.abs(got)) < 1e-12

    def test_cubic_term_extrapolates_away(self, lossy):
        lam = lambda_isotropic(0.3, 0.2, 0.1)
        got = extract_chi1_fd(lossy, lam, 0.6, 1e-4)
        assert np.allclose(got, chi1(lossy, 0.6), atol=1e-9)

    def test_large_step_detected(self, lossy):
        lam = 5e3 * lambda_isotropic(0.3, 0.2, 0.1)
        with pytest.raises(StepSizeError, match="step too large"):
            extract_chi1_fd(lossy, lam, 0.6, 1e-2)

    def test_step_bounds(self, lossy):
        with pytest.raises(InputError):
            extract_chi1_fd(lossy, np.zeros((3, 3, 3, 3)), 0.6, 1.0)


class TestChi3FiniteDifference:
    def test_zero_coupling(self, lossy):
        got = extract_chi3_fd(lossy, np.zeros((3, 3, 3, 3)), 0.6, 0.3, 0.1, 0.4, 1e-3)
        assert np.all(got == 0.0)

    def test_energy_constraint(self, lossy):
        lam = lambda_isotropic(0.3, 0.2, 0.1)
        with pytest.raises(EnergyConservationError):
            extract_chi3_fd(lossy, lam, 0.9, 0.3, 0.1, 0.4, 1e-3)

    def test_matches_formula_scalar_lossless(self, lossless):
        lam = lambda_isotropic(0.25, 0.4, 0.35)
        w1, w2, w3 = 0.31, 0.17, 0.52
        w = w1 - w2 + w3
        fd = extract_chi3_fd(lossless, lam, w, w1, w2, w3, 1e-3)
        cf = chi3(lossless, lam, w, w1, w2, w3)
        assert np.max(np.abs(fd - cf)) < 1e-6 * np.max(np.abs(cf))

    def test_matches_formula_lossy_random_quadruples(self, lossy):
        lam = lambda_isotropic(0.25, 0.4, 0.35)
        rng = np.random.default_rng(41)
        for _ in range(5):
            w1, w2, w3 = rng.uniform(0.1, 1.6, size=3)
            w = w1 - w2 + w3
            fd = extract_chi3_fd(lossy, lam, w, w1, w2, w3, 1e-3)
            cf = chi3(lossy, lam, w, w1, w2, w3)
            assert np.max(np.abs(fd - cf)) < 1e-6 * np.max(np.abs(cf))

    def test_alpha_scaling_through_fd_path(self, lossy):
        lam = lambda_isotropic(0.25, 0.4, 0.35)
        w1, w2, w3 = 0.3, 0.2, 0.5
        w = w1 - w2 + w3
        base = extract_chi3_fd(lossy, lam, w, w1, w2, w3, 1e-3)
        doubled = MediumParams(
            omega0=lossy.omega0,
            chi_s=lossy.chi_s,
            alpha=2.0 * lossy.alpha,
            rho=lossy.rho,
            nu=lossy.nu,
            loop_cutoff=lossy.loop_cutoff,
        )
        got = extract_chi3_fd(doubled, lam, w, w1, w2, w3, 1e-3)
        assert np.max(np.abs(got - 16.0 * base)) < 1e-4 * np.max(np.abs(16.0 * base))


def _anisotropic_coupling():
    rng = np.random.default_rng(2024)
    lam = rng.normal(size=(3, 3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3, 3))
    return 0.05 * (lam + lam.transpose(2, 3, 0, 1))


_COUPLINGS = {
    "isotropic": lambda_isotropic(0.25, 0.4, 0.35),
    "anisotropic": _anisotropic_coupling(),
    "zero": np.zeros((3, 3, 3, 3)),
}


def _same_bits(got, ref):
    return got.dtype == ref.dtype and got.shape == ref.shape and got.tobytes() == ref.tobytes()


class TestBatchedProbesMatchPerProbe:
    """The batched extractors against one ``displacement`` per probe comb, bit for bit."""

    @pytest.mark.parametrize(
        "medium_name, coupling, quad",
        [
            ("lossy", "isotropic", (0.52, 0.17, 0.31)),
            ("lossless", "isotropic", (0.31, 0.17, 0.52)),
            ("smooth_lossy", "anisotropic", (1.1, 0.35, 0.6)),
            ("lossy", "zero", (0.3, 0.1, 0.4)),
        ],
    )
    def test_chi3(self, request, medium_name, coupling, quad):
        medium = request.getfixturevalue(medium_name)
        lam = _COUPLINGS[coupling]
        w1, w2, w3 = quad
        w = w1 - w2 + w3
        got = extract_chi3_fd(medium, lam, w, w1, w2, w3, 1e-3)
        assert _same_bits(got, extract_chi3_fd_per_probe(medium, lam, w, w1, w2, w3, 1e-3))

    @pytest.mark.parametrize(
        "medium_name, coupling",
        [("lossy", "isotropic"), ("lossless", "isotropic"), ("smooth_lossy", "anisotropic"), ("lossy", "zero")],
    )
    def test_chi1(self, request, medium_name, coupling):
        medium = request.getfixturevalue(medium_name)
        lam = _COUPLINGS[coupling]
        got = extract_chi1_fd(medium, lam, 0.6, 1e-4)
        assert _same_bits(got, extract_chi1_fd_per_probe(medium, lam, 0.6, 1e-4))

    def test_degenerate_quadruple_rejected(self, lossy):
        with pytest.raises(InputError, match="pairwise distinct"):
            extract_chi3_fd(lossy, _COUPLINGS["isotropic"], 0.4, 0.3, 0.3, 0.4, 1e-3)
