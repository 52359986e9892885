import math

import numpy as np
import pytest

from conftest import sigma_per_point
from nlmedium.errors import (
    GridResolutionError,
    InputError,
    KernelSupportError,
    QuadratureError,
    ResponsePoleError,
)
from nlmedium.medium import (
    MediumParams,
    NuConstant,
    NuTabulated,
    Rank2Response,
    _gamma_magnitude,
    _gamma_scalar,
    _gamma_values,
    _sigma_values,
    chi1,
    chi1_scalar,
    chi1_spectrum,
    gamma_response,
    kk_reconstruct,
    reservoir_kernel,
)


def pv_half_residue_oracle(nu, rho, upper, w, n=200_001):
    """Independent reservoir-kernel oracle on a refined grid.

    Splits the principal value at a symmetric window around the pole:
    plain trapezoids outside, local subtraction plus the closed-form
    window primitive inside.  Decomposed differently from the production
    quadrature (which subtracts globally over the full support).
    """
    delta = 1e-3 * upper
    qw = float(nu.q(np.asarray([w]))[0])

    def seg(a, b):
        if b <= a:
            return 0.0
        x = np.linspace(a, b, n)
        return float(np.trapezoid(nu.q(x) / (x * x - w * w), x))

    total = seg(0.0, w - delta) + seg(w + delta, upper)
    # window [w - delta, w + delta]: subtracted part plus exact PV primitive
    x = np.linspace(w - delta, w + delta, 20_001)
    center = (x.size - 1) // 2
    den = x * x - w * w
    den[center] = 1.0  # patched below with the limit value
    s = (nu.q(x) - qw) / den
    h = x[1] - x[0]
    slope = (float(nu.q(np.asarray([w + h]))[0]) - float(nu.q(np.asarray([w - h]))[0])) / (2 * h)
    s[center] = slope / (2.0 * w)
    total += float(np.trapezoid(s, x))
    total += qw * math.log((2.0 * w - delta) / (2.0 * w + delta)) / (2.0 * w)
    return (w * w / rho) * complex(total, math.pi * qw / (2.0 * w))


class TestReservoirKernel:
    def test_zero_coupling_gives_zero(self, lossless):
        assert np.all(reservoir_kernel(lossless, 1.3) == 0.0)

    def test_zero_frequency_vanishes(self, lossy):
        assert np.all(reservoir_kernel(lossy, 0.0) == 0.0)

    def test_constant_coupling_reference_value(self):
        # nu0 = 0.1, rho = 1, w = 1: Im sigma = pi w nu0^2 / (2 rho), the
        # sign fixed by the passivity convention (absorption positive).
        p = MediumParams(omega0=1.0, chi_s=1.0, alpha=1.0, rho=1.0, nu=NuConstant(0.1, 10.0), loop_cutoff=30.0)
        sig = reservoir_kernel(p, 1.0)[0, 0]
        assert sig.imag == pytest.approx(math.pi * 1.0 * 0.01 / 2.0, rel=1e-12)
        assert sig.imag == pytest.approx(0.015707963, rel=1e-6)

    def test_constant_coupling_closed_form_real_part(self):
        # for constant q the PV integral has the closed form
        # q * ln((U-w)/(U+w)) / (2w) over the support [0, U]
        p = MediumParams(omega0=1.0, chi_s=1.0, alpha=1.0, rho=1.0, nu=NuConstant(0.1, 10.0), loop_cutoff=10.0 + 1e-9)
        sig = reservoir_kernel(p, 1.0)[0, 0]
        expected = (1.0 / 1.0) * 0.01 * math.log(9.0 / 11.0) / 2.0
        assert sig.real == pytest.approx(expected, rel=1e-6)

    def test_quadrature_matches_refined_grid_oracle(self, lossy):
        for w in (0.4, 1.0, 2.7, 6.3):
            got = reservoir_kernel(lossy, w)[0, 0]
            ref = pv_half_residue_oracle(lossy.nu, lossy.rho, lossy.loop_cutoff, w)
            assert got == pytest.approx(ref, rel=2e-4)

    def test_tabulated_matches_oracle(self, smooth_lossy):
        for w in (0.5, 1.0, 3.1):
            got = reservoir_kernel(smooth_lossy, w)[0, 0]
            ref = pv_half_residue_oracle(smooth_lossy.nu, smooth_lossy.rho, smooth_lossy.loop_cutoff, w)
            assert got == pytest.approx(ref, rel=2e-4)

    @pytest.mark.parametrize("w", [5e-324, 1e-200])
    def test_underflowing_frequency_is_finite_and_passive(self, lossy, smooth_lossy, w):
        # w*w underflows to 0 there, and pi*q/(2w) overflows at 5e-324
        for medium in (lossy, smooth_lossy):
            q = float(medium.nu.q(np.asarray([w]))[0])
            sig = complex(_sigma_values(medium, np.asarray([w]))[0])
            assert math.isfinite(sig.real) and math.isfinite(sig.imag)
            assert sig.imag == (w / medium.rho) * (math.pi * q / 2.0)
            assert sig.imag >= 0.0 and reservoir_kernel(medium, w)[0, 0] == sig
            x = chi1_scalar(medium, w)
            assert math.isfinite(x.real) and math.isfinite(x.imag) and x.imag >= 0.0
        assert _sigma_values(lossy, np.asarray([1e-200]))[0].imag > 0.0

    def test_underflow_branch_keeps_other_rows(self, lossy):
        grid = np.asarray([0.3, 1.7, 4.2])
        alone = _sigma_values(lossy, grid)
        mixed = _sigma_values(lossy, np.concatenate([[5e-324, 1e-200], grid]))
        assert np.array_equal(mixed[2:], alone)

    def test_hermitian_analyticity(self, lossy):
        for w in (0.3, 1.0, 4.2):
            plus = reservoir_kernel(lossy, w)[0, 0]
            minus = reservoir_kernel(lossy, -w)[0, 0]
            assert minus == np.conj(plus)

    def test_support_error(self, lossy):
        with pytest.raises(KernelSupportError, match="frequency outside kernel support"):
            reservoir_kernel(lossy, 31.0)

    def test_isotropic_matrix(self, lossy):
        m = reservoir_kernel(lossy, 0.9)
        assert np.all(m == m[0, 0] * np.eye(3))

    @pytest.mark.parametrize("peak, width", [(0.1, 4.0), (0.105, 3.8), (0.095, 4.2)])
    def test_batched_kernel_matches_per_point_quadrature(self, peak, width):
        # criterion-2 medium and its spectra-benchmark variants; the 4096-point
        # grid meets tabulated breakpoints exactly, where a node is dropped
        grid_nu = np.linspace(0.0, 16.0, 400)
        p = MediumParams(
            omega0=1.0,
            chi_s=1.0,
            alpha=0.5,
            rho=0.05,
            nu=NuTabulated(grid_nu, peak * np.exp(-((grid_nu / width) ** 2))),
            loop_cutoff=25.0,
        )
        grid = np.linspace(0.0, 20.0, 4096)[1:]
        assert np.any(np.isin(grid, grid_nu))
        ref = np.asarray([sigma_per_point(p, w) for w in grid])
        got = _sigma_values(p, grid)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-14

    def test_batched_kernel_matches_per_point_constant_coupling(self, lossy):
        grid = np.concatenate([np.linspace(0.01, 29.9, 1500), lossy.nu.breakpoints(), [30.0 * 7 / 1499]])
        ref = np.asarray([sigma_per_point(lossy, w) for w in grid])
        got = _sigma_values(lossy, grid)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-14

    def test_support_error_on_any_grid_point(self, lossy):
        with pytest.raises(KernelSupportError, match="frequency outside kernel support"):
            chi1_spectrum(lossy, np.asarray([0.5, 1.0, -30.0]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_quadrature_raises(self):
        grid = np.array([0.0, 1.0, 2.0])
        nu = NuTabulated(grid, np.array([1e200, 1e200, 1e200]))
        p = MediumParams(omega0=1.0, chi_s=1.0, alpha=1.0, rho=1e-300, nu=nu, loop_cutoff=10.0)
        with pytest.raises((QuadratureError, OverflowError)):
            reservoir_kernel(p, 0.5)


class TestGammaResponse:
    def test_static_limit(self, lossless):
        g = gamma_response(lossless, 0.0)
        assert np.allclose(g, lossless.eps0 * lossless.chi_s * np.eye(3), atol=1e-15)

    def test_sqrt2_point(self, lossless):
        g = gamma_response(lossless, math.sqrt(2.0) * lossless.omega0)
        assert np.allclose(g, -lossless.eps0 * lossless.chi_s * np.eye(3), atol=1e-12)

    def test_lossless_pole_is_hard_error(self, lossless):
        with pytest.raises(ResponsePoleError, match="response pole hit"):
            gamma_response(lossless, lossless.omega0)

    @pytest.mark.parametrize("omega0", [1e-3, 1.0, 1e3])
    def test_pole_test_is_scale_free(self, omega0):
        # the same relative detuning reads the same at every unit of frequency
        medium = MediumParams(omega0=omega0, chi_s=1.0, alpha=0.5, rho=1.0, loop_cutoff=30.0 * omega0)
        with pytest.raises(ResponsePoleError, match="response pole hit"):
            chi1(medium, omega0 * (1.0 + 2.0**-52))
        near = chi1_scalar(medium, omega0 * (1.0 + 1e-12))
        assert np.isfinite(near) and 1e11 < abs(near) < 1e12

    def test_lossy_resonance_finite_with_positive_im(self, lossy):
        g = gamma_response(lossy, lossy.omega0)[0, 0]
        assert np.isfinite(g)
        assert g.imag > 0


    def test_both_signs_share_one_cache_entry(self, lossy):
        _gamma_magnitude.cache_clear()
        for w in (0.7, -0.7, -2.5, 2.5, 0.0, -0.0):
            value = np.complex128(_gamma_scalar(lossy, w))
            assert value.tobytes() == _gamma_values(lossy, np.asarray([w]))[0].tobytes()
        assert _gamma_magnitude.cache_info().currsize == 3


class TestChi1:
    def test_vacuum(self, lossy):
        vac = MediumParams(
            omega0=1.0, chi_s=1.0, alpha=0.5, rho=0.2, nu=NuConstant(0.1, 10.0), g=0, loop_cutoff=30.0
        )
        assert np.all(chi1(vac, 0.7) == 0.0)

    def test_static_susceptibility(self, lossless, lossy):
        assert chi1(lossless, 0.0)[0, 0] == pytest.approx(lossless.chi_s, abs=1e-15)
        assert chi1(lossy, 0.0)[0, 0] == pytest.approx(lossy.chi_s, abs=1e-15)

    def test_lossless_closed_form(self, lossless):
        for w in (0.3, 0.9, 1.7, 5.0):
            expected = lossless.chi_s * lossless.omega0**2 / (lossless.omega0**2 - w**2)
            got = chi1_scalar(lossless, w)
            assert got.imag == 0.0
            assert got.real == pytest.approx(expected, rel=1e-14)

    def test_passivity(self, lossy):
        rng = np.random.default_rng(11)
        for _ in range(20):
            w = rng.uniform(0.05, 8.0)
            assert chi1_scalar(lossy, w).imag >= -1e-12

    def test_reality(self, lossy):
        for w in (0.2, 1.1, 3.3):
            assert chi1_scalar(lossy, -w) == np.conj(chi1_scalar(lossy, w))

    def test_spectrum_isotropy(self, lossy):
        spec = chi1_spectrum(lossy, np.linspace(0.1, 3.0, 7))
        assert spec.max_anisotropy() < 1e-12

    def test_spectrum_matches_pointwise_chi1(self, smooth_lossy):
        grid = np.linspace(-5.0, 20.0, 301)
        spec = chi1_spectrum(smooth_lossy, grid)
        point = np.asarray([chi1(smooth_lossy, w) for w in grid])
        assert np.max(np.abs(spec.values - point)) <= 1e-14 * np.max(np.abs(point))
        assert spec.values[60, 0, 0] == smooth_lossy.chi_s  # omega = 0 exactly

    def test_static_limit_is_exact(self):
        # chi_s * w0^2 / w0^2 rounds away from chi_s for these values
        p = MediumParams(omega0=1.04, chi_s=0.95, alpha=0.5, rho=0.2, nu=NuConstant(0.1, 10.0), loop_cutoff=30.0)
        assert p.eps0 * p.omega0**2 * p.chi_s / p.omega0**2 != p.chi_s
        assert chi1_scalar(p, 0.0) == p.chi_s
        assert chi1_spectrum(p, [0.0, 0.5]).values[0, 0, 0] == p.chi_s


class TestKramersKronig:
    def test_zero_im_gives_zero_re(self):
        grid = np.linspace(0.0, 10.0, 200)
        assert np.all(kk_reconstruct(grid, np.zeros_like(grid)) == 0.0)

    def test_analytic_lorentzian_pair(self):
        # Im/Re of a damped resonance are exact transform partners
        w0, gam, amp = 1.0, 0.4, 1.0
        grid = np.linspace(0.0, 40.0, 6000)
        den = (w0**2 - grid**2) ** 2 + gam**2 * grid**2
        im = amp * gam * grid / den
        re = amp * (w0**2 - grid**2) / den
        rec = kk_reconstruct(grid, im)
        n = grid.size
        sl = slice(int(0.1 * n), int(0.9 * n))
        assert np.max(np.abs(rec[sl] - re[sl])) < 2e-4 * np.max(np.abs(re))

    def test_chi1_closure(self, smooth_lossy):
        grid = np.linspace(0.0, 20.0, 2048)
        vals = np.asarray([chi1_scalar(smooth_lossy, w) for w in grid])
        rec = kk_reconstruct(grid, vals.imag)
        n = grid.size
        sl = slice(int(0.1 * n), int(0.9 * n))
        rel = np.abs(rec[sl] - vals.real[sl]) / np.abs(vals.real[sl])
        assert np.max(rel) < 1e-3

    def test_narrow_spike_profile(self):
        # a narrow absorption spike reconstructs the 1/(w0^2 - w^2) profile
        w0, gam = 2.0, 0.01
        grid = np.linspace(0.0, 30.0, 20000)
        den = (w0**2 - grid**2) ** 2 + gam**2 * grid**2
        im = gam * grid / den
        rec = kk_reconstruct(grid, im)
        far = (np.abs(grid - w0) > 1.0) & (grid > 0.5) & (grid < 27.0)
        profile = 1.0 / (w0**2 - grid[far] ** 2)
        ratio = rec[far] / profile
        assert np.max(np.abs(ratio - 1.0)) < 2e-2

    def test_coarse_grid_rejected(self, lossy):
        grid = np.linspace(0.0, 5.0, 40)
        vals = np.asarray([chi1_scalar(lossy, w) for w in grid])
        with pytest.raises(GridResolutionError, match="grid under-resolves resonance"):
            kk_reconstruct(grid, vals.imag)


class TestTypesAndConfig:
    def test_params_validation(self):
        with pytest.raises(InputError):
            MediumParams(omega0=-1.0, chi_s=1.0, alpha=1.0, rho=1.0)
        with pytest.raises(InputError):
            MediumParams(omega0=1.0, chi_s=1.0, alpha=1.0, rho=1.0, g=2)
        with pytest.raises(InputError):
            MediumParams(omega0=1.0, chi_s=1.0, alpha=1.0, rho=1.0, loop_cutoff=0.5)

    def test_config_round_trip(self, lossy):
        again = MediumParams.from_config(lossy.to_config())
        assert again.to_config() == lossy.to_config()

    def test_tabulated_round_trip(self, smooth_lossy):
        again = MediumParams.from_config(smooth_lossy.to_config())
        assert chi1_scalar(again, 1.3) == chi1_scalar(smooth_lossy, 1.3)

    def test_complex_tabulated_coupling(self):
        grid = np.linspace(0.0, 8.0, 50)
        values = 0.1 * np.exp(-((grid / 3.0) ** 2)) * np.exp(0.3j * grid)
        med = MediumParams(
            omega0=1.0, chi_s=1.0, alpha=0.5, rho=0.5, nu=NuTabulated(grid, values), loop_cutoff=20.0
        )
        # only |nu|^2 enters; the phase is irrelevant and round-trips
        again = MediumParams.from_config(med.to_config())
        assert chi1_scalar(again, 0.9) == chi1_scalar(med, 0.9)
        assert chi1_scalar(med, 0.9).imag > 0

    def test_rank2_validation(self):
        with pytest.raises(InputError):
            Rank2Response(freq_grid=np.array([1.0, 0.5]), values=np.zeros((2, 3, 3)))
        with pytest.raises(InputError):
            Rank2Response(freq_grid=np.array([0.5, 1.0]), values=np.zeros((3, 3, 3)))
