import json
import math

import numpy as np
import pytest

from conftest import sigma_per_point
from nlmedium import cli, duffing, fieldspace, nonlinear
from nlmedium import medium as medium_module
from nlmedium.displacement import FrequencyComb, displacement
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
    _static_nodes,
    chi1,
    gamma_response,
    kk_reconstruct,
    reservoir_kernel,
)
from nlmedium.serialize import medium_from_config


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
        assert reservoir_kernel(lossless, 1.3) == 0.0

    def test_zero_frequency_vanishes(self, lossy):
        assert reservoir_kernel(lossy, 0.0) == 0.0

    def test_constant_coupling_reference_value(self):
        # nu0 = 0.1, rho = 1, w = 1: Im sigma = pi w nu0^2 / (2 rho), the
        # sign fixed by the passivity convention (absorption positive).
        p = MediumParams(omega0=1.0, chi_s=1.0, alpha=1.0, rho=1.0, nu=NuConstant(0.1, 10.0), loop_cutoff=30.0)
        sig = reservoir_kernel(p, 1.0)
        assert sig.imag == pytest.approx(math.pi * 1.0 * 0.01 / 2.0, rel=1e-12)
        assert sig.imag == pytest.approx(0.015707963, rel=1e-6)

    def test_constant_coupling_closed_form_real_part(self):
        # for constant q the PV integral has the closed form
        # q * ln((U-w)/(U+w)) / (2w) over the support [0, U]
        p = MediumParams(omega0=1.0, chi_s=1.0, alpha=1.0, rho=1.0, nu=NuConstant(0.1, 10.0), loop_cutoff=10.0 + 1e-9)
        sig = reservoir_kernel(p, 1.0)
        expected = (1.0 / 1.0) * 0.01 * math.log(9.0 / 11.0) / 2.0
        assert sig.real == pytest.approx(expected, rel=1e-6)

    def test_quadrature_matches_refined_grid_oracle(self, lossy):
        for w in (0.4, 1.0, 2.7, 6.3):
            got = reservoir_kernel(lossy, w)
            ref = pv_half_residue_oracle(lossy.nu, lossy.rho, lossy.loop_cutoff, w)
            assert got == pytest.approx(ref, rel=2e-4)

    def test_tabulated_matches_oracle(self, smooth_lossy):
        for w in (0.5, 1.0, 3.1):
            got = reservoir_kernel(smooth_lossy, w)
            ref = pv_half_residue_oracle(smooth_lossy.nu, smooth_lossy.rho, smooth_lossy.loop_cutoff, w)
            assert got == pytest.approx(ref, rel=2e-4)

    @pytest.mark.parametrize("w", [5e-324, 1e-200])
    def test_underflowing_frequency_is_finite_and_passive(self, lossy, smooth_lossy, w):
        # w*w underflows to 0 there, and pi*q/(2w) overflows at 5e-324
        for medium in (lossy, smooth_lossy):
            q = float(medium.nu.q(np.asarray([w]))[0])
            sig = reservoir_kernel(medium, w)
            assert math.isfinite(sig.real) and math.isfinite(sig.imag)
            assert sig.imag == (w / medium.rho) * (math.pi * q / 2.0)
            assert sig.imag >= 0.0 and reservoir_kernel(medium, w) == sig
            x = chi1(medium, w)
            assert math.isfinite(x.real) and math.isfinite(x.imag) and x.imag >= 0.0
        assert reservoir_kernel(lossy, 1e-200).imag > 0.0

    def test_underflow_branch_keeps_other_rows(self, lossy):
        grid = np.asarray([0.3, 1.7, 4.2])
        alone = reservoir_kernel(lossy, grid)
        mixed = reservoir_kernel(lossy, np.concatenate([[5e-324, 1e-200], grid]))
        assert np.array_equal(mixed[2:], alone)

    def test_hermitian_analyticity(self, lossy):
        for w in (0.3, 1.0, 4.2):
            plus = reservoir_kernel(lossy, w)
            minus = reservoir_kernel(lossy, -w)
            assert minus == np.conj(plus)

    def test_support_error(self, lossy):
        with pytest.raises(KernelSupportError, match="frequency outside kernel support"):
            reservoir_kernel(lossy, 31.0)

    def test_scalar_and_array_shapes(self, lossy):
        # a scalar gives a Python complex, an array complex values of its shape
        assert type(reservoir_kernel(lossy, 0.9)) is complex
        assert type(gamma_response(lossy, np.float64(0.9))) is complex
        assert type(chi1(lossy, 0.9)) is complex
        grid = np.asarray([[0.9, -0.9, 0.0], [2.0, 0.9, 4.0]])
        for entry in (reservoir_kernel, gamma_response, chi1):
            values = entry(lossy, grid)
            assert values.shape == grid.shape and values.dtype == complex
            assert values[1, 1] == values[0, 0] == np.conj(values[0, 1])
        assert reservoir_kernel(lossy, []).shape == (0,)

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
        got = reservoir_kernel(p, grid)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-14

    def test_batched_kernel_matches_per_point_constant_coupling(self, lossy):
        grid = np.concatenate([np.linspace(0.01, 29.9, 1500), lossy.nu.breakpoints(), [30.0 * 7 / 1499]])
        ref = np.asarray([sigma_per_point(lossy, w) for w in grid])
        got = reservoir_kernel(lossy, grid)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-14

    def test_grid_on_the_static_nodes(self, lossy):
        # every pole sits on a static node, so every row drops its run of
        # nodes and is contracted again, all rows of a chunk in one einsum
        x = _static_nodes(lossy.nu, lossy.loop_cutoff)[0]
        grid = x[(x > 0.0) & (x < lossy.loop_cutoff)]
        got = reservoir_kernel(lossy, grid)
        one_row = np.asarray([reservoir_kernel(lossy, w) for w in grid])
        assert got.tobytes() == one_row.tobytes()
        ref = np.asarray([sigma_per_point(lossy, w) for w in grid])
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-14

    def test_support_error_on_any_grid_point(self, lossy):
        with pytest.raises(KernelSupportError, match="frequency outside kernel support"):
            chi1(lossy, np.asarray([0.5, 1.0, -30.0]))

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
        assert g == lossless.eps0 * lossless.chi_s

    def test_sqrt2_point(self, lossless):
        g = gamma_response(lossless, math.sqrt(2.0) * lossless.omega0)
        assert g == pytest.approx(-lossless.eps0 * lossless.chi_s, abs=1e-12)

    def test_lossless_pole_is_hard_error(self, lossless):
        with pytest.raises(ResponsePoleError, match="response pole hit"):
            gamma_response(lossless, lossless.omega0)

    @pytest.mark.parametrize("omega0", [1e-3, 1.0, 1e3])
    def test_pole_test_is_scale_free(self, omega0):
        # the same relative detuning reads the same at every unit of frequency
        medium = MediumParams(omega0=omega0, chi_s=1.0, alpha=0.5, rho=1.0, loop_cutoff=30.0 * omega0)
        with pytest.raises(ResponsePoleError, match="response pole hit"):
            chi1(medium, omega0 * (1.0 + 2.0**-52))
        near = chi1(medium, omega0 * (1.0 + 1e-12))
        assert np.isfinite(near) and 1e11 < abs(near) < 1e12

    def test_lossy_resonance_finite_with_positive_im(self, lossy):
        g = gamma_response(lossy, lossy.omega0)
        assert np.isfinite(g)
        assert g.imag > 0

    def test_scalar_read_equals_array_value(self, lossy):
        omegas = np.asarray([0.7, -0.7, 2.5, -2.5, 0.0, -0.0])
        batch = gamma_response(lossy, omegas)
        for i, w in enumerate(omegas.tolist()):
            assert np.complex128(gamma_response(lossy, w)).tobytes() == batch[i].tobytes()


class TestOneKernelCallPerConsumer:
    """Each consumer evaluates gamma at all the frequencies it needs in one ``_kernel`` call."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The row counts of the quadrature calls (``medium._kernel``, whose one caller is ``reservoir_kernel``)."""
        counted = []
        original = medium_module._kernel

        def counting(params, w):
            counted.append(w.size)
            return original(params, w)

        monkeypatch.setattr(medium_module, "_kernel", counting)
        return counted

    @pytest.fixture
    def vacuum(self):
        return MediumParams(omega0=1.0, chi_s=1.0, alpha=0.5, rho=1.0, g=0, loop_cutoff=30.0)

    def test_library_consumers(self, calls, lossy):
        lam = nonlinear.lambda_isotropic(0.25, 0.4, 0.35)
        nonlinear.lambda0_tensor(lam, lossy, 0.1, 0.2, 0.3, 0.4)
        nonlinear.chi3(lossy, lam, 0.6, 0.5, 0.2, 0.3)
        ctx = fieldspace.PlaneWaveContext(k=1.3, polarization=[1.0, 0.0, 0.0], omega=0.8)
        fieldspace.tree_propagators(lossy, ctx)
        fieldspace.photon_green(lossy, ctx)
        # the self-energy's one call: its two frequencies and the loop nodes
        quad = fieldspace.LoopQuadrature(1024, 12.0)
        fieldspace.self_energy(lossy, lam, [0.8, -0.5], quad)
        nodes = np.unique(np.abs(np.concatenate([[0.8, 0.5], *fieldspace._loop_windows(quad)])))
        assert calls == [4, 4, 1, 1, np.count_nonzero(nodes)]

    def test_miller_ratio(self, calls, lossy):
        lam = nonlinear.lambda_isotropic(0.25, 0.4, 0.35)
        ratio = nonlinear.miller_ratio(lossy, lam, 0.6, 0.5, 0.2, 0.3)
        assert calls == [4]
        # the same bits as chi3 over the product of four scalar chi1 reads
        factors = [chi1(lossy, w) for w in (0.5, 0.2, 0.3, 0.6)]
        expected = nonlinear.chi3(lossy, lam, 0.6, 0.5, 0.2, 0.3) / np.prod(np.asarray(factors))
        assert ratio.tobytes() == expected.tobytes()

    def test_comb_plan_of_three_lines(self, calls, lossy):
        lam = nonlinear.lambda_isotropic(0.25, 0.4, 0.35)
        comb = FrequencyComb.from_lines([(w, [0.1, 0.0, 0.0]) for w in (0.3, 0.5, 0.9)], mirror=False)
        displacement(comb, lossy, lam)
        assert len(calls) == 1

    def test_compare_chi3(self, calls):
        # sigma(omega0) for the damping, then the comb plan's one call at
        # |w| in {wd, 3 wd}; the plan's linear term also serves gamma(wd)
        medium = MediumParams(omega0=1.0, chi_s=1.0, alpha=0.5, rho=0.8, nu=NuConstant(0.1, 6.0), loop_cutoff=30.0)
        duffing.compare_chi3(medium, nonlinear.lambda_isotropic(0.05, 0.08, 0.05), 0.22, ladder=3)
        assert calls == [1, 2]

    def test_vacuum_evaluates_no_gamma(self, calls, vacuum):
        lam = nonlinear.lambda_isotropic(0.25, 0.4, 0.35)
        assert np.all(nonlinear.lambda0_tensor(lam, vacuum, 0.1, 0.2, 0.3, 0.4) == 0.0)
        assert np.all(nonlinear.chi3(vacuum, lam, 0.6, 0.5, 0.2, 0.3) == 0.0)
        ctx = fieldspace.PlaneWaveContext(k=1.3, polarization=[1.0, 0.0, 0.0], omega=0.8)
        assert np.all(fieldspace.tree_propagators(vacuum, ctx).xx == 0.0)
        assert calls == []

    # one call on the five grid frequencies; dyson adds the self-energy's
    # call, which evaluates the grid again with the loop nodes
    @pytest.mark.parametrize("command, count", [("chi1", 1), ("chi3", 1), ("propagators", 1), ("dyson", 2)])
    def test_cli_commands(self, calls, tmp_path, command, count):
        nu = {"type": "constant", "nu0": 0.1, "omega_cut": 6.0}
        cfg = {
            "medium": {"omega0": 1.0, "chi_s": 1.0, "alpha": 0.5, "rho": 0.8, "nu": nu, "loop_cutoff": 30.0},
            "lambda": {"isotropic": [0.05, 0.08, 0.05]},
            "grids": {"omega": {"start": 0.2, "stop": 1.8, "n": 5}, "k": [0.0, 1.3]},
            "loop": {"n_points": 16384, "cutoff": 12.0},
            "outputs": {"dir": str(tmp_path)},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(path), command]) == cli.EXIT_OK
        assert len(calls) == count and calls[0] == 5


class TestChi1:
    def test_vacuum(self, lossy):
        vac = MediumParams(
            omega0=1.0, chi_s=1.0, alpha=0.5, rho=0.2, nu=NuConstant(0.1, 10.0), g=0, loop_cutoff=30.0
        )
        assert chi1(vac, 0.7) == 0.0
        assert np.all(chi1(vac, [0.0, 0.7, 1.0]) == 0.0)

    def test_static_susceptibility(self, lossless, lossy):
        assert chi1(lossless, 0.0) == pytest.approx(lossless.chi_s, abs=1e-15)
        assert chi1(lossy, 0.0) == pytest.approx(lossy.chi_s, abs=1e-15)

    def test_lossless_closed_form(self, lossless):
        for w in (0.3, 0.9, 1.7, 5.0):
            expected = lossless.chi_s * lossless.omega0**2 / (lossless.omega0**2 - w**2)
            got = chi1(lossless, w)
            assert got.imag == 0.0
            assert got.real == pytest.approx(expected, rel=1e-14)

    def test_passivity(self, lossy):
        rng = np.random.default_rng(11)
        for _ in range(20):
            w = rng.uniform(0.05, 8.0)
            assert chi1(lossy, w).imag >= -1e-12

    def test_reality(self, lossy):
        for w in (0.2, 1.1, 3.3):
            assert chi1(lossy, -w) == np.conj(chi1(lossy, w))

    def test_spectrum_isotropy(self, lossy, tmp_path):
        # every sample of the chi1 artifact is diagonal, with three entries
        # bitwise equal to the scalar chi1
        medium = {"omega0": 1.0, "chi_s": 1.0, "alpha": 0.5, "rho": 0.2, "loop_cutoff": 30.0}
        medium["nu"] = {"type": "constant", "nu0": 0.1, "omega_cut": 10.0}
        cfg = {"medium": medium, "grids": {"omega": {"start": 0.1, "stop": 3.0, "n": 7}}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(path), "--out", str(tmp_path), "--format", "json", "chi1"]) == cli.EXIT_OK
        samples = json.loads((tmp_path / "chi1.json").read_text())["samples"]
        values = np.asarray([[[complex(*z) for z in row] for row in s["chi1"]] for s in samples])
        diagonal = np.einsum("nii->ni", values)
        expected = chi1(lossy, np.linspace(0.1, 3.0, 7))
        assert diagonal.tobytes() == np.repeat(expected[:, None], 3, axis=1).tobytes()
        assert not np.any(values[:, ~np.eye(3, dtype=bool)])

    def test_spectrum_matches_pointwise_chi1(self, smooth_lossy):
        grid = np.linspace(-5.0, 20.0, 301)
        spec = chi1(smooth_lossy, grid)
        point = np.asarray([chi1(smooth_lossy, w) for w in grid])
        assert spec.tobytes() == point.tobytes()
        assert spec[60] == smooth_lossy.chi_s  # omega = 0 exactly

    def test_static_limit_is_exact(self):
        # chi_s * w0^2 / w0^2 rounds away from chi_s for these values
        p = MediumParams(omega0=1.04, chi_s=0.95, alpha=0.5, rho=0.2, nu=NuConstant(0.1, 10.0), loop_cutoff=30.0)
        assert p.eps0 * p.omega0**2 * p.chi_s / p.omega0**2 != p.chi_s
        assert chi1(p, 0.0) == p.chi_s
        assert chi1(p, [0.0, 0.5])[0] == p.chi_s


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
        vals = np.asarray([chi1(smooth_lossy, w) for w in grid])
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
        vals = np.asarray([chi1(lossy, w) for w in grid])
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

    def test_config_decodes_to_medium(self, lossy):
        # the lossy fixture as a JSON medium section
        cfg = {"omega0": 1.0, "chi_s": 1.0, "alpha": 0.5, "rho": 0.2, "loop_cutoff": 30.0}
        cfg["nu"] = {"type": "constant", "nu0": 0.1, "omega_cut": 10.0}
        decoded = medium_from_config(json.loads(json.dumps(cfg)))
        assert decoded == lossy
        grid = np.linspace(0.0, 8.0, 33)
        assert chi1(decoded, grid).tobytes() == chi1(lossy, grid).tobytes()

    def test_tabulated_config_decodes_to_medium(self, smooth_lossy):
        grid = np.linspace(0.0, 16.0, 400)
        nu = {"type": "tabulated", "grid": grid.tolist(), "values": (0.1 * np.exp(-((grid / 4.0) ** 2))).tolist()}
        cfg = {"omega0": 1.0, "chi_s": 1.0, "alpha": 0.5, "rho": 0.05, "nu": nu, "loop_cutoff": 25.0}
        decoded = medium_from_config(json.loads(json.dumps(cfg)))
        # numbers decode to a real table, as the fixture holds
        assert decoded.nu.values.dtype == smooth_lossy.nu.values.dtype == np.float64
        omega = np.linspace(0.0, 20.0, 81)
        assert chi1(decoded, omega).tobytes() == chi1(smooth_lossy, omega).tobytes()

    def test_complex_tabulated_coupling(self):
        grid = np.linspace(0.0, 8.0, 50)
        values = 0.1 * np.exp(-((grid / 3.0) ** 2)) * np.exp(0.3j * grid)
        med = MediumParams(
            omega0=1.0, chi_s=1.0, alpha=0.5, rho=0.5, nu=NuTabulated(grid, values), loop_cutoff=20.0
        )
        # only |nu|^2 enters; the phase is irrelevant and [re, im] pairs decode exactly
        nu = {"type": "tabulated", "grid": grid.tolist(), "values": [[v.real, v.imag] for v in values]}
        cfg = {"omega0": 1.0, "chi_s": 1.0, "alpha": 0.5, "rho": 0.5, "nu": nu, "loop_cutoff": 20.0}
        decoded = medium_from_config(json.loads(json.dumps(cfg)))
        assert decoded.nu.values.tobytes() == values.tobytes()
        assert chi1(decoded, 0.9) == chi1(med, 0.9)
        assert chi1(med, 0.9).imag > 0
