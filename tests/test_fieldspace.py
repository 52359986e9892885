import math

import numpy as np
import pytest

from conftest import (
    dyson_dress_per_sample,
    photon_green_per_sample,
    self_energy_per_node,
    tree_propagators_per_sample,
)
from nlmedium.errors import DysonPoleError, InputError, LoopConvergenceError, PropagatorPoleError
from nlmedium.fieldspace import (
    LoopQuadrature,
    PlaneWaveContext,
    _loop_windows,
    _tree_propagators,
    dyson_dress,
    mean_fields,
    photon_green,
    self_energy,
    total_kernel,
    total_source,
    tree_propagators,
    vertex,
)
from nlmedium.medium import MediumParams, NuConstant, NuZero, gamma_response
from nlmedium.nonlinear import lambda0_tensor, lambda_isotropic

POL = np.array([1.0, 0.0, 0.0])
BLOCKS = ("aa", "ax", "xa", "xx")


def _anisotropic_lambda():
    """A random complex pair-symmetric coupling: the self-energy is then a general 3x3."""
    rng = np.random.default_rng(8)
    lam = rng.normal(size=(3, 3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3, 3))
    return 0.05 * (lam + lam.transpose(2, 3, 0, 1))


ANISOTROPIC = _anisotropic_lambda()


def ctx(k, w):
    return PlaneWaveContext(k=k, polarization=POL, omega=w)


@pytest.fixture
def vacuum():
    return MediumParams(omega0=1.0, chi_s=1.0, alpha=0.5, rho=1.0, g=0, loop_cutoff=30.0)


@pytest.fixture
def loop_toy():
    """Weakly damped narrow-band medium for loop-convergence checks."""
    return MediumParams(
        omega0=1.0, chi_s=1.0, alpha=0.3, rho=0.05, nu=NuConstant(0.05, 4.0), loop_cutoff=60.0
    )


class TestKernelAndGreen:
    def test_vacuum_light_cone(self, vacuum):
        k = total_kernel(vacuum, ctx(2.0, 2.0))  # eps0 mu0 c^2 = 1
        assert k[0, 0] == 0.0 and k[1, 1] == 0.0

    def test_low_frequency_expansion(self, lossless):
        w = 1e-5
        k = total_kernel(lossless, ctx(0.0, w))
        expected = w**2 * (lossless.eps0 - lossless.alpha**2 * lossless.eps0 * lossless.chi_s)
        assert k[0, 0] == pytest.approx(expected, rel=1e-8)

    def test_lossy_kernel_has_imaginary_part(self, lossy):
        k = total_kernel(lossy, ctx(1.3, 0.8))
        assert abs(k[0, 0].imag) > 0

    def test_green_inverts_kernel(self, lossy):
        c = ctx(1.3, 0.8)
        d = photon_green(lossy, c)
        k = total_kernel(lossy, c)
        assert np.max(np.abs((d @ k)[:2, :2] - np.eye(2))) < 1e-12

    def test_green_at_zero_k_full_inverse(self, lossy):
        c = ctx(0.0, 0.8)
        d = photon_green(lossy, c)
        k = total_kernel(lossy, c)
        assert np.max(np.abs(d @ k - np.eye(3))) < 1e-12

    def test_vacuum_scalar_green(self, vacuum):
        c = ctx(1.0, 2.0)
        d = photon_green(vacuum, c)
        assert d[0, 0] == pytest.approx(1.0 / (vacuum.eps0 * 4.0 - 1.0 / vacuum.mu0), rel=1e-14)
        assert d[2, 2] == 0.0

    def test_on_shell_pole_raises(self, vacuum):
        with pytest.raises(PropagatorPoleError, match="propagator pole"):
            photon_green(vacuum, ctx(2.0, 2.0))

    @pytest.mark.parametrize("offset, ratio", [(5e-7, 1e-6), (2e-8, 4e-8)])
    def test_pole_threshold_at_zero_k(self, lossless, offset, ratio):
        # K_T = w**2 (eps0 - alpha**2 gamma) vanishes at w**2 = 0.75 here,
        # and |K_T| / s = |0.75 - w**2| / (1.25 - w**2)
        w = math.sqrt(0.75 + offset)
        gam = gamma_response(lossless, w)
        got = abs(1.0 - lossless.alpha**2 * gam) / (1.0 + lossless.alpha**2 * abs(gam))
        assert got == pytest.approx(ratio, rel=0.01)
        if ratio <= 1e-7:
            with pytest.raises(PropagatorPoleError, match="propagator pole"):
                photon_green(lossless, ctx(0.0, w))
        else:
            # the 3x3 determinant rule took |K| <= 2.2e-5 s for a pole at k = 0
            with pytest.raises(PropagatorPoleError):
                photon_green_per_sample(lossless, ctx(0.0, w))
            assert np.all(np.isfinite(photon_green(lossless, ctx(0.0, w))))

    @pytest.mark.parametrize("shift, pole", [(1e-6, False), (5e-8, True)])
    def test_pole_threshold_for_positive_k(self, vacuum, shift, pole):
        # |K_T| / s = |w**2 - k**2| / (w**2 + k**2), about ``shift`` here
        k = 1.3
        w = k * math.sqrt(1.0 + 2.0 * shift)
        assert abs(w**2 - k**2) / (w**2 + k**2) == pytest.approx(shift, rel=1e-3)
        if pole:
            with pytest.raises(PropagatorPoleError, match="propagator pole"):
                photon_green(vacuum, ctx(k, w))
        else:
            assert np.all(np.isfinite(photon_green(vacuum, ctx(k, w))))

    def test_small_frequency_is_not_a_pole(self, lossy):
        # K_tot is w**2 eps(w) I near w = 0 (less k**2 on the transverse
        # block): tiny, but perfectly conditioned
        for c, n in ((ctx(0.0, 1e-3), 3), (ctx(1e-4, 1e-4), 2)):
            d = photon_green(lossy, c)
            k = total_kernel(lossy, c)
            assert np.max(np.abs((d @ k)[:n, :n] - np.eye(n))) < 1e-12

    def test_lossy_light_cone_regularized(self, lossy):
        d = photon_green(lossy, ctx(0.8, 0.8))
        assert np.all(np.isfinite(d))

    def test_context_validation(self):
        with pytest.raises(InputError):
            PlaneWaveContext(k=-1.0, polarization=POL, omega=1.0)
        with pytest.raises(InputError):
            PlaneWaveContext(k=1.0, polarization=np.array([1.0, 1.0, 0.0]), omega=1.0)


class TestSourcesAndMeanFields:
    def test_zero_sources(self, lossy):
        assert np.all(total_source(lossy, np.zeros(3), np.zeros(3), 0.7) == 0.0)

    def test_pure_current(self, lossy):
        out = total_source(lossy, np.array([1.0, 0, 0]), np.zeros(3), 0.7)
        assert np.allclose(out, 1j * 0.7 * np.array([1.0, 0, 0]))

    def test_matter_source_static_limit(self):
        med = MediumParams(omega0=1e4, chi_s=0.8, alpha=0.6, rho=1.0, nu=NuZero(), loop_cutoff=3e4)
        w = 1e-3
        out = total_source(med, np.zeros(3), np.array([1.0, 0, 0]), w)
        expected = 1j * w * 0.5 * med.alpha * med.eps0 * med.chi_s
        assert out[0] == pytest.approx(expected, rel=1e-10)

    def test_mean_fields_zero_source(self):
        grid = np.array([0.5, 1.0])
        mf = mean_fields(grid, np.zeros((2, 3)), np.tile(np.eye(3), (2, 1, 1)))
        assert np.all(mf.m == 0.0) and np.all(mf.m_prime == 0.0)

    def test_scalar_relation(self):
        grid = np.array([0.7])
        l = np.array([[0.3 + 0.4j, 0.0, 0.0]])
        d = np.tile((2.0 - 0.5j) * np.eye(3), (1, 1, 1))
        mf = mean_fields(grid, l, d)
        assert mf.m_prime[0, 0] == pytest.approx(1j * 0.7 * (2.0 - 0.5j) * (0.3 + 0.4j))
        assert mf.m[0, 0] == pytest.approx(1j * 0.7 * (2.0 - 0.5j) * np.conj(0.3 + 0.4j))

    def test_index_bookkeeping_transpose(self):
        # m = i w D^T L* coincides with i w D L* for the symmetric D here
        rng = np.random.default_rng(2)
        grid = np.array([0.9])
        l = rng.normal(size=(1, 3)) + 1j * rng.normal(size=(1, 3))
        sym = rng.normal(size=(3, 3))
        d = np.asarray([sym + sym.T + 5 * np.eye(3)], dtype=complex)
        mf = mean_fields(grid, l, d)
        expect = 1j * 0.9 * (d[0].T @ np.conj(l[0]))
        assert np.allclose(mf.m[0], expect, rtol=1e-14)


class TestTreePropagators:
    def test_decoupled_at_zero_alpha(self, lossy):
        med = MediumParams(
            omega0=1.0, chi_s=1.0, alpha=0.0, rho=0.2, nu=NuConstant(0.1, 10.0), loop_cutoff=30.0
        )
        g0 = tree_propagators(med, ctx(1.3, 0.8))
        assert np.all(g0.ax == 0.0) and np.all(g0.xa == 0.0)
        assert np.allclose(g0.xx, gamma_response(med, 0.8) * np.eye(3))
        assert np.allclose(g0.aa, photon_green(med, ctx(1.3, 0.8)))

    def test_vacuum_matter_blocks_vanish(self, vacuum):
        g0 = tree_propagators(vacuum, ctx(1.3, 0.8))
        assert np.all(g0.xx == 0.0) and np.all(g0.ax == 0.0) and np.all(g0.xa == 0.0)

    def test_mixing_linear_in_alpha(self, lossy):
        c = ctx(1.3, 0.8)
        slopes = []
        for alpha in (1e-4, 2e-4):
            med = MediumParams(
                omega0=1.0, chi_s=1.0, alpha=alpha, rho=0.2, nu=NuConstant(0.1, 10.0), loop_cutoff=30.0
            )
            g0 = tree_propagators(med, c)
            slopes.append(np.max(np.abs(g0.ax)) / alpha)
        assert slopes[0] == pytest.approx(slopes[1], rel=1e-6)

    def test_reciprocity(self, lossy):
        # G0_AX = G0_XA^T on every sample of a stack
        for n in (3, 4):
            k, w, gam = _samples(lossy, np.linspace(0.4, 1.6, n), ks=(1.3,))
            g0 = _tree_propagators(lossy, k, w, gam)
            assert g0.ax.shape == (n, 3, 3)
            assert np.array_equal(g0.ax, np.swapaxes(g0.xa, -1, -2))


class TestVertex:
    def test_zero_coupling(self, lossy):
        v = vertex(np.zeros((3, 3, 3, 3)), 0.5, 0.8, np.eye(3, dtype=complex))
        assert np.all(v == 0.0)

    def test_alpha_zero_keeps_matter_class(self, lossy):
        lam0 = lambda0_tensor(lambda_isotropic(0.3, 0.2, 0.1), lossy, 0.8, 0.8, 0.8, 0.8)
        v = vertex(lam0, 0.0, 0.8, np.eye(3, dtype=complex))
        assert np.allclose(v, lam0)

    def test_scalar_three_class_weights(self, lossy):
        # independent hand expansion: isotropic D = d*I makes each
        # converted leg multiply by x = alpha*w*d; classes weigh 1, 4, 1
        lam0 = lambda0_tensor(lambda_isotropic(0.3, 0.2, 0.1), lossy, 0.8, 0.8, 0.8, 0.8)
        d = (0.7 - 0.2j) * np.eye(3)
        alpha, w = 0.45, 0.8
        x = alpha * w * (0.7 - 0.2j)
        v = vertex(lam0, alpha, w, d)
        pair_sum = np.zeros_like(lam0)
        for i, j in ((0, 1), (0, 3), (2, 1), (2, 3)):
            term = lam0.copy()
            term = np.moveaxis(np.tensordot(x * np.eye(3), term, axes=([1], [i])), 0, i)
            term = np.moveaxis(np.tensordot(x * np.eye(3), term, axes=([1], [j])), 0, j)
            pair_sum = pair_sum + term
        expected = lam0 + pair_sum + x**4 * lam0
        assert np.allclose(v, expected, rtol=1e-13)
        assert np.allclose(v, lam0 * (1.0 + 4.0 * x**2 + x**4), rtol=1e-13)


class TestSelfEnergy:
    def test_zero_coupling(self, loop_toy):
        res = self_energy(loop_toy, np.zeros((3, 3, 3, 3)), 0.7, LoopQuadrature(256, 10.0))
        assert np.all(res.value == 0.0)

    def test_vacuum(self):
        vac = MediumParams(omega0=1.0, chi_s=1.0, alpha=0.3, rho=1.0, g=0, loop_cutoff=30.0)
        res = self_energy(vac, lambda_isotropic(0.1, 0.2, 0.1), 0.7, LoopQuadrature(256, 10.0))
        assert np.all(res.value == 0.0)

    def test_lossless_closed_form_window(self, lossless):
        # alpha = 0 reduces the integrand to the bare Lorentzian; its
        # antiderivative is 2 eps0 w0 chi_s atanh(W/w0) on [-W, W]
        med = MediumParams(omega0=1.0, chi_s=1.0, alpha=0.0, rho=1.0, nu=NuZero(), loop_cutoff=30.0)
        lam = lambda_isotropic(0.2, 0.1, 0.05)
        w_ext = 0.3
        cut = 0.5
        res = self_energy(med, lam, w_ext, LoopQuadrature(4096, cut))
        lam0 = lambda0_tensor(lam, med, w_ext, w_ext, w_ext, w_ext)
        integral = 2.0 * med.eps0 * med.omega0 * med.chi_s * math.atanh(cut / med.omega0)
        expected = integral / (2.0 * math.pi) * np.einsum("abbg->ag", lam0)
        assert np.allclose(res.value, expected, rtol=1e-6)

    def test_estimates_decrease_with_cutoff(self, loop_toy):
        lam = lambda_isotropic(0.1, 0.2, 0.1)
        estimates = []
        for cut in (10.0, 20.0, 40.0):
            res = self_energy(loop_toy, lam, 0.7, LoopQuadrature(int(100 * cut), cut))
            estimates.append(res.error_estimate)
        assert estimates[0] > estimates[1] > estimates[2]

    def test_not_converged_raises(self, loop_toy):
        lam = lambda_isotropic(0.1, 0.2, 0.1)
        with pytest.raises(LoopConvergenceError, match="loop integral not converged at this cutoff"):
            self_energy(loop_toy, lam, 0.7, LoopQuadrature(64, 2.0))

    def test_minimum_nodes(self):
        with pytest.raises(InputError):
            LoopQuadrature(32, 10.0)


class TestFactoredLoop:
    """The factored loop against the per-node rank-4 contraction."""

    @pytest.mark.parametrize("n, cutoff", [(8192, 12.0), (97, 0.75), (1023, 3.3)])
    def test_windows_are_mirrored(self, n, cutoff):
        windows = _loop_windows(LoopQuadrature(n, cutoff))
        specs = [(cutoff, n), (cutoff, n // 2), (cutoff / 2.0, n // 2 + 1)]
        for nodes, (half_width, count) in zip(windows, specs):
            assert np.array_equal(nodes, -nodes[::-1])
            if count % 2:
                assert nodes[count // 2] == 0.0
            # the spacing of the np.linspace window, to a few ulps
            spacing = np.diff(np.linspace(-half_width, half_width, count))
            assert np.max(np.abs(np.diff(nodes) - spacing)) <= 4.0 * np.spacing(half_width)
        if n == 8192:
            magnitudes = np.abs(np.concatenate(windows))
            assert np.unique(magnitudes[magnitudes > 0.0]).size == 8191

    # the lossless window stays below the undamped resonance at W = omega0
    @pytest.mark.parametrize(
        "name, quad",
        [
            ("lossy", LoopQuadrature(1024, 12.0)),
            ("lossless", LoopQuadrature(256, 0.5)),
            ("vacuum", LoopQuadrature(256, 10.0)),
            ("smooth_lossy", LoopQuadrature(1024, 12.0)),
        ],
    )
    @pytest.mark.parametrize("omega", [0.3, 0.9, 1.4])
    def test_matches_per_node_oracle(self, request, name, quad, omega):
        medium = request.getfixturevalue(name)
        lam = lambda_isotropic(0.25, 0.4, 0.35)
        ref = self_energy_per_node(medium, lam, omega, quad)
        got = self_energy(medium, lam, omega, quad)
        # the error terms are differences of value-sized matrices, so their
        # rounding is bounded by the value scale, not by their own size
        scale = float(np.max(np.abs(ref.value)))
        assert np.max(np.abs(got.value - ref.value)) <= 1e-13 * scale
        assert abs(got.discretization_error - ref.discretization_error) <= 1e-13 * scale
        assert abs(got.tail_error - ref.tail_error) <= 1e-13 * scale
        assert got.error_estimate == got.discretization_error + got.tail_error
        if name == "vacuum":
            assert np.all(got.value == 0.0) and got.error_estimate == 0.0

    @pytest.mark.parametrize("name", ["lossless", "lossy"])
    def test_gate_fires_like_per_node_oracle(self, request, name):
        # undamped resonance inside the window; too few nodes for the lossy kernel
        quad = LoopQuadrature(1024, 12.0) if name == "lossless" else LoopQuadrature(64, 12.0)
        medium = request.getfixturevalue(name)
        lam = lambda_isotropic(0.25, 0.4, 0.35)
        with pytest.raises(LoopConvergenceError):
            self_energy_per_node(medium, lam, 0.9, quad)
        with pytest.raises(LoopConvergenceError):
            self_energy(medium, lam, 0.9, quad)

    def test_singular_matter_block_raises(self):
        # eps0 - g alpha**2 Gamma(W) is exactly 0 at the node W = 0.5:
        # Gamma(0.5) = 3 / 0.75 = 4 and alpha**2 = 0.25
        medium = MediumParams(omega0=1.0, chi_s=3.0, alpha=0.5, rho=1.0, nu=NuZero(), loop_cutoff=30.0)
        quad = LoopQuadrature(97, 0.75)
        assert np.linspace(-0.75, 0.75, 97)[80] == 0.5
        lam = lambda_isotropic(0.25, 0.4, 0.35)
        with pytest.raises(np.linalg.LinAlgError):
            self_energy_per_node(medium, lam, 0.9, quad)
        with pytest.raises(PropagatorPoleError, match=r"loop node \|W\| = 0\.5$"):
            self_energy(medium, lam, 0.9, quad)


class TestDyson:
    def test_zero_self_energy_identity(self, lossy):
        g0 = tree_propagators(lossy, ctx(1.3, 0.8))
        dressed = dyson_dress(g0, np.zeros((3, 3)))
        for block in ("aa", "ax", "xa", "xx"):
            assert np.all(getattr(dressed.single, block) == getattr(g0, block))
            assert np.all(getattr(dressed.resummed, block) == getattr(g0, block))

    def test_single_insertion_structure(self, lossy):
        g0 = tree_propagators(lossy, ctx(1.3, 0.8))
        pi = 0.01 * (np.eye(3) + 0.5j * np.eye(3))
        dressed = dyson_dress(g0, pi)
        expected_aa = g0.aa + g0.ax @ (1j * pi) @ g0.xa
        assert np.allclose(dressed.single.aa, expected_aa, rtol=1e-14)

    def test_quadratic_difference_scaling(self, lossy):
        g0 = tree_propagators(lossy, ctx(1.3, 0.8))
        pi = 0.05 * (np.eye(3) + 0.3j * np.eye(3))
        scales = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        diffs = []
        for s in scales:
            dressed = dyson_dress(g0, s * pi)
            diffs.append(
                max(
                    np.max(np.abs(getattr(dressed.resummed, b) - getattr(dressed.single, b)))
                    for b in ("aa", "ax", "xa", "xx")
                )
            )
        slope = np.polyfit(np.log(scales), np.log(diffs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.05)

    def test_resummation_pole_raises(self, lossy):
        g0 = tree_propagators(lossy, ctx(1.3, 0.8))
        # engineer (1 - G0_XX i Pi) singular: i Pi = G0_XX^-1 on one axis
        inv = np.linalg.inv(g0.xx)
        pi = -1j * inv
        with pytest.raises(DysonPoleError, match="Dyson resummation pole"):
            dyson_dress(g0, pi)


def _samples(medium, omegas, ks=(0.0, 1.3)):
    """Sample arrays (k outer) with gamma, as the CLI builds them."""
    k = np.repeat(np.asarray(ks), omegas.size)
    w = np.tile(omegas, len(ks))
    return k, w, gamma_response(medium, w) if medium.g else None


# media with a loop that converges on them, and a frequency range clear of their poles
_MEDIA = [
    ("lossy", LoopQuadrature(1024, 12.0), 3.0),
    ("lossless", LoopQuadrature(256, 0.5), 0.8),
    ("vacuum", LoopQuadrature(256, 10.0), 1.2),
    ("smooth_lossy", LoopQuadrature(1024, 12.0), 3.0),
]


class TestBatchedFieldSpace:
    """The array path: rows against the one-sample functions, symmetries, the Dyson equation, the 3x3 oracle."""

    @pytest.mark.parametrize("name, quad, top", _MEDIA)
    def test_batch_rows_equal_one_sample_functions(self, request, name, quad, top):
        medium = request.getfixturevalue(name)
        rng = np.random.default_rng(5)
        omegas = np.concatenate([rng.uniform(0.005, top, 9), -rng.uniform(0.005, top, 4)])
        k, w, gam = _samples(medium, omegas)
        g0 = _tree_propagators(medium, k, w, gam)
        pi = self_energy(medium, ANISOTROPIC, w, quad)
        dressed = dyson_dress(g0, pi.value)
        for i in range(w.size):
            c = ctx(float(k[i]), float(w[i]))
            one = tree_propagators(medium, c)
            one_pi = self_energy(medium, ANISOTROPIC, float(w[i]), quad)
            one_dressed = dyson_dress(one, one_pi.value)
            assert photon_green(medium, c).tobytes() == g0.aa[i].tobytes()
            assert one_pi.value.tobytes() == pi.value[i].tobytes()
            assert one_pi.discretization_error == pi.discretization_error[i]
            assert one_pi.tail_error == pi.tail_error[i]
            for block in BLOCKS:
                assert getattr(one, block).tobytes() == getattr(g0, block)[i].tobytes()
                for form in ("single", "resummed"):
                    got = getattr(getattr(dressed, form), block)[i]
                    assert getattr(getattr(one_dressed, form), block).tobytes() == got.tobytes()

    @pytest.mark.parametrize("name, quad, top", _MEDIA)
    def test_tree_blocks_under_frequency_reversal(self, request, name, quad, top):
        medium = request.getfixturevalue(name)
        omegas = np.linspace(0.005, top, 23)
        k, w, gam = _samples(medium, np.concatenate([omegas, -omegas]))
        g0 = _tree_propagators(medium, k, w, gam)
        plus = np.concatenate([np.arange(23), 46 + np.arange(23)])
        minus = plus + 23
        # AA and XX are even: G0(-w) = conj G0(w); the mixing blocks are odd
        for block in ("aa", "xx"):
            assert np.array_equal(getattr(g0, block)[minus], np.conj(getattr(g0, block)[plus]))
        for block in ("ax", "xa"):
            assert np.array_equal(getattr(g0, block)[minus], -np.conj(getattr(g0, block)[plus]))
        assert g0.ax.tobytes() == g0.xa.tobytes()

    @pytest.mark.parametrize("source", ["loop", "random"])
    def test_dyson_equation(self, lossy, source):
        # G = G0 + G0 Sigma G with Sigma = i Pi in the XX block, to rounding
        # times the condition number of the resummation matrix; the residual
        # is measured against |1 - G0 Sigma| |G| + |G0|, as for a linear solve
        rng = np.random.default_rng(6)
        k, w, gam = _samples(lossy, np.geomspace(0.005, 3.0, 20))
        g0 = _tree_propagators(lossy, k, w, gam)
        if source == "loop":
            pi = self_energy(lossy, ANISOTROPIC, w, LoopQuadrature(1024, 12.0)).value
        else:
            pi = rng.normal(size=(w.size, 3, 3)) + 1j * rng.normal(size=(w.size, 3, 3))
        g = dyson_dress(g0, pi).resummed

        def full(m):
            return np.block([[m.aa, m.ax], [m.xa, m.xx]])

        sigma = np.zeros((w.size, 6, 6), dtype=complex)
        sigma[:, 3:, 3:] = 1j * pi
        residual = full(g) - full(g0) - full(g0) @ sigma @ full(g)

        def norm(m):
            return np.linalg.norm(m, 2, axis=(1, 2))

        scale = norm(np.eye(6) - full(g0) @ sigma) * norm(full(g)) + norm(full(g0))
        cond = np.linalg.cond(np.eye(3) - g0.xx @ (1j * pi))
        assert np.all(norm(residual) <= 64.0 * np.finfo(float).eps * cond * scale)

    @pytest.mark.parametrize("name, quad, top", _MEDIA)
    @pytest.mark.parametrize("coupling", ["isotropic", "anisotropic"])
    def test_matches_per_sample_oracle(self, request, name, quad, top, coupling):
        # the 3x3 path of the oracle: kernels built term by term, LAPACK
        # inverses, the general vertex per frequency, a Dyson step per sample
        medium = request.getfixturevalue(name)
        lam = lambda_isotropic(0.25, 0.4, 0.35) if coupling == "isotropic" else ANISOTROPIC
        k, w, gam = _samples(medium, np.geomspace(0.005, top, 8))
        g0 = _tree_propagators(medium, k, w, gam)
        pi = self_energy(medium, lam, w, quad)
        dressed = dyson_dress(g0, pi.value)
        for i in range(w.size):
            c = ctx(float(k[i]), float(w[i]))
            ref = tree_propagators_per_sample(medium, c)
            ref_pi = self_energy_per_node(medium, lam, float(w[i]), quad)
            assert np.max(np.abs(pi.value[i] - ref_pi.value)) <= 1e-13 * np.max(np.abs(ref_pi.value))
            for block in BLOCKS:
                tree = getattr(ref, block)
                assert np.max(np.abs(getattr(g0, block)[i] - tree)) <= 1e-13 * np.max(np.abs(tree))
            ref_dressed = dyson_dress_per_sample(ref, ref_pi.value)
            ipi = 1j * ref_pi.value
            middles = {"single": ipi, "resummed": ipi @ np.linalg.inv(np.eye(3) - ref.xx @ ipi)}
            for form, middle in middles.items():
                for block in BLOCKS:
                    # a dressed block is a sum G0 + G0 M G0 that cancels at
                    # small w, where |Pi| grows as w**-4: the error is bounded
                    # by the magnitude of its terms, not of the sum
                    left, right = getattr(ref, block[0] + "x"), getattr(ref, "x" + block[1])
                    terms = np.max(np.abs(getattr(ref, block))) + np.max(np.abs(left @ middle @ right))
                    got = getattr(getattr(dressed, form), block)[i]
                    want = getattr(getattr(ref_dressed, form), block)
                    assert np.max(np.abs(got - want)) <= 1e-13 * terms


def analytic_sigma(medium, z, n=60_000):
    """Upper-half-plane continuation of the reservoir kernel."""
    upper = medium.loop_cutoff
    x = np.linspace(0.0, upper, n)
    q = medium.nu.q(x)
    return (z * z / medium.rho) * np.trapezoid(q / (x * x - z * z), x)


def analytic_gxx(medium, lam_scalar, z, pi_scale):
    """Scalar resummed matter propagator continued to complex frequency."""
    w0sq = medium.omega0**2
    sig = analytic_sigma(medium, z)
    gam = medium.eps0 * w0sq * medium.chi_s / (w0sq - z * z - z * z * w0sq * medium.eps0 * medium.chi_s * sig)
    m = medium.eps0 - medium.g * medium.alpha**2 * gam
    g0xx = gam + medium.alpha**2 * gam * gam / m
    pi = pi_scale * lam_scalar * gam  # one-loop shape: vertex times internal line
    return g0xx / (1.0 - 1j * pi * g0xx)


class TestCausalityProxy:
    def test_no_upper_half_poles_of_resummed_gxx(self, lossy):
        # argument-principle winding of 1 - i Pi G0_XX around an upper
        # half-plane rectangle; zero net winding means no dressed poles
        lam_scalar = 0.15
        pi_scale = 0.05
        corners = [0.2 + 0.05j, 2.5 + 0.05j, 2.5 + 1.5j, 0.2 + 1.5j, 0.2 + 0.05j]
        samples = []
        for a, b in zip(corners[:-1], corners[1:]):
            seg = a + (b - a) * np.linspace(0.0, 1.0, 400, endpoint=False)
            samples.extend(seg)
        samples.append(corners[0])
        vals = []
        for z in samples:
            sig = analytic_sigma(lossy, z, n=8000)
            w0sq = lossy.omega0**2
            gam = lossy.eps0 * w0sq * lossy.chi_s / (
                w0sq - z * z - z * z * w0sq * lossy.eps0 * lossy.chi_s * sig
            )
            m = lossy.eps0 - lossy.g * lossy.alpha**2 * gam
            g0xx = gam + lossy.alpha**2 * gam * gam / m
            vals.append(1.0 - 1j * (pi_scale * lam_scalar * gam) * g0xx)
        phases = np.unwrap(np.angle(np.asarray(vals)))
        winding = (phases[-1] - phases[0]) / (2.0 * math.pi)
        assert round(winding) == 0
