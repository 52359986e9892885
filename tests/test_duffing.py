import math

import numpy as np
import pytest

from conftest import compare_chi3_long_run
from nlmedium.duffing import (
    DuffingParams,
    _drive_ladder,
    _energy_balance,
    compare_chi3,
    duffing_from_medium,
    harmonic_amplitudes,
    perturbative_reference,
    simulate,
)
from nlmedium.errors import (
    DivergenceError,
    InputError,
    RegimeError,
    ResonantHarmonicError,
    WindowAlignmentError,
)
from nlmedium.medium import MediumParams, NuConstant


def step_for(params, samples_per_period=400):
    period = 2.0 * math.pi / params.drive_freq
    spp = max(samples_per_period, int(math.ceil(period * max(params.omega0, params.drive_freq) / 0.04)))
    return period / spp, period


@pytest.fixture
def weak_drive():
    return DuffingParams(omega0=1.0, gamma_damp=0.02, eta=-0.8, drive_amp=0.02, drive_freq=0.24)


class TestSimulate:
    def test_linear_steady_state(self):
        p = DuffingParams(omega0=1.0, gamma_damp=0.05, eta=0.0, drive_amp=0.1, drive_freq=0.4)
        dt, period = step_for(p)
        traj = simulate(p, 400 * period, dt)
        spec = harmonic_amplitudes(traj, p.drive_freq, 3)
        pred = p.drive_amp / (p.omega0**2 - p.drive_freq**2 + 1j * p.gamma_damp * p.drive_freq)
        assert abs(spec[1]) == pytest.approx(abs(pred), rel=1e-6)
        assert spec[1] == pytest.approx(pred, rel=1e-6)
        assert abs(spec[3]) < 1e-10

    def test_undriven_decay(self):
        p = DuffingParams(omega0=1.0, gamma_damp=0.3, eta=0.0, drive_amp=0.0, drive_freq=0.5)
        traj = simulate(p, 400.0, 0.01, x0=1.0)
        assert np.max(np.abs(traj.x)) < 1e-12

    def test_third_harmonic_appears(self, weak_drive):
        dt, period = step_for(weak_drive)
        traj = simulate(weak_drive, 120 * period, dt)
        spec = harmonic_amplitudes(traj, weak_drive.drive_freq, 3)
        assert abs(spec[3]) > 1e-9
        assert abs(spec[3]) < abs(spec[1])

    def test_divergence_guard(self):
        # softening cubic with a strong drive runs away within a few cycles
        p = DuffingParams(omega0=1.0, gamma_damp=0.0, eta=-5.0, drive_amp=5.0, drive_freq=0.9)
        with pytest.raises(DivergenceError, match="driven beyond perturbative regime"):
            simulate(p, 4000.0, 0.02)

    def test_step_validation(self, weak_drive):
        with pytest.raises(InputError):
            simulate(weak_drive, 100.0, 1.0)

    def test_fourth_order_convergence(self):
        p = DuffingParams(omega0=1.0, gamma_damp=0.1, eta=0.3, drive_amp=0.2, drive_freq=0.7)
        t_end = 40.0

        def endpoint(dt):
            n = int(round(t_end / dt))
            traj = simulate(p, t_end, dt)
            return traj.x[-1]

        ref = endpoint(0.0025)
        err_coarse = abs(endpoint(0.02) - ref)
        err_fine = abs(endpoint(0.01) - ref)
        assert err_coarse / err_fine == pytest.approx(16.0, rel=0.2)


class TestHarmonics:
    def test_pure_cosine(self):
        wd = 0.8
        period = 2.0 * math.pi / wd
        t = np.linspace(0.0, 10 * period, 4001)
        x = 0.7 * np.cos(wd * t)
        from nlmedium.duffing import Trajectory

        spec = harmonic_amplitudes(Trajectory(t=t, x=x, v=np.zeros_like(t)), wd, 4)
        assert spec[1] == pytest.approx(0.7, abs=1e-8)
        for n in (2, 3, 4):
            assert abs(spec[n]) < 1e-8

    def test_misaligned_window(self):
        wd = 1.0
        t = np.linspace(0.0, 0.5 * 2.0 * math.pi, 100)  # half a period
        from nlmedium.duffing import Trajectory

        with pytest.raises(WindowAlignmentError, match="window misaligned"):
            harmonic_amplitudes(Trajectory(t=t, x=np.cos(t), v=np.zeros_like(t)), wd, 2)


class TestPerturbativeReference:
    def test_zero_eta(self):
        p = DuffingParams(omega0=1.0, gamma_damp=0.01, eta=0.0, drive_amp=0.1, drive_freq=0.2)
        assert perturbative_reference(p) == 0.0

    def test_undamped_arithmetic(self):
        # wd = w0/2: ratio = -eta / (4 (w0^2 - 9 w0^2/4)) = +eta/(5 w0^2)
        p = DuffingParams(omega0=1.0, gamma_damp=0.0, eta=0.6, drive_amp=0.1, drive_freq=0.5)
        assert perturbative_reference(p) == pytest.approx(0.6 / 5.0)

    def test_linear_in_eta(self):
        p1 = DuffingParams(omega0=1.0, gamma_damp=0.01, eta=0.3, drive_amp=0.1, drive_freq=0.2)
        p2 = DuffingParams(omega0=1.0, gamma_damp=0.01, eta=0.6, drive_amp=0.1, drive_freq=0.2)
        assert perturbative_reference(p2) == pytest.approx(2.0 * perturbative_reference(p1))

    def test_resonant_harmonic_guard(self):
        p = DuffingParams(omega0=1.0, gamma_damp=0.05, eta=0.3, drive_amp=0.1, drive_freq=0.34)
        with pytest.raises(ResonantHarmonicError, match="third harmonic resonant"):
            perturbative_reference(p)


@pytest.fixture
def oracle_medium():
    return MediumParams(
        omega0=1.0, chi_s=1.0, alpha=0.5, rho=0.8, nu=NuConstant(0.1, 6.0), loop_cutoff=30.0
    )


class TestCompare:
    def test_mapping(self, oracle_medium):
        from nlmedium.nonlinear import lambda_isotropic

        lam = lambda_isotropic(0.05, 0.08, 0.05)
        p = duffing_from_medium(oracle_medium, lam, 0.24, 0.0)
        assert p.gamma_damp == pytest.approx(math.pi * 0.01 / (2.0 * 0.8), rel=1e-12)
        assert p.eta == pytest.approx(-4.0 * lam[0, 0, 0, 0], rel=1e-12)

    def test_ladder_report(self, oracle_medium):
        from nlmedium.nonlinear import lambda_isotropic

        lam = lambda_isotropic(0.05, 0.08, 0.05)
        rep = compare_chi3(oracle_medium, lam, drive_freq=0.24, ladder=5)
        assert 2.99 <= rep.scaling_exponent <= 3.01
        assert abs(rep.ratio_to_reference - 1.0) < 0.05
        assert abs(rep.ratio_to_displacement - 1.0) < 0.05
        assert rep.energy_balance_error < 0.005
        assert rep.to_dict()["tolerance_pass"] is True


class TestPeriodicOrbit:
    """The drive ladder of ``compare_chi3`` solved as periodic orbits."""

    @pytest.fixture
    def lam(self):
        from nlmedium.nonlinear import lambda_isotropic

        return lambda_isotropic(0.05, 0.08, 0.05)

    def test_rungs_match_long_run(self, oracle_medium, lam):
        rep_long, spectra_long = compare_chi3_long_run(oracle_medium, lam, drive_freq=0.24, ladder=5)
        params0, rungs = _drive_ladder(oracle_medium, lam, 0.24, 5, None, 160)
        for (_, orbit), long in zip(rungs, spectra_long, strict=True):
            spec = harmonic_amplitudes(orbit, 0.24, 3)
            assert abs(spec[1] / long[1] - 1.0) <= 1e-7
        rep = compare_chi3(oracle_medium, lam, drive_freq=0.24, ladder=5)
        assert rep.energy_balance_error == max(_energy_balance(orbit, p) for p, orbit in rungs)
        assert abs(rep.ratio_to_reference - rep_long.ratio_to_reference) < 2e-3
        assert abs(rep.scaling_exponent - rep_long.scaling_exponent) < 5e-3

    def test_harmonic_balance_deviation_is_order_a1_squared(self, oracle_medium, lam):
        # with no residual transient, A3/A1**3 departs from first-order
        # harmonic balance by the next order only, which grows as A1**2:
        # x4 per doubling of the drive
        params0, rungs = _drive_ladder(oracle_medium, lam, 0.24, 5, None, 160)
        reference = perturbative_reference(params0)
        devs = []
        for _, orbit in rungs:
            spec = harmonic_amplitudes(orbit, 0.24, 3)
            devs.append(abs(spec[3] / spec[1] ** 3 / reference - 1.0))
        for weak, strong in zip(devs, devs[1:]):
            assert 3.9 <= strong / weak <= 4.1

    def test_ladder_integrates_few_periods(self, oracle_medium, lam, monkeypatch):
        import nlmedium.duffing as duffing

        runs = []
        core = duffing._rk4

        def counted(params, dt, n_steps, x, v, keep_from):
            runs.append(n_steps)
            return core(params, dt, n_steps, x, v, keep_from)

        monkeypatch.setattr(duffing, "_rk4", counted)
        compare_chi3(oracle_medium, lam, drive_freq=0.24, ladder=5)
        assert len(runs) <= 35
        assert len(set(runs)) == 1  # every run is one drive period

    def test_strongly_nonlinear_ladder_converges(self, oracle_medium, lam):
        # near resonance the top rungs land far from the doubled warm start;
        # the long run passes here, and so must the orbit solve
        rep = compare_chi3(oracle_medium, lam, drive_freq=1.1, ladder=5, base_amp=0.01)
        assert rep.to_dict()["tolerance_pass"] is True

    def test_orbit_nonconvergence_raises(self, oracle_medium):
        from nlmedium.nonlinear import lambda_isotropic

        # a strongly hardening oscillator driven far outside the cubic
        # regime: bounded, but no orbit within 12 chord steps of the linear start
        lam = lambda_isotropic(-0.5, 0.08, 0.05)
        with pytest.raises(RegimeError, match="periodic orbit did not converge"):
            compare_chi3(oracle_medium, lam, drive_freq=0.7, ladder=5, base_amp=1.0)

    def test_chord_overshoot_is_nonconvergence(self, oracle_medium):
        from nlmedium.nonlinear import lambda_isotropic

        # the oscillator hardens and stays bounded, and the long run gives
        # up on the same input as outside the cubic regime; a chord step
        # from the far warm start that trips the amplitude guard is the
        # solve failing, not the oscillator diverging
        lam = lambda_isotropic(-0.5, 0.08, 0.05)
        assert duffing_from_medium(oracle_medium, lam, 0.24, 0.0).eta > 0
        with pytest.raises(RegimeError):
            compare_chi3_long_run(oracle_medium, lam, drive_freq=0.24, base_amp=3.0)
        with pytest.raises(RegimeError, match="periodic orbit did not converge"):
            compare_chi3(oracle_medium, lam, drive_freq=0.24, base_amp=3.0)
