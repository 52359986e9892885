"""Time-domain cross-check: driven, damped oscillator with cubic stiffness.

    x'' + gamma x' + omega0**2 x + eta x**3 = F0 cos(wd t)

integrated with fixed-step RK4 for reproducible spectra.  A weak drive
produces a third-harmonic line whose amplitude obeys the first-order
harmonic-balance ratio

    A3 / A1**3 = -eta / (4 (omega0**2 - 9 wd**2 + 3 i gamma wd)),

in the convention fixed by ``harmonic_amplitudes`` (coefficients of
exp(+i n wd t); the drive is F0 cos(wd t)).  ``compare_chi3`` maps the
medium and coupling onto oscillator constants, runs a geometric drive
ladder, and reports the cubic-scaling exponent plus the measured ratio
against both the harmonic-balance reference and the comb-path prediction.

The ladder does not wait for transients to decay.  Each rung's steady
state is the fixed point of the one-period RK4 map, found by shooting
(``_periodic_orbit``), and its harmonics and energy balance are read over
that one period.  ``simulate`` and the period map share one RK4 core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .displacement import FrequencyComb, displacement
from .errors import (
    DivergenceError,
    InputError,
    RegimeError,
    ResonantHarmonicError,
    WindowAlignmentError,
)
from .medium import MediumParams, _gamma_scalar, _sigma_values

__all__ = [
    "DuffingParams",
    "Trajectory",
    "HarmonicSpectrum",
    "simulate",
    "harmonic_amplitudes",
    "perturbative_reference",
    "duffing_from_medium",
    "CompareReport",
    "compare_chi3",
]


@dataclass(frozen=True)
class DuffingParams:
    """Scalar oscillator constants (see ``duffing_from_medium``)."""

    omega0: float
    gamma_damp: float
    eta: float
    drive_amp: float
    drive_freq: float
    coupling: float = 1.0

    def __post_init__(self):
        if self.omega0 <= 0 or self.drive_freq <= 0:
            raise InputError("omega0 and drive_freq must be positive")
        if self.gamma_damp < 0 or self.drive_amp < 0:
            raise InputError("damping and drive amplitude must be non-negative")


@dataclass(frozen=True)
class Trajectory:
    """Samples of an integration window.

    The last quarter of a ``simulate`` run, or the one drive period from
    t = 0 of a periodic orbit (``compare_chi3``).
    """

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class HarmonicSpectrum:
    """Complex amplitude per harmonic index of the drive frequency."""

    amplitudes: dict

    def __getitem__(self, n: int) -> complex:
        return self.amplitudes[n]


def _rk4(params: DuffingParams, dt: float, n_steps: int, x: float, v: float, keep_from: int) -> Trajectory:
    """The one fixed-step RK4 core: ``n_steps`` steps of ``dt`` from t = 0.

    Returns the samples from step ``keep_from`` on, the final state
    included.  The amplitude guard aborts when |x| exceeds
    1e6 * F0 / omega0**2 (skipped for an undriven oscillator).
    """
    w0sq = params.omega0**2
    gam = params.gamma_damp
    eta = params.eta
    f0 = params.drive_amp
    wd = params.drive_freq
    guard = 1e6 * f0 / w0sq if f0 > 0 else math.inf

    def acc(t, x, v):
        return f0 * math.cos(wd * t) - gam * v - w0sq * x - eta * x**3

    ts, xs, vs = [], [], []
    t = 0.0
    for step in range(n_steps + 1):
        if step >= keep_from:
            ts.append(t)
            xs.append(x)
            vs.append(v)
        if step == n_steps:
            break
        a1 = acc(t, x, v)
        k1x, k1v = v, a1
        k2x = v + 0.5 * dt * k1v
        k2v = acc(t + 0.5 * dt, x + 0.5 * dt * k1x, k2x)
        k3x = v + 0.5 * dt * k2v
        k3v = acc(t + 0.5 * dt, x + 0.5 * dt * k2x, k3x)
        k4x = v + dt * k3v
        k4v = acc(t + dt, x + dt * k3x, k4x)
        x = x + dt * (k1x + 2 * k2x + 2 * k3x + k4x) / 6.0
        v = v + dt * (k1v + 2 * k2v + 2 * k3v + k4v) / 6.0
        t += dt
        if abs(x) > guard:
            raise DivergenceError("driven beyond perturbative regime")
    return Trajectory(t=np.asarray(ts), x=np.asarray(xs), v=np.asarray(vs))


def simulate(params: DuffingParams, t_end: float, dt: float, x0: float = 0.0, v0: float = 0.0) -> Trajectory:
    """Fixed-step RK4 integration; returns the final 25% of the run.

    The step must resolve both the resonance and the drive
    (dt < 0.05 / max(omega0, wd)); the amplitude guard aborts when |x|
    exceeds 1e6 * F0 / omega0**2 (skipped for an undriven oscillator).
    """
    if dt >= 0.05 / max(params.omega0, params.drive_freq):
        raise InputError("time step too large for the fastest scale")
    if t_end <= 0:
        raise InputError("t_end must be positive")
    n_steps = int(round(t_end / dt))
    return _rk4(params, dt, n_steps, x0, v0, int(0.75 * n_steps))


def _periodic_orbit(params: DuffingParams, spp: int, z0) -> Trajectory:
    """Periodic steady state, by shooting on the one-period RK4 map P.

    The orbit is the fixed point of P(z), z = (x, v) at t = 0, integrated
    over one drive period in ``spp`` steps (Nayfeh & Balachandran,
    *Applied Nonlinear Dynamics*, 1995).  Chord-Newton steps
    z <- z - B^-1 (P(z) - z) start from B = J - I, with the 2x2 Jacobian
    J of P taken once, by forward differences at the start ``z0``.  After
    each step B takes Broyden's rank-one update, which costs no
    integration and keeps strongly nonlinear rungs from stalling on a
    stale J.  The steps stop when max|P(z) - z| <= 1e-13 max|x| over the
    period.  Returns the samples of that last period; raises
    ``RegimeError`` after 12 steps without convergence, or when a chord
    step lands where the run trips the amplitude guard.  A trip from the
    start ``z0`` stays ``DivergenceError``.
    """
    wd = params.drive_freq
    dt = 2.0 * math.pi / wd / spp

    def period_map(z):
        orbit = _rk4(params, dt, spp, z[0], z[1], 0)
        return orbit, np.array([orbit.x[-1], orbit.v[-1]])

    z = np.array(z0, dtype=float)
    chord = None
    for trial in range(13):  # the start and 12 chord steps
        try:
            orbit, end = period_map(z)
        except DivergenceError:
            if trial == 0:
                raise
            # a chord step overshot the amplitude guard: the solve failed,
            # which says nothing about the orbit being bounded
            raise RegimeError("periodic orbit did not converge") from None
        res = end - z
        if np.max(np.abs(res)) <= 1e-13 * np.max(np.abs(orbit.x)):
            return orbit
        if chord is None:
            # difference steps in x and v scaled to the orbit (v ~ wd x)
            h = 1e-6 * max(abs(z[0]), abs(z[1]) / wd, params.drive_amp / params.omega0**2)
            chord = -np.eye(2)
            for col, dz in enumerate((h, h * wd)):
                shifted = z.copy()
                shifted[col] += dz
                chord[:, col] += (period_map(shifted)[1] - end) / dz
        else:
            # Broyden: B += (dF - B s) s^T / s.s, and B s = -F at the last z
            chord += np.outer(res, step) / (step @ step)
        step = -np.linalg.solve(chord, res)
        z = z + step
    raise RegimeError("periodic orbit did not converge")


def _trim_to_periods(t: np.ndarray, omega_d: float):
    period = 2.0 * math.pi / omega_d
    span = t[-1] - t[0]
    n_per = int(math.floor(span / period + 1e-6))
    if n_per < 1:
        raise WindowAlignmentError("window misaligned")
    target = n_per * period
    idx = int(np.searchsorted(t, t[0] + target, side="left"))
    best = min(
        (i for i in (idx - 1, idx, idx + 1) if 0 <= i < t.size),
        key=lambda i: abs((t[i] - t[0]) - target),
    )
    misalign = abs((t[best] - t[0]) - target) / period
    if misalign > 1e-3:
        raise WindowAlignmentError("window misaligned")
    return best


def harmonic_amplitudes(trajectory: Trajectory, omega_d: float, n_max: int) -> HarmonicSpectrum:
    """Drive-harmonic amplitudes A_n = (2/T) int x(t) exp(-i n wd t) dt.

    The window is trimmed to an integer number of drive periods; residual
    misalignment beyond 0.1% of a period raises ``WindowAlignmentError``.
    """
    t = trajectory.t
    x = trajectory.x
    idx = _trim_to_periods(t, omega_d)
    tw = t[: idx + 1]
    xw = x[: idx + 1]
    width = tw[-1] - tw[0]
    amps = {}
    for n in range(1, n_max + 1):
        kernel = xw * np.exp(-1j * n * omega_d * tw)
        amps[n] = complex(2.0 * np.trapezoid(kernel, tw) / width)
    return HarmonicSpectrum(amplitudes=amps)


def perturbative_reference(params: DuffingParams) -> complex:
    """First-order harmonic-balance prediction for A3 / A1**3."""
    if abs(params.omega0 - 3.0 * params.drive_freq) < 10.0 * params.gamma_damp:
        raise ResonantHarmonicError("third harmonic resonant; perturbation theory invalid")
    den = params.omega0**2 - 9.0 * params.drive_freq**2 + 3j * params.gamma_damp * params.drive_freq
    return -params.eta / (4.0 * den)


def duffing_from_medium(medium: MediumParams, lam: np.ndarray, drive_freq: float, drive_amp: float) -> DuffingParams:
    """Map the field model onto scalar oscillator constants.

    The damping is read off the composite-response width at resonance,
    gamma = eps0 chi_s omega0**3 Im sigma(omega0); the cubic stiffness
    comes from the x-polarized coupling component through the matter-field
    normalization, eta = -4 lam[0,0,0,0] eps0 omega0**2 chi_s / g.  Both
    sides of the oracle comparison are derived from the same parameters;
    the mapping itself is validated through ratio consistency only.
    """
    if medium.g == 0:
        raise InputError("oscillator mapping needs a medium (g = 1)")
    lam_scalar = float(np.real(np.asarray(lam)[0, 0, 0, 0]))
    sigma0 = _sigma_values(medium, [medium.omega0])[0]
    gamma = medium.eps0 * medium.chi_s * medium.omega0**3 * float(sigma0.imag)
    eta = -4.0 * lam_scalar * medium.eps0 * medium.omega0**2 * medium.chi_s / medium.g
    return DuffingParams(
        omega0=medium.omega0,
        gamma_damp=gamma,
        eta=eta,
        drive_amp=drive_amp,
        drive_freq=drive_freq,
        coupling=medium.alpha,
    )


@dataclass(frozen=True)
class CompareReport:
    """Drive-ladder cross-validation summary."""

    scaling_exponent: float
    r_squared: float
    measured_ratio: complex
    reference_ratio: complex
    ratio_to_reference: complex
    displacement_ratio: complex
    ratio_to_displacement: complex
    energy_balance_error: float
    params: DuffingParams

    def to_dict(self) -> dict:
        return {
            "exponent": self.scaling_exponent,
            "r_squared": self.r_squared,
            "ratio": [self.ratio_to_reference.real, self.ratio_to_reference.imag],
            "ratio_displacement": [
                self.ratio_to_displacement.real,
                self.ratio_to_displacement.imag,
            ],
            "energy_balance_error": self.energy_balance_error,
            "tolerance_pass": bool(
                abs(abs(self.scaling_exponent) - 3.0) <= 0.01
                and abs(self.ratio_to_reference - 1.0) <= 0.05
                and self.energy_balance_error <= 0.005
            ),
        }


def _energy_balance(traj: Trajectory, params: DuffingParams) -> float:
    idx = _trim_to_periods(traj.t, params.drive_freq)
    t = traj.t[: idx + 1]
    v = traj.v[: idx + 1]
    width = t[-1] - t[0]
    p_in = np.trapezoid(params.drive_amp * np.cos(params.drive_freq * t) * v, t) / width
    p_diss = params.gamma_damp * np.trapezoid(v * v, t) / width
    if p_diss == 0.0:
        return math.inf
    return abs(p_in - p_diss) / p_diss


def _displacement_thg_ratio(medium: MediumParams, lam: np.ndarray, wd: float) -> complex:
    """Comb-path prediction for the oscillator ratio A3/A1**3.

    Runs ``displacement`` on a one-line comb, extracts the third-harmonic
    coefficient c = D_nl(3 wd) / a**3, and converts it to oscillator units:
    the polarization per matter amplitude is g**2/alpha, the linear matter
    response per field is (alpha/g) Gamma, and the comb channels carry the
    combinatorial weight 2/(16*4!) = 1/192.  The remaining conjugation
    maps the field convention onto the oscillator one.
    """
    a = 1e-3
    comb = FrequencyComb.from_lines([(wd, [a, 0.0, 0.0])])
    out = displacement(comb, medium, lam)
    c_thg = out.amplitude_at(math.fsum((wd, wd, wd)))[0] / a**3
    gb1 = _gamma_scalar(medium, wd)
    g = medium.g
    alpha = medium.alpha
    x_ratio = c_thg * g / (alpha**2 * gb1**3)
    return complex(np.conj(x_ratio) * 192.0 / (alpha**2 * g**6))


def _drive_ladder(
    medium: MediumParams,
    lam: np.ndarray,
    drive_freq: float,
    ladder: int,
    base_amp: float | None,
    samples_per_period: int,
) -> tuple:
    """Oscillator constants and the periodic orbit of every ladder rung.

    Rung j is driven at ``base_amp * 2**j``.  Rung 0 starts its shooting
    solve from the linear response A = F0 / (omega0**2 - wd**2 + i gamma wd),
    x = Re(A exp(i wd t)); each later rung from the previous orbit doubled.
    Returns ``(params0, [(params, orbit), ...])``.
    """
    if ladder < 3:
        raise InputError("ladder needs at least 3 drive amplitudes")
    params0 = duffing_from_medium(medium, lam, drive_freq, 0.0)
    perturbative_reference(params0)  # validates the resonance guard
    gamma = params0.gamma_damp
    if gamma <= 0:
        raise InputError("comparison needs a lossy medium")
    wd = params0.drive_freq
    if base_amp is None:
        lin_den = abs(params0.omega0**2 - wd**2)
        x_top = 0.06 * params0.omega0**2 / max(abs(params0.eta), 1.0) ** 0.5
        base_amp = x_top * lin_den / 2 ** (ladder - 1)

    period = 2.0 * math.pi / wd
    # integer samples per period, dense enough for the fastest scale
    spp = max(samples_per_period, int(math.ceil(period * max(params0.omega0, wd) / 0.04)))
    lin = base_amp / (params0.omega0**2 - wd**2 + 1j * gamma * wd)
    z = (lin.real, -wd * lin.imag)
    rungs = []
    for j in range(ladder):
        params = DuffingParams(
            omega0=params0.omega0,
            gamma_damp=gamma,
            eta=params0.eta,
            drive_amp=base_amp * 2.0**j,
            drive_freq=wd,
            coupling=params0.coupling,
        )
        orbit = _periodic_orbit(params, spp, z)
        rungs.append((params, orbit))
        z = (2.0 * orbit.x[0], 2.0 * orbit.v[0])
    return params0, rungs


def compare_chi3(
    medium: MediumParams,
    lam: np.ndarray,
    drive_freq: float,
    ladder: int = 5,
    base_amp: float | None = None,
    samples_per_period: int = 160,
) -> CompareReport:
    """Drive-amplitude ladder: cubic scaling and ratio cross-checks.

    Solves for the periodic steady state of ``ladder`` drives whose
    amplitudes double from ``base_amp`` (shooting on the one-period map,
    no transient to wait out), fits log|A3| against log|A1| over one
    period of each orbit, and compares the measured A3/A1**3 of the middle
    rung with the harmonic-balance reference and the comb-path prediction.
    ``energy_balance_error`` is the largest over all rungs.  Raises
    ``RegimeError`` when an orbit does not converge, or when the fit
    quality drops below R**2 = 0.999 (drive too strong or too weak for
    clean cubic scaling).
    """
    params0, rungs = _drive_ladder(medium, lam, drive_freq, ladder, base_amp, samples_per_period)
    wd = params0.drive_freq
    spectra = [harmonic_amplitudes(orbit, wd, 3) for _, orbit in rungs]
    energy_err = max(_energy_balance(orbit, params) for params, orbit in rungs)

    logs1 = np.log(np.abs([spec[1] for spec in spectra]))
    logs3 = np.log(np.abs([spec[3] for spec in spectra]))
    slope, intercept = np.polyfit(logs1, logs3, 1)
    fitted = slope * logs1 + intercept
    ss_res = float(np.sum((logs3 - fitted) ** 2))
    ss_tot = float(np.sum((logs3 - np.mean(logs3)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    if r_squared < 0.999:
        raise RegimeError("not in perturbative regime")

    middle = spectra[len(spectra) // 2]
    measured = middle[3] / middle[1] ** 3
    reference = perturbative_reference(params0)
    disp_pred = _displacement_thg_ratio(medium, lam, wd)
    return CompareReport(
        scaling_exponent=float(slope),
        r_squared=r_squared,
        measured_ratio=measured,
        reference_ratio=reference,
        ratio_to_reference=measured / reference,
        displacement_ratio=disp_pred,
        ratio_to_displacement=measured / disp_pred,
        energy_balance_error=float(energy_err),
        params=params0,
    )
