"""Nonlinear displacement field on discrete frequency combs.

A comb is a finite set of spectral lines; the four-wave delta constraint
then selects exact finite triple sums instead of frequency integrals.  For
every ordered triple of comb lines the two mixing channels contribute

    channel A (E E E*):  w_out = w_j + w_k - w_l,
        D_g += (1/16) L[a,g,n,m](w_j, w_out, w_k, w_l) E_a(j) E_n(k) E*_m(l)
    channel B (E E* E):  w_out = w_j - w_k + w_l,
        D_g += (1/16) L[a,b,n,g](w_j, w_k, w_l, w_out) E_a(j) E*_b(k) E_n(l)

with ``L = alpha**4 * lambda0`` carrying one composite-response factor per
slot, on top of the linear part ``D = eps0 E + g gamma E`` (``Gamma = gamma I``).

Contributions to each output line are reduced with exact summation
(``math.fsum``), so conjugate-closed inputs produce bitwise
conjugate-closed outputs for real coupling tensors, independent of
enumeration order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EnergyConservationError, InputError, StepSizeError
from .medium import MediumParams, _gamma_scalar
from .nonlinear import lambda0_tensor, validate_pairwise_symmetry

__all__ = [
    "FrequencyComb",
    "displacement",
    "extract_chi1_fd",
    "extract_chi3_fd",
]


@dataclass(frozen=True)
class FrequencyComb:
    """Discrete field spectrum: (frequency, complex 3-vector amplitude) lines.

    Physical combs describe real time-domain fields and are closed under
    conjugation: a line at ``w`` is accompanied by one at ``-w`` with the
    conjugate amplitude.  ``from_lines`` enforces this, mirroring
    single-sided input automatically.  Probe combs used as complex-field
    variations can bypass the closure with ``mirror=False``.
    """

    lines: tuple
    tolerance: float

    @classmethod
    def from_lines(cls, lines, tolerance=None, mirror=True) -> "FrequencyComb":
        entries = [(float(w), np.asarray(a, dtype=complex).reshape(3)) for w, a in lines]
        if not entries:
            raise InputError("comb needs at least one line")
        wmax = max(abs(w) for w, _ in entries)
        tol = tolerance if tolerance is not None else 1e-9 * max(wmax, 1.0)
        freqs = [w for w, _ in entries]
        for i in range(len(freqs)):
            for j in range(i + 1, len(freqs)):
                if abs(freqs[i] - freqs[j]) <= tol:
                    raise InputError("comb frequencies must be pairwise distinct")
        if mirror:
            entries = cls._close_under_conjugation(entries, tol)
        entries.sort(key=lambda e: e[0])
        return cls(lines=tuple((w, a.copy()) for w, a in entries), tolerance=tol)

    @staticmethod
    def _close_under_conjugation(entries, tol):
        out = list(entries)
        for w, a in entries:
            if abs(w) <= tol:
                if np.max(np.abs(a - np.conj(a))) > 1e-12 * max(1.0, float(np.max(np.abs(a)))):
                    raise InputError("zero-frequency line must have a real amplitude")
                continue
            partner = [(v, b) for v, b in entries if abs(v + w) <= tol]
            if partner:
                _, b = partner[0]
                if np.max(np.abs(b - np.conj(a))) > 1e-12 * max(1.0, float(np.max(np.abs(a)))):
                    raise InputError("comb is not closed under conjugation")
            else:
                out.append((-w, np.conj(a)))
        return out

    def amplitude_at(self, omega: float) -> np.ndarray:
        """Amplitude of the line nearest ``omega`` within tolerance (else 0)."""
        for w, a in self.lines:
            if abs(w - omega) <= self.tolerance:
                return a.copy()
        return np.zeros(3, dtype=complex)

    def is_conjugate_closed(self) -> bool:
        for w, a in self.lines:
            partner = None
            for v, b in self.lines:
                if abs(v + w) <= self.tolerance:
                    partner = b
                    break
            if partner is None or not np.array_equal(partner, np.conj(a)):
                return False
        return True


class _DressedCoupling:
    """Caches the slot-dressed coupling tensors ``alpha**4 * lambda0``."""

    def __init__(self, medium: MediumParams, lam: np.ndarray):
        validate_pairwise_symmetry(np.asarray(lam), tol=1e-12)
        self.medium = medium
        self.lam = np.asarray(lam, dtype=complex)
        self._dressed = {}

    def dressed(self, w1: float, w2: float, w3: float, w4: float) -> np.ndarray:
        key = (w1, w2, w3, w4)
        if key not in self._dressed:
            self._dressed[key] = self.medium.alpha**4 * lambda0_tensor(self.lam, self.medium, *key)
        return self._dressed[key]


def _fsum_vec(parts) -> np.ndarray:
    """Order-independent exactly-rounded sum of complex 3-vectors."""
    out = np.zeros(3, dtype=complex)
    for g in range(3):
        out[g] = complex(math.fsum(p[g].real for p in parts), math.fsum(p[g].imag for p in parts))
    return out


def displacement(
    comb: FrequencyComb, medium: MediumParams, lam: np.ndarray, _engine: _DressedCoupling | None = None
) -> FrequencyComb:
    """Displacement-field comb for an input electric-field comb.

    Output lines appear at every linear input frequency and at every
    achievable mixing frequency; collisions within tolerance add.  The
    normalization of the cubic term is the zero-field one (the interaction
    partition factor is unity at vanishing fields).  ``_engine`` lets the
    finite-difference extractors reuse dressed-tensor caches across probe
    evaluations.
    """
    engine = _engine if _engine is not None else _DressedCoupling(medium, lam)
    eps0 = medium.eps0
    contributions = {}  # fsum-canonical frequency -> list of 3-vectors

    def add(w_out: float, vec: np.ndarray):
        contributions.setdefault(w_out, []).append(vec)

    for w, a in comb.lines:
        linear = eps0 * a
        if medium.g:
            linear = linear + medium.g * (_gamma_scalar(medium, float(w)) * a)
        add(math.fsum((w,)), linear)

    lines = comb.lines
    n = len(lines)
    has_coupling = bool(np.any(np.asarray(lam))) and medium.g != 0
    if has_coupling:
        for j in range(n):
            wj, aj = lines[j]
            for k in range(n):
                wk, ak = lines[k]
                for l in range(n):
                    wl, al = lines[l]
                    # channel A: E E E*, output at wj + wk - wl
                    out_a = math.fsum((wj, wk, -wl))
                    t_a = engine.dressed(wj, out_a, wk, wl)
                    vec_a = np.einsum("agnm,a,n,m->g", t_a, aj, ak, np.conj(al)) / 16.0
                    add(out_a, vec_a)
                    # channel B: E E* E, output at wj - wk + wl
                    out_b = math.fsum((wj, -wk, wl))
                    t_b = engine.dressed(wj, wk, wl, out_b)
                    vec_b = np.einsum("abng,a,b,n->g", t_b, aj, np.conj(ak), al) / 16.0
                    add(out_b, vec_b)

    # merge frequency keys that agree within tolerance; the representative
    # with the largest magnitude keeps mirrored clusters exactly opposite
    keys = sorted(contributions)
    merged = []
    group = [keys[0]]
    for w in keys[1:]:
        if w - group[-1] <= comb.tolerance:
            group.append(w)
        else:
            merged.append(group)
            group = [w]
    merged.append(group)

    out_lines = []
    for group in merged:
        rep = max(group, key=abs)
        parts = [v for w in group for v in contributions[w]]
        out_lines.append((rep, _fsum_vec(parts)))
    out_lines.sort(key=lambda e: e[0])
    return FrequencyComb(lines=tuple(out_lines), tolerance=comb.tolerance)


_QUARTER_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _probe(freqs, amps, tol):
    lines = [(w, a) for w, a in zip(freqs, amps)]
    return FrequencyComb.from_lines(lines, tolerance=tol, mirror=False)


def extract_chi1_fd(medium: MediumParams, lam: np.ndarray, omega: float, h: float) -> np.ndarray:
    """Linear susceptibility from central differences of ``displacement``.

    Probes single unmirrored lines of amplitude ``±h`` along each basis
    direction and returns the Richardson combination of the h and h/2
    central differences, as ``dD/dE / eps0 - identity``.  Raises
    ``StepSizeError`` when the two step sizes disagree by more than 1e-6
    relative (cubic contamination).
    """
    if not (1e-8 <= h <= 1e-2):
        raise InputError("perturbation size must lie in [1e-8, 1e-2]")
    tol = 1e-9 * max(abs(omega), 1.0)
    engine = _DressedCoupling(medium, lam)

    def fd(step):
        cols = []
        for b in range(3):
            e = np.zeros(3, dtype=complex)
            e[b] = step
            plus = displacement(_probe([omega], [e], tol), medium, lam, _engine=engine).amplitude_at(omega)
            minus = displacement(_probe([omega], [-e], tol), medium, lam, _engine=engine).amplitude_at(omega)
            cols.append((plus - minus) / (2.0 * step))
        return np.stack(cols, axis=1) / medium.eps0 - np.eye(3)

    coarse = fd(h)
    fine = fd(h / 2.0)
    scale = max(float(np.max(np.abs(fine))), 1e-300)
    if float(np.max(np.abs(coarse - fine))) / scale > 1e-6:
        raise StepSizeError("step too large")
    return (4.0 * fine - coarse) / 3.0


def _mixed_third_derivative(medium, lam, w, w1, w2, w3, h):
    """Wirtinger derivative d^3 D(w) / dE(w1) dE*(w2) dE(w3) at E = 0.

    Phase-cycles each probe amplitude over the fourth roots of unity,
    which isolates the a1 * conj(a2) * a3 monomial exactly (the cubic is
    a polynomial, so the extraction has no truncation error).
    """
    tol = 1e-9 * max(abs(w), abs(w1), abs(w2), abs(w3), 1.0)
    engine = _DressedCoupling(medium, lam)
    deriv = np.zeros((3, 3, 3, 3), dtype=complex)
    for b in range(3):
        for m in range(3):
            for n in range(3):
                acc = []
                for p1 in _QUARTER_PHASES:
                    for p2 in _QUARTER_PHASES:
                        for p3 in _QUARTER_PHASES:
                            amps = [
                                np.eye(3)[b] * (p1 * h),
                                np.eye(3)[m] * (p2 * h),
                                np.eye(3)[n] * (p3 * h),
                            ]
                            comb = _probe([w1, w2, w3], amps, tol)
                            d_out = displacement(comb, medium, lam, _engine=engine).amplitude_at(w)
                            acc.append(np.conj(p1) * p2 * np.conj(p3) * d_out)
                deriv[:, b, m, n] = _fsum_vec(acc) / (64.0 * h**3)
    return deriv


def extract_chi3_fd(medium: MediumParams, lam: np.ndarray, w, w1, w2, w3, h: float) -> np.ndarray:
    """Third-order susceptibility from functional derivatives of ``displacement``.

    The raw mixed derivative is divided by 2 eps0 (susceptibility
    definition) and by the pairwise-relabeling multiplicity 2: the two
    integral terms of the constitutive law each generate the tensor twice
    under the pairwise-exchange symmetry of the coupling.  The result is
    directly comparable to ``nonlinear.chi3``.
    """
    if not (1e-8 <= h <= 1e-2):
        raise InputError("perturbation size must lie in [1e-8, 1e-2]")
    scale = max(abs(w), abs(w1), abs(w2), abs(w3), 1e-300)
    if abs(w - (w1 - w2 + w3)) > 1e-9 * scale:
        raise EnergyConservationError("energy conservation violated")
    coarse = _mixed_third_derivative(medium, lam, w, w1, w2, w3, h)
    fine = _mixed_third_derivative(medium, lam, w, w1, w2, w3, h / 2.0)
    norm = max(float(np.max(np.abs(fine))), 1e-300)
    if float(np.max(np.abs(coarse - fine))) / norm > 1e-6:
        raise StepSizeError("step too large")
    extrapolated = (4.0 * fine - coarse) / 3.0
    return extrapolated / (4.0 * medium.eps0)
