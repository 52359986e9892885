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

The evaluation is split in two.  A plan depends only on the line
frequencies and the tolerance: it enumerates the terms above, merges
their output frequencies within tolerance into output lines and dresses
each term's coupling once.  Its evaluation takes B amplitude sets of shape
(B, n, 3) at once and gives (B, 3) per output line, with one ``einsum``
per output line and channel over the line's terms and the batch index.
``displacement`` is a plan
evaluated with B = 1.  The finite-difference extractors build one plan
per extraction, shared by both step sizes, and evaluate every probe
amplitude of a step (27 x 64 phase-cycled probes for ``chi3``, 6 for
``chi1``) as one batch, on the output line at the extracted frequency
only.

Contributions to each output line are reduced with exact summation
(``math.fsum``), so conjugate-closed inputs produce bitwise
conjugate-closed outputs for real coupling tensors, independent of
enumeration order.  A term evaluated in a batch equals the same term
evaluated alone bit for bit, so a probe's result does not depend on its
batch.
"""

from __future__ import annotations

import itertools
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


def _check_distinct(freqs, tol: float) -> None:
    for i in range(len(freqs)):
        for j in range(i + 1, len(freqs)):
            if abs(freqs[i] - freqs[j]) <= tol:
                raise InputError("comb frequencies must be pairwise distinct")


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
        _check_distinct([w for w, _ in entries], tol)
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


def _fsum(parts: np.ndarray) -> np.ndarray:
    """Order-independent, exactly rounded sum over the first axis of a complex array."""
    cols = parts.reshape(len(parts), -1).T
    out = np.empty(len(cols), dtype=complex)
    out.real = [math.fsum(c) for c in cols.real.tolist()]
    out.imag = [math.fsum(c) for c in cols.imag.tolist()]
    return out.reshape(parts.shape[1:])


# channel A: E E E*, output at wj + wk - wl; channel B: E E* E, output at wj - wk + wl.
# T runs over one output line's terms of the channel, B over the amplitude sets.
_CHANNELS = ("Tagnm,BTa,BTn,BTm->TBg", "Tabng,BTa,BTb,BTn->TBg")


class _CombPlan:
    """The amplitude-independent part of ``displacement`` for fixed line frequencies.

    ``groups`` holds the output lines in ascending frequency order, each as
    ``(frequency, linear terms, (channel A terms, channel B terms))``.  A
    linear term is ``(line, gamma)``, a channel term ``(dressed tensor, j,
    k, l)`` with the lines that fill the channel's three amplitude slots.
    Terms with the same frequency key share one tensor; ``evaluate`` stacks
    a line's tensors only while it contracts them.
    """

    def __init__(self, freqs, tolerance: float, medium: MediumParams, lam: np.ndarray):
        coupling = _DressedCoupling(medium, lam)
        _check_distinct(freqs, tolerance)
        self.medium = medium
        self.tolerance = tolerance
        contributions = {}  # fsum-canonical frequency -> (linear, channel A, channel B) terms

        def terms(w_out: float):
            return contributions.setdefault(w_out, ([], [], []))

        for i, w in enumerate(freqs):
            gam = _gamma_scalar(medium, float(w)) if medium.g else None
            terms(math.fsum((w,)))[0].append((i, gam))

        if np.any(coupling.lam) and medium.g != 0:
            for j, wj in enumerate(freqs):
                for k, wk in enumerate(freqs):
                    for l, wl in enumerate(freqs):
                        out_a = math.fsum((wj, wk, -wl))
                        terms(out_a)[1].append((coupling.dressed(wj, out_a, wk, wl), j, k, l))
                        out_b = math.fsum((wj, -wk, wl))
                        terms(out_b)[2].append((coupling.dressed(wj, wk, wl, out_b), j, k, l))

        # merge frequency keys that agree within tolerance; the representative
        # with the largest magnitude keeps mirrored clusters exactly opposite
        keys = sorted(contributions)
        clusters = [[keys[0]]]
        for w in keys[1:]:
            if w - clusters[-1][-1] <= tolerance:
                clusters[-1].append(w)
            else:
                clusters.append([w])
        self.groups = []
        for cluster in clusters:
            linear, chan_a, chan_b = ([t for w in cluster for t in contributions[w][c]] for c in range(3))
            self.groups.append((max(cluster, key=abs), linear, (chan_a, chan_b)))

    def evaluate(self, index: int, amps: np.ndarray) -> np.ndarray:
        """Output line ``index`` for B amplitude sets ``amps`` of shape (B, n, 3); (B, 3)."""
        _, linear, channels = self.groups[index]
        eps0, g = self.medium.eps0, self.medium.g
        parts = []
        for i, gam in linear:
            vec = eps0 * amps[:, i]
            if g:
                vec = vec + g * (gam * amps[:, i])
            parts.append(vec[None])
        conj = np.conj(amps)
        for subscripts, (x, y, z), terms in zip(_CHANNELS, ((amps, amps, conj), (amps, conj, amps)), channels):
            if terms:
                tensors, j, k, l = map(np.array, zip(*terms))
                parts.append(np.einsum(subscripts, tensors, x[:, j], y[:, k], z[:, l]) / 16.0)
        return _fsum(np.concatenate(parts))

    def amplitude_at(self, omega: float, amps: np.ndarray) -> np.ndarray:
        """``FrequencyComb.amplitude_at(omega)`` of the output, for each amplitude set."""
        for index, (w, _, _) in enumerate(self.groups):
            if abs(w - omega) <= self.tolerance:
                return self.evaluate(index, amps)
        return np.zeros((len(amps), 3), dtype=complex)


def displacement(comb: FrequencyComb, medium: MediumParams, lam: np.ndarray) -> FrequencyComb:
    """Displacement-field comb for an input electric-field comb.

    Output lines appear at every linear input frequency and at every
    achievable mixing frequency; collisions within tolerance add.  The
    normalization of the cubic term is the zero-field one (the interaction
    partition factor is unity at vanishing fields).
    """
    plan = _CombPlan([w for w, _ in comb.lines], comb.tolerance, medium, lam)
    amps = np.array([[a for _, a in comb.lines]], dtype=complex)
    lines = tuple((w, plan.evaluate(i, amps)[0]) for i, (w, _, _) in enumerate(plan.groups))
    return FrequencyComb(lines=lines, tolerance=comb.tolerance)


_QUARTER_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def extract_chi1_fd(medium: MediumParams, lam: np.ndarray, omega: float, h: float) -> np.ndarray:
    """Linear susceptibility from central differences of ``displacement``.

    Probes single unmirrored lines of amplitude ``±h`` along each basis
    direction and returns the Richardson combination of the h and h/2
    central differences, as ``dD/dE / eps0 - identity``.  The six probes
    of a step are one batch on a plan shared by both steps.  Raises
    ``StepSizeError`` when the two step sizes disagree by more than 1e-6
    relative (cubic contamination).
    """
    if not (1e-8 <= h <= 1e-2):
        raise InputError("perturbation size must lie in [1e-8, 1e-2]")
    plan = _CombPlan([float(omega)], 1e-9 * max(abs(omega), 1.0), medium, lam)

    def fd(step):
        basis = np.zeros((3, 3), dtype=complex)
        basis[np.diag_indices(3)] = step
        # probes +e_0, -e_0, +e_1, -e_1, +e_2, -e_2
        amps = np.stack([basis, -basis], axis=1).reshape(6, 1, 3)
        d_out = plan.amplitude_at(omega, amps).reshape(3, 2, 3)
        cols = (d_out[:, 0] - d_out[:, 1]) / (2.0 * step)
        return cols.T / medium.eps0 - np.eye(3)

    coarse = fd(h)
    fine = fd(h / 2.0)
    scale = max(float(np.max(np.abs(fine))), 1e-300)
    if float(np.max(np.abs(coarse - fine))) / scale > 1e-6:
        raise StepSizeError("step too large")
    return (4.0 * fine - coarse) / 3.0


def _mixed_third_derivative(plan, positions, w, h):
    """Wirtinger derivative d^3 D(w) / dE(w1) dE*(w2) dE(w3) at E = 0.

    ``plan`` holds the probe lines w1, w2, w3 at ``positions`` of its line
    order.  Phase-cycles each probe amplitude over the fourth roots of
    unity, which isolates the a1 * conj(a2) * a3 monomial exactly (the
    cubic is a polynomial, so the extraction has no truncation error).
    The 27 x 64 probes (basis directions b, m, n times phases) are one
    batch, and each (b, m, n) sums its 64 phases exactly.
    """
    directions = list(itertools.product(range(3), repeat=3))
    phases = list(itertools.product(_QUARTER_PHASES, repeat=3))
    eye = np.eye(3)
    amps = np.zeros((len(directions), len(phases), 3, 3), dtype=complex)
    for slot, pos in enumerate(positions):
        rows = eye[[d[slot] for d in directions]]
        steps = np.array([p[slot] * h for p in phases])
        amps[:, :, pos] = rows[:, None, :] * steps[None, :, None]
    d_out = plan.amplitude_at(w, amps.reshape(-1, 3, 3)).reshape(len(directions), len(phases), 3)
    weights = np.array([np.conj(p1) * p2 * np.conj(p3) for p1, p2, p3 in phases])
    deriv = _fsum((weights[None, :, None] * d_out).transpose(1, 0, 2)) / (64.0 * h**3)
    return deriv.T.reshape(3, 3, 3, 3)


def extract_chi3_fd(medium: MediumParams, lam: np.ndarray, w, w1, w2, w3, h: float) -> np.ndarray:
    """Third-order susceptibility from functional derivatives of ``displacement``.

    The raw mixed derivative is divided by 2 eps0 (susceptibility
    definition) and by the pairwise-relabeling multiplicity 2: the two
    integral terms of the constitutive law each generate the tensor twice
    under the pairwise-exchange symmetry of the coupling.  The result is
    directly comparable to ``nonlinear.chi3``.

    The probe lines w1, w2, w3 fix one plan, shared by the h and h/2
    steps.  Each step phase-cycles 27 x 64 probe amplitude sets and
    evaluates them as one batch on the output line at w only; the result
    is bitwise that of one ``displacement`` call per probe comb.
    """
    if not (1e-8 <= h <= 1e-2):
        raise InputError("perturbation size must lie in [1e-8, 1e-2]")
    scale = max(abs(w), abs(w1), abs(w2), abs(w3), 1e-300)
    if abs(w - (w1 - w2 + w3)) > 1e-9 * scale:
        raise EnergyConservationError("energy conservation violated")
    probe = (float(w1), float(w2), float(w3))
    order = sorted(range(3), key=lambda s: probe[s])  # the line order of a probe comb
    plan = _CombPlan([probe[s] for s in order], 1e-9 * max(abs(w), abs(w1), abs(w2), abs(w3), 1.0), medium, lam)
    positions = [order.index(s) for s in range(3)]
    coarse = _mixed_third_derivative(plan, positions, w, h)
    fine = _mixed_third_derivative(plan, positions, w, h / 2.0)
    norm = max(float(np.max(np.abs(fine))), 1e-300)
    if float(np.max(np.abs(coarse - fine))) / norm > 1e-6:
        raise StepSizeError("step too large")
    extrapolated = (4.0 * fine - coarse) / 3.0
    return extrapolated / (4.0 * medium.eps0)
