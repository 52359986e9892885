import functools
import itertools
import json
import math

import numpy as np
import pytest

from nlmedium.displacement import FrequencyComb
from nlmedium.duffing import (
    CompareReport,
    DuffingParams,
    Trajectory,
    _displacement_thg_ratio,
    _energy_balance,
    duffing_from_medium,
    harmonic_amplitudes,
    perturbative_reference,
    simulate,
)
from nlmedium.errors import (
    DivergenceError,
    DysonPoleError,
    InputError,
    LoopConvergenceError,
    PropagatorPoleError,
    RegimeError,
    StepSizeError,
)
from nlmedium.fieldspace import (
    DressedPropagators,
    PlaneWaveContext,
    PropagatorMatrix,
    SelfEnergyResult,
    vertex,
)
from nlmedium.medium import (
    MediumParams,
    NuConstant,
    NuTabulated,
    NuZero,
    _static_nodes,
    chi1,
    gamma_response,
)
from nlmedium.nonlinear import lambda0_tensor


def _product(p, q):
    """Complex product of (re, im) pairs: four real multiplies, two real adds."""
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _pair(z):
    return (float(z.real), float(z.imag))


def _naive_cubic_term(t, x, y, z):
    """One term's 3-vector from t[a, n, m, g] and (re, im) amplitude pairs x, y, z."""
    vec = []
    for g in range(3):
        acc = None
        for a in range(3):
            for n in range(3):
                for m in range(3):
                    p = _product(_pair(t[a, n, m, g]), _product(x[a], _product(y[n], z[m])))
                    acc = p if acc is None else (acc[0] + p[0], acc[1] + p[1])
        vec.append((acc[0] / 16.0, acc[1] / 16.0))
    return vec


def naive_displacement_line(comb, medium, lam, omega_out):
    """Second, independent constitutive-law implementation.

    Enumerates the two mixing channels with plain Python loops over
    ordered line triples, building every slot-dressed coupling tensor from
    scratch, and evaluates every term in Python floats by the written
    definition of the comb arithmetic (``nlmedium.displacement``): complex
    products as four real multiplies and two adds, the 27 slots of a cubic
    term added in lexicographic order, then divided by 16.  Lines are
    reduced with math.fsum like the production path (the sum is exact, so
    sharing the reduction does not share code paths).
    """
    lines = [(w, [_pair(v) for v in a]) for w, a in comb.lines]
    parts = []
    for w, a in lines:
        if abs(w - omega_out) <= comb.tolerance:
            vec = [(medium.eps0 * re, medium.eps0 * im) for re, im in a]
            if medium.g:
                gam = _pair(gamma_response(medium, w))
                vec = [(e[0] + p[0], e[1] + p[1]) for e, p in zip(vec, (_product(gam, v) for v in a))]
            parts.append(vec)
    for wj, aj in lines:
        for wk, ak in lines:
            for wl, al in lines:
                out_a = math.fsum((wj, wk, -wl))
                if abs(out_a - omega_out) <= comb.tolerance:
                    t = lambda0_tensor(lam, medium, wj, out_a, wk, wl) * medium.alpha**4
                    conj_l = [(re, -im) for re, im in al]
                    parts.append(_naive_cubic_term(t.transpose(0, 2, 3, 1), aj, ak, conj_l))
                out_b = math.fsum((wj, -wk, wl))
                if abs(out_b - omega_out) <= comb.tolerance:
                    t = lambda0_tensor(lam, medium, wj, wk, wl, out_b) * medium.alpha**4
                    conj_k = [(re, -im) for re, im in ak]
                    parts.append(_naive_cubic_term(t, aj, conj_k, al))
    out = np.zeros(3, dtype=complex)
    for g in range(3):
        out[g] = complex(math.fsum(p[g][0] for p in parts), math.fsum(p[g][1] for p in parts))
    return out


def _fsum_vec(parts):
    out = np.zeros(3, dtype=complex)
    for g in range(3):
        out[g] = complex(math.fsum(p[g].real for p in parts), math.fsum(p[g].imag for p in parts))
    return out


def cubic_terms_by_definition(tensors, x, y, z):
    """Cubic comb terms by the written definition, for a stack of T terms.

    ``tensors`` (T, 3, 3, 3, 3) has the amplitude slots (a, n, m) first and
    the output component last; ``x``, ``y``, ``z`` (T, 3) fill the slots.
    Every complex product is four real multiplies and two adds, and the 27
    slots are added one after another in lexicographic order (the last
    running sum of ``np.add.accumulate``).  Returns (T, 3).
    """

    def mul(p, q):
        return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]

    yz = mul((y.real[:, :, None], y.imag[:, :, None]), (z.real[:, None, :], z.imag[:, None, :]))
    xyz = mul((x.real[:, :, None, None], x.imag[:, :, None, None]), (yz[0][:, None], yz[1][:, None]))
    pr, pi = mul((tensors.real, tensors.imag), (xyz[0][..., None], xyz[1][..., None]))
    out = np.empty((len(tensors), 3), dtype=complex)
    out.real, out.imag = (np.add.accumulate(p.reshape(len(tensors), 27, 3), axis=1)[:, -1] / 16.0 for p in (pr, pi))
    return out


def dressing(medium, lam):
    """``alpha**4 * lambda0_tensor`` per frequency key, each key dressed once.

    ``dressed.gamma(w)`` is the scalar ``gamma_response`` at a line
    frequency, likewise evaluated once per frequency.
    """

    @functools.cache
    def dressed(*key):
        return medium.alpha**4 * lambda0_tensor(lam, medium, *key)

    dressed.gamma = functools.cache(lambda w: gamma_response(medium, w))
    return dressed


def displacement_per_triple(comb, medium, lam, dressed=None):
    """Reference comb displacement for one amplitude set, term by term.

    The unbatched form of ``displacement``: the terms of each ordered line
    triple evaluated by the written definition, keyed by their fsum output
    frequency in a dict, keys merged within tolerance with the
    largest-magnitude representative, one ``math.fsum`` per component of
    each output line.  ``dressed`` (see ``dressing``) lets the per-probe
    extractors below share dressed tensors and line responses across calls.
    """
    dressed = dressed if dressed is not None else dressing(medium, lam)
    contributions = {}

    def add(w_out, vec):
        contributions.setdefault(w_out, []).append(vec)

    for w, a in comb.lines:
        linear = np.empty(3, dtype=complex)
        linear.real, linear.imag = medium.eps0 * a.real, medium.eps0 * a.imag
        if medium.g:
            gam = dressed.gamma(float(w))
            linear.real += gam.real * a.real - gam.imag * a.imag
            linear.imag += gam.real * a.imag + gam.imag * a.real
        add(math.fsum((w,)), linear)
    if bool(np.any(np.asarray(lam))) and medium.g != 0:
        triples = list(itertools.product(comb.lines, repeat=3))
        keys_a = [(wj, math.fsum((wj, wk, -wl)), wk, wl) for (wj, _), (wk, _), (wl, _) in triples]
        keys_b = [(wj, wk, wl, math.fsum((wj, -wk, wl))) for (wj, _), (wk, _), (wl, _) in triples]
        aj, ak, al = (np.array([t[s][1] for t in triples]) for s in range(3))
        tensors_a = np.array([dressed(*key).transpose(0, 2, 3, 1) for key in keys_a])
        tensors_b = np.array([dressed(*key) for key in keys_b])
        for key, vec in zip(keys_a, cubic_terms_by_definition(tensors_a, aj, ak, np.conj(al))):
            add(key[1], vec)
        for key, vec in zip(keys_b, cubic_terms_by_definition(tensors_b, aj, np.conj(ak), al)):
            add(key[3], vec)
    keys = sorted(contributions)
    merged = [[keys[0]]]
    for w in keys[1:]:
        if w - merged[-1][-1] <= comb.tolerance:
            merged[-1].append(w)
        else:
            merged.append([w])
    out_lines = [(max(group, key=abs), _fsum_vec([v for w in group for v in contributions[w]])) for group in merged]
    out_lines.sort(key=lambda e: e[0])
    return FrequencyComb(lines=tuple(out_lines), tolerance=comb.tolerance)


def _probe_comb(freqs, amps, tol):
    return FrequencyComb.from_lines(list(zip(freqs, amps)), tolerance=tol, mirror=False)


def extract_chi1_fd_per_probe(medium, lam, omega, h):
    """Reference ``extract_chi1_fd``: one ``displacement_per_triple`` call per probe."""
    tol = 1e-9 * max(abs(omega), 1.0)
    dressed = dressing(medium, lam)

    def fd(step):
        cols = []
        for b in range(3):
            e = np.zeros(3, dtype=complex)
            e[b] = step
            plus = displacement_per_triple(_probe_comb([omega], [e], tol), medium, lam, dressed).amplitude_at(omega)
            minus = displacement_per_triple(_probe_comb([omega], [-e], tol), medium, lam, dressed).amplitude_at(omega)
            cols.append((plus - minus) / (2.0 * step))
        return np.stack(cols, axis=1) / medium.eps0 - np.eye(3)

    coarse = fd(h)
    fine = fd(h / 2.0)
    scale = max(float(np.max(np.abs(fine))), 1e-300)
    if float(np.max(np.abs(coarse - fine))) / scale > 1e-6:
        raise StepSizeError("step too large")
    return (4.0 * fine - coarse) / 3.0


_QUARTER_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def mixed_third_derivative_per_probe(medium, lam, w, w1, w2, w3, h):
    """Reference phase-cycled mixed derivative: 27 x 64 probe combs, one at a time."""
    tol = 1e-9 * max(abs(w), abs(w1), abs(w2), abs(w3), 1.0)
    dressed = dressing(medium, lam)
    deriv = np.zeros((3, 3, 3, 3), dtype=complex)
    for b in range(3):
        for m in range(3):
            for n in range(3):
                acc = []
                for p1 in _QUARTER_PHASES:
                    for p2 in _QUARTER_PHASES:
                        for p3 in _QUARTER_PHASES:
                            amps = [np.eye(3)[b] * (p1 * h), np.eye(3)[m] * (p2 * h), np.eye(3)[n] * (p3 * h)]
                            comb = _probe_comb([w1, w2, w3], amps, tol)
                            d_out = displacement_per_triple(comb, medium, lam, dressed).amplitude_at(w)
                            acc.append(np.conj(p1) * p2 * np.conj(p3) * d_out)
                deriv[:, b, m, n] = _fsum_vec(acc) / (64.0 * h**3)
    return deriv


def extract_chi3_fd_per_probe(medium, lam, w, w1, w2, w3, h):
    """Reference ``extract_chi3_fd`` from ``mixed_third_derivative_per_probe``.

    Input validation is left to the caller.
    """
    coarse = mixed_third_derivative_per_probe(medium, lam, w, w1, w2, w3, h)
    fine = mixed_third_derivative_per_probe(medium, lam, w, w1, w2, w3, h / 2.0)
    norm = max(float(np.max(np.abs(fine))), 1e-300)
    if float(np.max(np.abs(coarse - fine))) / norm > 1e-6:
        raise StepSizeError("step too large")
    return (4.0 * fine - coarse) / 3.0 / (4.0 * medium.eps0)


def chi3_two_permutation(medium, lam, w, w1, w2, w3):
    """Reference chi3: the two-permutation form contracted with four chi1 factors.

        chi3_abmn = (eps0**3 alpha**4 / 32) / 4! * [
            lam_gsrk X_ag(w1) X_bs(w2) X_mr(w3) X_nk(w)
          + lam_gkrs X_ag(w1) X_nk(w2) X_mr(w3) X_bs(w) ],   X = chi1,

    written directly, without ``lambda0``.
    """
    lam = np.asarray(lam, dtype=complex)
    x1, x2, x3, x0 = (chi1(medium, v) * np.eye(3) for v in (w1, w2, w3, w))
    term1 = np.einsum("gsrk,ag,bs,mr,nk->abmn", lam, x1, x2, x3, x0)
    term2 = np.einsum("gkrs,ag,nk,mr,bs->abmn", lam, x1, x2, x3, x0)
    return (medium.eps0**3 * medium.alpha**4 / 32.0) * (term1 + term2) / 24.0


def pv_integral_per_point(nu, upper, w):
    """Reference reservoir-kernel quadrature: one sorted node list per pole.

    The per-frequency form of the production kernel: static nodes plus a
    48-node geometric cluster around ``w``, merged by a stable sort, nodes
    within 1e-13 of the pole dropped, pole subtracted and added back in
    closed form.
    """
    base_x, _, base_q = _static_nodes(nu, upper)[:3]
    floor = 1e-9 * upper
    span = 0.5 * min(w, upper - w)
    extra = np.asarray([])
    if span > floor:
        offs = np.geomspace(floor, span, 24)
        extra = np.concatenate([w - offs, w + offs])
    extra = extra[(extra > 0.0) & (extra < upper)]
    x = np.concatenate([base_x, extra])
    q = np.concatenate([base_q, np.asarray(nu.q(extra), dtype=float)])
    order = np.argsort(x, kind="stable")
    x = x[order]
    q = q[order]
    keep = np.abs(x - w) > 1e-13 * max(upper, 1.0)
    x = x[keep]
    q = q[keep]
    qw = float(nu.q(np.asarray([w]))[0])
    integrand = (q - qw) / (x * x - w * w)
    pv = float(np.trapezoid(integrand, x))
    if qw != 0.0:
        pv += qw * math.log((upper - w) / (upper + w)) / (2.0 * w)
    return pv


def sigma_per_point(medium, w):
    """Reservoir kernel at 0 < w < loop_cutoff from ``pv_integral_per_point``."""
    pv = pv_integral_per_point(medium.nu, medium.loop_cutoff, w)
    q_at = float(medium.nu.q(np.asarray([w]))[0])
    return (w * w / medium.rho) * complex(pv, math.pi * q_at / (2.0 * w))


def kk_reconstruct_loop(freq_grid, im_part):
    """Reference Kramers-Kronig sum, one grid point per loop iteration.

    Same discretisation as ``kk_reconstruct`` (trapezoids with the two
    intervals next to the singular node left out, a local expansion over
    them, and the w = 0 special case), written point by point.  Input
    validation and the resolution guard are left to the caller.
    """
    grid = np.asarray(freq_grid, dtype=float)
    im = np.asarray(im_part, dtype=float)
    n = grid.size
    f = grid * im
    re = np.empty(n)
    for i in range(n):
        w = grid[i]
        if i == 0 and w == 0.0:
            vals = np.empty(n)
            vals[1:] = im[1:] / grid[1:]
            vals[0] = im[1] / grid[1]
            re[i] = (2.0 / math.pi) * np.trapezoid(vals, grid)
            continue
        lo = max(i - 1, 0)
        hi = min(i + 1, n - 1)
        total = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            integrand = f / (grid * grid - w * w)
        if lo > 0:
            total += np.trapezoid(integrand[: lo + 1], grid[: lo + 1])
        if hi < n - 1:
            total += np.trapezoid(integrand[hi:], grid[hi:])
        gvals = f / (grid + w)
        if 0 < i < n - 1:
            a = w - grid[i - 1]
            b = grid[i + 1] - w
            gp = (gvals[i + 1] - gvals[i - 1]) / (a + b)
            total += gvals[i] * math.log(b / a) + gp * (a + b)
        re[i] = (2.0 / math.pi) * total
    return re


def _kernel_terms_per_sample(medium, ctx, gam):
    """The 3x3 terms of K_tot(w, k), with ``gam = gamma(w)``: vacuum, transverse and, inside a medium, matter."""
    w = ctx.omega
    terms = [
        medium.eps0 * w**2 * np.eye(3, dtype=complex),
        # the transverse projector of a z-directed k: the identity in the k -> 0 limit
        -(ctx.k**2 / medium.mu0) * (np.eye(3) if ctx.k == 0.0 else np.diag([1.0, 1.0, 0.0])),
    ]
    if medium.g:
        terms.append(-(medium.g * w**2 * medium.alpha**2 * gam * np.eye(3)))
    return terms


def _check_regular_per_sample(matrix, scale):
    bound = float(np.prod(np.linalg.norm(scale, axis=1)))
    if abs(np.linalg.det(matrix)) <= 1e-14 * bound:
        raise PropagatorPoleError("propagator pole")


def photon_green_per_sample(medium, ctx):
    """Reference photon Green function: the 3x3 kernel built term by term and inverted by LAPACK.

    The restricted kernel (the full 3x3 at k = 0, its transverse 2x2 block
    for k > 0) is a pole when |det| <= 1e-14 times the product of the row
    norms of the summed term magnitudes.
    """
    gam = gamma_response(medium, float(ctx.omega)) if medium.g else None
    terms = _kernel_terms_per_sample(medium, ctx, gam)
    kernel = sum(terms)
    scale = sum(np.abs(term) for term in terms)
    if ctx.k == 0.0:
        _check_regular_per_sample(kernel, scale)
        return np.linalg.inv(kernel)
    sub = kernel[:2, :2]
    _check_regular_per_sample(sub, scale[:2, :2])
    out = np.zeros((3, 3), dtype=complex)
    out[:2, :2] = np.linalg.inv(sub)
    return out


def tree_propagators_per_sample(medium, ctx):
    """Reference tree propagators: 3x3 matrix products on ``photon_green_per_sample``."""
    d = photon_green_per_sample(medium, ctx)
    if medium.g == 0:
        zero = np.zeros((3, 3), dtype=complex)
        return PropagatorMatrix(aa=d, ax=zero, xa=zero.copy(), xx=zero.copy())
    gam = gamma_response(medium, float(ctx.omega))
    w, a = ctx.omega, medium.alpha
    xx = gam * np.eye(3) + a**2 * w**2 * (gam * gam * d)
    mixing = a * w * (gam * d)
    return PropagatorMatrix(aa=d, ax=mixing, xa=mixing.copy(), xx=xx)


def dyson_dress_per_sample(g0, pi):
    """Reference Dyson step on one sample: 3x3 products, a LAPACK determinant and inverse."""
    ipi = 1j * np.asarray(pi, dtype=complex)

    def build(middle):
        return PropagatorMatrix(
            aa=g0.aa + g0.ax @ middle @ g0.xa,
            ax=g0.ax + g0.ax @ middle @ g0.xx,
            xa=g0.xa + g0.xx @ middle @ g0.xa,
            xx=g0.xx + g0.xx @ middle @ g0.xx,
        )

    resum_matrix = np.eye(3, dtype=complex) - g0.xx @ ipi
    det = np.linalg.det(resum_matrix)
    if abs(det) < 1e-14 * max(1.0, float(np.max(np.abs(resum_matrix)))) ** 3:
        raise DysonPoleError("Dyson resummation pole")
    return DressedPropagators(single=build(ipi), resummed=build(ipi @ np.linalg.inv(resum_matrix)))


def _internal_xx(medium, gam):
    """Time-ordered tree matter block at k = 0 as a 3x3 matrix, one node with response ``gam``."""
    m = medium.eps0 * np.eye(3, dtype=complex) - medium.g * medium.alpha**2 * gam
    return medium.g * (gam + medium.alpha**2 * (gam @ np.linalg.solve(m, gam)))


def _loop_trapezoid(medium, vert, cutoff, n_points):
    nodes = np.linspace(-cutoff, cutoff, n_points)
    # Gamma(|W|) at every node from one kernel call: rows are bitwise
    # independent of their batch, so each equals gamma_response(medium, |W|)
    gammas = [np.diag(np.full(3, gam)) for gam in gamma_response(medium, np.abs(nodes))]
    samples = np.asarray([np.einsum("abmg,bm->ag", vert, _internal_xx(medium, gam)) for gam in gammas])
    return np.trapezoid(samples, nodes, axis=0) / (2.0 * np.pi)


def self_energy_per_node(medium, lam, omega, quadrature):
    """Reference one-loop self-energy: full rank-4 contraction at every node.

    The unfactored form of ``self_energy``: the vertex is the general
    ``vertex`` on ``photon_green_per_sample``, each loop node builds the 3x3
    matter block with a linear solve and contracts the whole vertex with
    it; the three windows are separate trapezoid passes.  Error estimates
    and the convergence gate are those of the production path.
    """
    pol = np.array([1.0, 0.0, 0.0])
    ctx_ext = PlaneWaveContext(k=0.0, polarization=pol, omega=float(omega))
    lam0 = lambda0_tensor(lam, medium, omega, omega, omega, omega)
    vert = vertex(lam0, medium.alpha, omega, photon_green_per_sample(medium, ctx_ext))
    n = quadrature.n_points
    cut = quadrature.cutoff
    full = _loop_trapezoid(medium, vert, cut, n)
    disc = float(np.max(np.abs(full - _loop_trapezoid(medium, vert, cut, n // 2)))) / 3.0
    tail = float(np.max(np.abs(full - _loop_trapezoid(medium, vert, cut / 2.0, n // 2 + 1))))
    scale = float(np.max(np.abs(full)))
    if scale > 0.0 and disc > 0.1 * scale:
        raise LoopConvergenceError("loop integral not converged at this cutoff")
    return SelfEnergyResult(value=full, error_estimate=disc + tail, discretization_error=disc, tail_error=tail)


def rk4_reference(params, dt, n_steps, x, v, keep_from):
    """Reference fixed-step RK4 core, written stage by stage.

    Same contract as ``duffing._rk4`` for runs that stay bounded: one
    ``acc`` call per stage, with the drive evaluated at each stage's own
    time (four cosines per step), and the state kept in whatever scalar
    type the caller passes.  The amplitude guard is ``abs(x) > guard``.
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


def compare_chi3_long_run(
    medium: MediumParams,
    lam: np.ndarray,
    drive_freq: float,
    ladder: int = 5,
    base_amp: float | None = None,
    samples_per_period: int = 160,
) -> tuple:
    """Long-run reference for ``compare_chi3``: each rung integrated from rest.

    Each rung runs ``simulate`` for max(30/gamma, 60 periods), so that the
    transient decays, and reads the last quarter.  Returns the report
    ``compare_chi3`` would give from these runs and the per-rung harmonic
    spectra, as ``(report, spectra)``.

    Runs ``ladder`` simulations with drive amplitudes doubling from
    ``base_amp``, fits log|A3| against log|A1|, and compares the measured
    A3/A1**3 with the harmonic-balance reference and the comb-path
    prediction.  Raises ``RegimeError`` when the fit quality drops below
    R**2 = 0.999 (drive too strong or too weak for clean cubic scaling).
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
    dt = period / spp
    # long enough that the transient is negligible inside the kept window
    t_end = max(30.0 / gamma, 60.0 * period)
    t_end = (int(round(t_end / period)) + 1) * period

    a1s, a3s, ratios = [], [], []
    energy_err = None
    spectra = []
    for j in range(ladder):
        amp = base_amp * 2.0**j
        params = DuffingParams(
            omega0=params0.omega0,
            gamma_damp=gamma,
            eta=params0.eta,
            drive_amp=amp,
            drive_freq=wd,
        )
        traj = simulate(params, t_end, dt)
        spec = harmonic_amplitudes(traj, wd, 3)
        spectra.append(spec)
        a1s.append(spec[1])
        a3s.append(spec[3])
        ratios.append(spec[3] / spec[1] ** 3)
        if j == ladder // 2:
            energy_err = _energy_balance(traj, params)

    logs1 = np.log(np.abs(np.asarray(a1s)))
    logs3 = np.log(np.abs(np.asarray(a3s)))
    slope, intercept = np.polyfit(logs1, logs3, 1)
    fitted = slope * logs1 + intercept
    ss_res = float(np.sum((logs3 - fitted) ** 2))
    ss_tot = float(np.sum((logs3 - np.mean(logs3)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    if r_squared < 0.999:
        raise RegimeError("not in perturbative regime")

    measured = complex(ratios[ladder // 2])
    reference = perturbative_reference(params0)
    disp_pred = _displacement_thg_ratio(medium, lam, wd)
    report = CompareReport(
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
    return report, spectra


def _prepass(obj):
    """Every value converted to a plain JSON type before ``json.dumps`` sees it."""
    if isinstance(obj, dict):
        return {k: _prepass(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_prepass(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return _prepass(obj.tolist())
    return obj


def dumps_canonical_prepass(obj) -> str:
    """Reference canonical JSON: a full pre-pass over the object, then ``json.dumps``."""
    return json.dumps(_prepass(obj), sort_keys=True, separators=(",", ":")) + "\n"


def write_csv_per_cell(path, header, rows) -> None:
    """Reference CSV writer: text cells as they are, integers by ``str``, every other cell ``%.17g``."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for cell in row:
                if isinstance(cell, str):
                    cells.append(cell)
                elif isinstance(cell, (int, np.integer)):
                    cells.append(str(int(cell)))
                else:
                    cells.append("%.17g" % float(cell))
            fh.write(",".join(cells) + "\n")


@pytest.fixture
def naive_line_oracle():
    return naive_displacement_line


@pytest.fixture
def lossless():
    return MediumParams(omega0=1.0, chi_s=1.0, alpha=0.5, rho=1.0, nu=NuZero(), loop_cutoff=30.0)


@pytest.fixture
def lossy():
    """Constant reservoir coupling, moderate damping."""
    return MediumParams(
        omega0=1.0, chi_s=1.0, alpha=0.5, rho=0.2, nu=NuConstant(0.1, 10.0), loop_cutoff=30.0
    )


@pytest.fixture
def smooth_lossy():
    """Gaussian-tapered tabulated coupling: no support-edge jump."""
    grid = np.linspace(0.0, 16.0, 400)
    return MediumParams(
        omega0=1.0,
        chi_s=1.0,
        alpha=0.5,
        rho=0.05,
        nu=NuTabulated(grid, 0.1 * np.exp(-((grid / 4.0) ** 2))),
        loop_cutoff=25.0,
    )
