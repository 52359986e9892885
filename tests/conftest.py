import math

import numpy as np
import pytest

from nlmedium.errors import LoopConvergenceError
from nlmedium.fieldspace import PlaneWaveContext, SelfEnergyResult, photon_green, vertex
from nlmedium.medium import MediumParams, NuConstant, NuTabulated, NuZero, _static_nodes, chi1, gamma_response
from nlmedium.nonlinear import lambda0_tensor


def naive_displacement_line(comb, medium, lam, omega_out):
    """Second, independent constitutive-law implementation.

    Enumerates the two mixing channels with plain Python loops over
    ordered line triples, building every slot-dressed coupling tensor from
    scratch, and reduces with math.fsum like the production path (the sum
    is order-independent, so sharing the reduction does not share code
    paths).
    """
    lines = list(comb.lines)
    parts = []
    for w, a in lines:
        if abs(w - omega_out) <= comb.tolerance:
            parts.append(medium.eps0 * a + medium.g * (gamma_response(medium, w).T @ a))
    for wj, aj in lines:
        for wk, ak in lines:
            for wl, al in lines:
                out_a = math.fsum((wj, wk, -wl))
                if abs(out_a - omega_out) <= comb.tolerance:
                    t = lambda0_tensor(lam, medium, wj, out_a, wk, wl) * medium.alpha**4
                    vec = np.zeros(3, dtype=complex)
                    for g in range(3):
                        acc = 0.0 + 0.0j
                        for x in range(3):
                            for n in range(3):
                                for m in range(3):
                                    acc += t[x, g, n, m] * aj[x] * ak[n] * np.conj(al[m])
                        vec[g] = acc
                    parts.append(vec / 16.0)
                out_b = math.fsum((wj, -wk, wl))
                if abs(out_b - omega_out) <= comb.tolerance:
                    t = lambda0_tensor(lam, medium, wj, wk, wl, out_b) * medium.alpha**4
                    vec = np.zeros(3, dtype=complex)
                    for g in range(3):
                        acc = 0.0 + 0.0j
                        for x in range(3):
                            for b in range(3):
                                for n in range(3):
                                    acc += t[x, b, n, g] * aj[x] * np.conj(ak[b]) * al[n]
                        vec[g] = acc
                    parts.append(vec / 16.0)
    out = np.zeros(3, dtype=complex)
    for g in range(3):
        out[g] = complex(
            math.fsum(p[g].real for p in parts), math.fsum(p[g].imag for p in parts)
        )
    return out


def chi3_two_permutation(medium, lam, w, w1, w2, w3):
    """Reference chi3: the two-permutation form contracted with four chi1 factors.

        chi3_abmn = (eps0**3 alpha**4 / 32) / 4! * [
            lam_gsrk X_ag(w1) X_bs(w2) X_mr(w3) X_nk(w)
          + lam_gkrs X_ag(w1) X_nk(w2) X_mr(w3) X_bs(w) ],   X = chi1,

    written directly, without ``lambda0``.
    """
    lam = np.asarray(lam, dtype=complex)
    x1 = chi1(medium, w1)
    x2 = chi1(medium, w2)
    x3 = chi1(medium, w3)
    x0 = chi1(medium, w)
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
    base_x, _, base_q, _ = _static_nodes(nu, upper)
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


def _internal_xx(medium, omega):
    """Time-ordered tree matter block at k = 0 as a 3x3 matrix, one node."""
    gam = gamma_response(medium, abs(omega))
    m = medium.eps0 * np.eye(3, dtype=complex) - medium.g * medium.alpha**2 * gam
    return medium.g * (gam + medium.alpha**2 * (gam @ np.linalg.solve(m, gam)))


def _loop_trapezoid(medium, vert, cutoff, n_points):
    nodes = np.linspace(-cutoff, cutoff, n_points)
    samples = np.asarray([np.einsum("abmg,bm->ag", vert, _internal_xx(medium, float(om))) for om in nodes])
    return np.trapezoid(samples, nodes, axis=0) / (2.0 * np.pi)


def self_energy_per_node(medium, lam, omega, quadrature):
    """Reference one-loop self-energy: full rank-4 contraction at every node.

    The unfactored form of ``self_energy``: each loop node builds the 3x3
    matter block with a linear solve and contracts the whole vertex with
    it; the three windows are separate trapezoid passes.  Error estimates
    and the convergence gate are those of the production path.
    """
    pol = np.array([1.0, 0.0, 0.0])
    ctx_ext = PlaneWaveContext(k=0.0, polarization=pol, omega=float(omega))
    lam0 = lambda0_tensor(lam, medium, omega, omega, omega, omega)
    vert = vertex(lam0, medium.alpha, omega, photon_green(medium, ctx_ext))
    n = quadrature.n_points
    cut = quadrature.cutoff
    full = _loop_trapezoid(medium, vert, cut, n)
    disc = float(np.max(np.abs(full - _loop_trapezoid(medium, vert, cut, n // 2)))) / 3.0
    tail = float(np.max(np.abs(full - _loop_trapezoid(medium, vert, cut / 2.0, n // 2 + 1))))
    scale = float(np.max(np.abs(full)))
    if scale > 0.0 and disc > 0.1 * scale:
        raise LoopConvergenceError("loop integral not converged at this cutoff")
    return SelfEnergyResult(value=full, error_estimate=disc + tail, discretization_error=disc, tail_error=tail)


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
