"""Linear response of the absorbing dielectric model.

The medium is a polarization oscillator (resonance ``omega0``, static
susceptibility ``chi_s``) coupled to a reservoir continuum with coupling
density ``nu``.  Integrating the reservoir out leaves a frequency-dependent
kernel ``sigma`` that dresses the oscillator; the composite response
``gamma`` and the linear susceptibility ``chi1 = g * gamma / eps0`` follow
in closed form.

Sign conventions: the pole prescription is fixed so that the response is
Hermitian-analytic (``sigma(-w) == conj(sigma(w))``) and passive
(``Im chi1(w) > 0`` for ``w > 0``), which makes the standard single-sided
Kramers-Kronig relations hold.  Concretely

    sigma(w) = (w**2 / rho) * [ PV + i*pi*sign(w)*q(|w|)/(2|w|) ],
    PV = principal value of integral_0^U q(x) / (x**2 - w**2) dx,

with ``q = |nu|**2`` and ``U`` the support end capped at ``loop_cutoff``.
``sigma(0) = 0`` exactly, so ``chi1(0) = chi_s`` in the lossless and lossy
cases alike.

Evaluation: three entry points, ``reservoir_kernel``, ``gamma_response``
and ``chi1``, each take a frequency or an array of frequencies and return
complex values of the same shape (a Python complex for a scalar).  The
response is isotropic (``Gamma = gamma I``), so the scalars are all of
it; only the CLI writes 3x3 forms.  All three reach one principal-value
quadrature, ``_kernel``, with one call that evaluates each distinct
nonzero |omega| once.  It runs its rows in chunks that keep every
temporary at or below 2**15 elements.  The base
sum of a row is one contraction (``einsum``, no BLAS) of the
pole-subtracted integrand with fixed trapezoid weights; the row's pole
cluster is then merged in.  Rows are independent bitwise: a value does
not depend on which other frequencies share the call, so a scalar call
gives the bits of the same frequency in any array.  Nothing is cached: a
caller that needs gamma at many frequencies asks for all of them in one
call.  The static quadrature nodes are built once per kernel call.
Negative frequencies are folded by complex conjugation, so Hermitian
analyticity holds bitwise.  ``kk_reconstruct`` is a row-chunked matrix
form of the Kramers-Kronig sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GridResolutionError,
    InputError,
    KernelSupportError,
    QuadratureError,
    ResponsePoleError,
)

__all__ = [
    "NuZero",
    "NuConstant",
    "NuTabulated",
    "MediumParams",
    "reservoir_kernel",
    "gamma_response",
    "chi1",
    "kk_reconstruct",
]

@dataclass(frozen=True)
class NuZero:
    """No reservoir coupling: the medium is lossless."""

    def q(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def support_end(self):
        return 0.0

    def breakpoints(self):
        return np.asarray([])


@dataclass(frozen=True)
class NuConstant:
    """Flat coupling ``nu0`` up to a sharp cutoff ``omega_cut``."""

    nu0: float
    omega_cut: float

    def __post_init__(self):
        if self.omega_cut <= 0:
            raise InputError("omega_cut must be positive")

    def q(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= self.omega_cut, abs(self.nu0) ** 2, 0.0)

    def support_end(self):
        return float(self.omega_cut)

    def breakpoints(self):
        return np.asarray([self.omega_cut])


@dataclass(frozen=True, eq=False)
class NuTabulated:
    """Coupling sampled on an ascending frequency grid.

    ``|nu|**2`` is interpolated linearly between samples and is zero
    outside the tabulated range.  Identity semantics (``eq=False``): a
    table equals only itself, which keeps it, and a medium holding it,
    hashable; numpy fields have no single truth value to compare by.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values)
        if grid.ndim != 1 or grid.size < 2:
            raise InputError("tabulated coupling needs at least two grid points")
        if np.any(np.diff(grid) <= 0) or grid[0] < 0:
            raise InputError("tabulated grid must be ascending and non-negative")
        if values.shape != grid.shape:
            raise InputError("tabulated grid/values shape mismatch")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def q(self, x):
        x = np.asarray(x, dtype=float)
        qtab = np.abs(self.values) ** 2
        return np.interp(x, self.grid, qtab, left=0.0, right=0.0)

    def support_end(self):
        return float(self.grid[-1])

    def breakpoints(self):
        return self.grid


@dataclass(frozen=True)
class MediumParams:
    """All constants of the oscillator + reservoir model.

    Normalized units (``eps0 = mu0 = 1``) are the default; SI values can be
    supplied through the config.  The reservoir mass density ``rho`` is
    taken constant in frequency.  The kernel's pole prescription is taken
    in its limit analytically (principal value plus half residue), so there
    is no regulator parameter.
    """

    omega0: float
    chi_s: float
    alpha: float
    rho: float
    nu: NuZero | NuConstant | NuTabulated = field(default_factory=NuZero)
    g: int = 1
    eps0: float = 1.0
    mu0: float = 1.0
    loop_cutoff: float = 20.0

    def __post_init__(self):
        if self.omega0 <= 0:
            raise InputError("omega0 must be positive")
        if self.chi_s <= 0:
            raise InputError("chi_s must be positive")
        if self.rho <= 0:
            raise InputError("rho must be positive")
        if self.loop_cutoff <= self.omega0:
            raise InputError("loop_cutoff must exceed omega0")
        if self.g not in (0, 1):
            raise InputError("g must be 0 or 1")
        if self.eps0 <= 0 or self.mu0 <= 0:
            raise InputError("vacuum constants must be positive")


# Row chunks keep every (rows x nodes) temporary of the kernel and of the
# Kramers-Kronig sum at or below this many elements (256 KiB of float64).
# Larger chunks save little Python overhead, and past this size the
# allocator tends to map and unmap each temporary afresh, so page faults
# take more time than the arithmetic.
_CHUNK_ELEMENTS = 1 << 15
# The cluster merge keeps about a dozen (rows x 48) temporaries alive at
# once; a quarter of the element budget each keeps them below 1 MiB.
_CLUSTER_ROWS = _CHUNK_ELEMENTS // 4 // 48
_CLUSTER_STEPS = np.arange(24.0)
_TINY = np.finfo(float).tiny


def _cluster(center, span, floor):
    """Geometric node cluster on both sides of ``center``, ascending.

    ``center`` and ``span`` may be arrays; each row then holds the 48 nodes
    of one center.  The offsets are ``np.geomspace(floor, span, 24)``
    spelled out: the library call alone costs about a quarter of a one-row
    kernel evaluation.
    """
    log_floor = np.log10(floor)
    span = np.asarray(span, dtype=float)[..., None]
    offs = 10.0 ** (_CLUSTER_STEPS * ((np.log10(span) - log_floor) / 23) + log_floor)
    offs[..., 0] = floor
    offs[..., -1:] = span
    center = np.asarray(center)[..., None]
    return np.concatenate([center - offs[..., ::-1], center + offs], axis=-1)


def _static_nodes(nu, upper: float, n_base: int = 1500):
    """Pole-independent quadrature nodes, shared by every row of one kernel call.

    Returns the nodes, their squares, the coupling values on them, the
    half interval widths and the trapezoid weights of the nodes
    (``half_dx[k - 1] + half_dx[k]``).
    """
    floor = 1e-9 * upper
    parts = [np.linspace(0.0, upper, n_base)]
    breaks = np.atleast_1d(nu.breakpoints())
    parts.append(breaks[(breaks > 0.0) & (breaks < upper)])
    # the support edge can carry a jump in q; resolve it geometrically
    edge = float(nu.support_end())
    span = 0.25 * min(edge, upper - edge)
    if 0.0 < edge < upper and span > floor:
        parts.append(_cluster(edge, span, floor))
    nodes = np.unique(np.concatenate(parts))
    nodes = nodes[(nodes >= 0.0) & (nodes <= upper)]
    half = np.concatenate([[0.0], 0.5 * np.diff(nodes), [0.0]])
    weights = half[:-1] + half[1:]
    return nodes, nodes * nodes, np.asarray(nu.q(nodes), dtype=float), half[1:-1], weights


def _pv_rows(nu, upper: float, w: np.ndarray, qw: np.ndarray) -> np.ndarray:
    """PV of integral_0^upper q(x) / (x**2 - w**2) dx for each 0 < w < upper.

    ``qw`` holds q(w).  Every row is a trapezoid sum over the shared static
    nodes merged with a 48-node geometric cluster around its own pole.  The
    pole is subtracted (q(x) -> q(x) - q(w)) and added back through the
    closed-form primitive of 1/(x**2 - w**2).

    The base sum of a row is one contraction of the integrand on the static
    nodes with their trapezoid weights.  The cluster is merged by position,
    not by sorting: each base interval that receives cluster nodes is
    subtracted once from the base sum and the pieces it is cut into are
    added instead.  A row thus sums the trapezoid terms of its merged node
    list.  Base sums and cluster merges go in separate row chunks, sized
    for their temporaries: a base row spans every static node, a cluster
    row 48 nodes.  Rows are computed independently of each other, so a
    value does not depend, to the bit, on which other frequencies share
    the call.
    """
    nodes = _static_nodes(nu, upper)
    x, x2, q, _, weights = nodes
    runs = _pole_runs(x, w, 1e-13 * max(upper, 1.0))
    step = max(1, _CHUNK_ELEMENTS // x.size)
    # one workspace for every chunk: fresh (rows x nodes) temporaries per
    # chunk let the allocator return and re-fault their pages each time
    work = np.empty((2, min(step, w.size), x.size))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pv = np.concatenate(
            [_base_sums(x2, q, weights, w[i : i + step], qw[i : i + step], work) for i in range(0, w.size, step)]
        )
        step = _CLUSTER_ROWS
        for i in range(0, w.size, step):
            k = slice(*np.searchsorted(runs[0], [i, i + step]))
            chunk_runs = (runs[0][k] - i, runs[1][k], runs[2][k])
            _merge_clusters(nu, upper, nodes, w[i : i + step], qw[i : i + step], pv[i : i + step], chunk_runs)
    # PV int_0^U dx/(x^2-w^2) = ln((U-w)/(U+w)) / (2w)
    pv += qw * np.log((upper - w) / (upper + w)) / (2.0 * w)
    if not np.isfinite(pv).all():
        raise QuadratureError("kernel quadrature failed")
    return pv


def _base_sums(x2, q, weights, w, qw, work):
    """Trapezoid sums of the pole-subtracted integrand on the static nodes.

    The (rows x nodes) arrays live in ``work``, two buffers of at least
    ``w.size`` rows.  Each buffer is first filled with its row column
    (q(w), w**2), which is then subtracted in place from the node vector:
    numpy subtracts two full-size operands several times faster than it
    broadcasts a per-row scalar, and the bits are the same.  The
    contraction is an ``einsum``, not a matrix product: BLAS may sum a row
    in an order that depends on how many rows share the call.
    """
    return np.einsum("ij,j->i", _integrand(x2, q, w, qw, work), weights)


def _integrand(x2, q, w, qw, work):
    """(q(x) - q(w)) / (x**2 - w**2) on the static nodes, one row per w, in ``work[1]``."""
    den, f = work[:, : w.size]
    np.copyto(f, qw[:, None])
    np.copyto(den, (w * w)[:, None])
    return np.divide(np.subtract(q, f, out=f), np.subtract(x2, den, out=den), out=f)


def _merge_clusters(nu, upper, nodes, w, qw, total, runs):
    """Merge each row's pole cluster into its base sum ``total``, in place.

    Base nodes within ``tol = 1e-13 * max(upper, 1)`` of a row's pole are
    dropped from its merged node list: ``runs`` holds them as arrays
    ``(rows, a, b)`` for x[a..b] (see ``_pole_runs``).  Cluster nodes keep
    at least ``floor`` from the pole, which exceeds ``tol`` whenever
    ``upper > 1e-4``.  The integrand on a
    dropped node may be inf or nan, so the base sums of all such rows are
    contracted again in one ``einsum``, as in ``_base_sums``, with each
    row's run set to zero.
    """
    x, x2, q, half_dx, weights = nodes
    floor = 1e-9 * upper
    span = 0.5 * np.minimum(w, upper - w)
    rows = np.flatnonzero(span > floor)
    r = rows[:, None]
    qr, w2r = qw[r], (w * w)[r]
    e = _cluster(w[rows], span[rows], floor)
    g = (np.asarray(nu.q(e), dtype=float) - qr) / (e * e - w2r)
    s = np.searchsorted(x, e, side="right")  # x[s - 1] <= e < x[s]
    # cluster node k shares its base interval with node k - 1
    same = s[:, 1:] == s[:, :-1]
    base_left = (q[s - 1] - qr) / (x2[s - 1] - w2r)
    base_right = (q[s] - qr) / (x2[s] - w2r)
    # each cut base interval leaves the base sum once, at its first node
    cut = half_dx[s - 1] * (base_left + base_right)
    cut[:, 1:][same] = 0.0
    prev_x = x[s - 1]
    prev_x[:, 1:][same] = e[:, :-1][same]
    prev_f = base_left
    prev_f[:, 1:][same] = g[:, :-1][same]
    left = (e - prev_x) * (g + prev_f) / 2.0
    right = (x[s] - e) * (base_right + g) / 2.0
    right[:, :-1][same] = 0.0
    i, a, b = runs
    if i.size:
        # drop every interval touching the run a..b, then bridge its merged
        # neighbours; the innermost cluster nodes 23 and 24 straddle the run
        f = _integrand(x2, q, w[i], qw[i], np.empty((2, i.size, x.size)))
        cols = np.arange(x.size)
        f[(cols >= a[:, None]) & (cols <= b[:, None])] = 0.0
        total[i] = np.einsum("ij,j->i", f, weights)
        # the dropped base intervals are lo..hi-1; rows of one length sum as one array
        lo, hi = np.maximum(a - 1, 0), np.minimum(b + 1, x.size - 1)
        dropped = np.empty(i.size)
        for m in np.unique(hi - lo).tolist():
            sel = np.flatnonzero(hi - lo == m)
            j = lo[sel, None] + np.arange(m)
            dropped[sel] = (half_dx[j] * (f[sel[:, None], j] + f[sel[:, None], j + 1])).sum(axis=1)
        total[i] -= dropped
        # the bridge runs from node lo (or cluster node 23) to node hi (or 24)
        has_lo, has_hi = a > 0, b + 1 < x.size
        lo_x, lo_f = x[lo], f[np.arange(i.size), lo]
        hi_x, hi_f = x[hi], f[np.arange(i.size), hi]
        k = np.searchsorted(rows, i)
        clustered = np.flatnonzero(k < rows.size)
        clustered = clustered[rows[k[clustered]] == i[clustered]]
        k = k[clustered]
        cut[k] = np.where((s[k] > lo[clustered, None]) & (s[k] <= hi[clustered, None]), 0.0, cut[k])
        hit = s[k, 23] == a[clustered]
        inner, k_hit = clustered[hit], k[hit]
        lo_x[inner], lo_f[inner], has_lo[inner] = e[k_hit, 23], g[k_hit, 23], True
        right[k_hit, 23] = 0.0
        hit = s[k, 24] == b[clustered] + 1
        inner, k_hit = clustered[hit], k[hit]
        hi_x[inner], hi_f[inner], has_hi[inner] = e[k_hit, 24], g[k_hit, 24], True
        left[k_hit, 24] = 0.0
        both = has_lo & has_hi
        total[i[both]] += (hi_x[both] - lo_x[both]) * (hi_f[both] + lo_f[both]) / 2.0
    total[rows] += (left + right - cut).sum(axis=1)


def _pole_runs(x, w, tol):
    """Arrays ``(rows, a, b)``: each row, ascending, whose pole lies within ``tol`` of the nodes x[a..b]."""
    lo, hi = np.searchsorted(x, w + np.asarray([[-2.0 * tol], [2.0 * tol]]))
    rows = np.flatnonzero(hi > lo)
    if rows.size == 0:  # the usual case, and most of the cost of a one-row call
        return rows, rows, rows
    # a row's candidates x[lo..hi-1], padded to the widest row
    cand = lo[rows, None] + np.arange(max((hi - lo).max(initial=0), 1))
    near = (cand < hi[rows, None]) & (np.abs(x[np.minimum(cand, x.size - 1)] - w[rows, None]) <= tol)
    hit = near.any(axis=1)
    first, last = near.argmax(axis=1), near.shape[1] - 1 - near[:, ::-1].argmax(axis=1)
    return rows[hit], cand[hit, first[hit]], cand[hit, last[hit]]


def _kernel(params: MediumParams, w: np.ndarray) -> np.ndarray:
    """Reservoir kernel at positive frequencies (a 1-D array), one row each."""
    if not (w < params.loop_cutoff).all():
        raise KernelSupportError("frequency outside kernel support")
    out = np.zeros(w.shape, dtype=complex)
    if isinstance(params.nu, NuZero) or w.size == 0:
        return out
    qw = np.asarray(params.nu.q(w), dtype=float)
    w2 = w * w
    scale = w2 / params.rho
    out.real = scale * _pv_rows(params.nu, params.loop_cutoff, w, qw)
    # where w*w underflows, pi*q/(2w) may overflow: cancel the w first
    with np.errstate(over="ignore", invalid="ignore"):
        out.imag = np.where(w2 < _TINY, (w / params.rho) * (math.pi * qw / 2.0), scale * (math.pi * qw / (2.0 * w)))
    return out


def _shaped(values: np.ndarray, w: np.ndarray):
    """``values``, evaluated on ``w.reshape(-1)``, in the shape of ``w``; a Python complex for a scalar ``w``."""
    return complex(values[0]) if w.ndim == 0 else values.reshape(w.shape)


def reservoir_kernel(params: MediumParams, omega):
    """Reservoir kernel sigma at a frequency or an array of frequencies.

    Returns complex values of the shape of ``omega``, a Python complex for
    a scalar.  One ``_kernel`` call evaluates each distinct nonzero
    |omega| once; ``sigma(0) = 0`` exactly.  ``Im sigma(w) >= 0`` for
    ``w > 0`` (passive prescription), and negative frequencies are folded
    by conjugation, so ``sigma(-w) = conj(sigma(w))`` holds bitwise.
    """
    w = np.asarray(omega, dtype=float)
    flat = w.reshape(-1)
    a = np.abs(flat)
    out = np.zeros(a.shape, dtype=complex)
    nonzero = a != 0.0
    distinct, inverse = np.unique(a[nonzero], return_inverse=True)
    out[nonzero] = _kernel(params, distinct)[inverse]
    return _shaped(np.where(flat < 0.0, out.conj(), out), w)


def gamma_response(params: MediumParams, omega):
    """Composite matter+reservoir response gamma (``Gamma = gamma I``), with one kernel call.

    Shapes as for ``reservoir_kernel``.  The static limit
    ``gamma(0) = eps0 chi_s`` is exact, and negative frequencies are folded
    by conjugation.  A pole is a denominator below 1e-14 of its static
    value omega0**2, a test that does not depend on the unit of frequency.
    """
    w = np.asarray(omega, dtype=float)
    flat = w.reshape(-1)
    a = np.abs(flat)
    w0sq = params.omega0**2
    sigma = reservoir_kernel(params, a)
    den = w0sq - a**2 - a**2 * w0sq * params.eps0 * params.chi_s * sigma
    if np.any(np.abs(den) < 1e-14 * w0sq):
        raise ResponsePoleError("response pole hit")
    gamma = params.eps0 * w0sq * params.chi_s / den
    gamma[a == 0.0] = params.eps0 * params.chi_s
    return _shaped(np.where(flat < 0.0, gamma.conj(), gamma), w)


def chi1(params: MediumParams, omega):
    """Linear susceptibility chi1 = g gamma / eps0 (``chi1 I`` as a tensor).

    Shapes as for ``reservoir_kernel``.  Outside a medium (g = 0) chi1 is
    exactly zero and no kernel is evaluated.
    """
    w = np.asarray(omega, dtype=float)
    if params.g == 0:
        return _shaped(np.zeros(w.size, dtype=complex), w)
    return _shaped(gamma_response(params, w.reshape(-1)) / params.eps0, w)


def kk_reconstruct(freq_grid, im_part) -> np.ndarray:
    """Reconstruct Re chi from Im chi via the single-sided Kramers-Kronig sum.

        Re chi(w) = (2/pi) PV integral_0^W  x Im chi(x) / (x**2 - w**2) dx

    The grid holds non-negative frequencies; oddness of Im chi in omega is
    assumed (used implicitly by the folded form).  The principal value is a
    trapezoidal sum with the two intervals adjacent to the singular node
    excluded and replaced by the local expansion

        PV int_{w-a}^{w+b} G(x)/(x-w) dx ~ G(w) ln(b/a) + G'(w) (a+b),

    with ``G(x) = x Im chi(x) / (x + w)``.  Endpoint nodes carry no local
    correction and are less accurate; the causality diagnostics only use
    interior points.

    Raises ``GridResolutionError`` when adjacent samples in the significant
    region of Im chi jump by more than 50%.
    """
    grid = np.asarray(freq_grid, dtype=float)
    im = np.asarray(im_part, dtype=float)
    if grid.ndim != 1 or grid.size < 8:
        raise InputError("kk_reconstruct needs an ascending grid of at least 8 points")
    if im.shape != grid.shape:
        raise InputError("freq_grid and im_part shape mismatch")
    if np.any(np.diff(grid) <= 0):
        raise InputError("freq_grid must be strictly increasing")

    peak = float(np.max(np.abs(im)))
    if peak > 0.0:
        lo = np.abs(im[:-1])
        hi = np.abs(im[1:])
        big = np.maximum(lo, hi)
        significant = big > 0.01 * peak
        jump = np.abs(np.diff(im))
        with np.errstate(invalid="ignore", divide="ignore"):
            rel = np.where(significant, jump / np.where(big > 0, big, 1.0), 0.0)
        if np.any(rel > 0.5):
            raise GridResolutionError("grid under-resolves resonance")

    n = grid.size
    f = grid * im  # numerator x * Im chi(x)
    x2 = grid * grid
    # half[j] is half the width of the interval ending at node j
    half = np.concatenate([[0.0], 0.5 * np.diff(grid), [0.0]])
    weights = half[:-1] + half[1:]  # trapezoid weights of the full grid
    total = np.empty(n)
    step = max(1, _CHUNK_ELEMENTS // n)
    for start in range(0, n, step):
        i = np.arange(start, min(start + step, n))
        r = np.arange(i.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            integrand = f / (x2 - x2[i, None])
        # leave out the two intervals adjacent to the singular node i
        integrand[r, i] = 0.0
        below = integrand[r, np.maximum(i - 1, 0)]
        above = integrand[r, np.minimum(i + 1, n - 1)]
        total[i] = integrand @ weights - half[i] * below - half[i + 1] * above
    # local correction over the excluded window, interior nodes only
    w = grid[1:-1]
    a = w - grid[:-2]
    b = grid[2:] - w
    g_lo = f[:-2] / (grid[:-2] + w)
    g_hi = f[2:] / (grid[2:] + w)
    total[1:-1] += f[1:-1] / (w + w) * np.log(b / a) + (g_hi - g_lo) / (a + b) * (a + b)
    re = (2.0 / math.pi) * total
    if grid[0] == 0.0:
        # Re chi(0) = (2/pi) int Im chi(x)/x dx; Im chi is odd so the
        # integrand is finite at x = 0.
        vals = np.empty(n)
        vals[1:] = im[1:] / grid[1:]
        vals[0] = im[1] / grid[1]
        re[0] = (2.0 / math.pi) * np.trapezoid(vals, grid)
    return re
