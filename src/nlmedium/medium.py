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

Evaluation: one principal-value quadrature serves every caller.  It takes
an array of positive frequencies, one quadrature row each, and runs them
in chunks that keep every temporary at or below 2**15 elements.
``chi1_spectrum`` evaluates a whole grid with one such call.  gamma has
one implementation, on arrays (``_gamma_values``); ``chi1``,
``chi1_scalar`` and ``gamma_response`` read it at one frequency through
one cache per (medium, |frequency|), and ``reservoir_kernel`` reads the
kernel the same way, uncached, so scalar values equal array values
bitwise.  Negative frequencies are folded by complex conjugation, so
Hermitian analyticity holds bitwise.  ``kk_reconstruct`` is a row-chunked
matrix form of the Kramers-Kronig sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

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
    "Rank2Response",
    "reservoir_kernel",
    "gamma_response",
    "chi1",
    "chi1_scalar",
    "chi1_spectrum",
    "kk_reconstruct",
    "nu_from_config",
]

_IDENTITY3 = np.eye(3)


@dataclass(frozen=True)
class NuZero:
    """No reservoir coupling: the medium is lossless."""

    def q(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def support_end(self):
        return 0.0

    def breakpoints(self):
        return np.asarray([])

    def to_config(self):
        return {"type": "zero"}


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

    def to_config(self):
        return {"type": "constant", "nu0": self.nu0, "omega_cut": self.omega_cut}


@dataclass(frozen=True, eq=False)
class NuTabulated:
    """Coupling sampled on an ascending frequency grid.

    ``|nu|**2`` is interpolated linearly between samples and is zero
    outside the tabulated range.  Identity semantics (``eq=False``) keep the
    instance hashable for quadrature-node caching.
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

    def to_config(self):
        vals = np.asarray(self.values)
        if np.iscomplexobj(vals):
            out = [[float(v.real), float(v.imag)] for v in vals]
        else:
            out = [float(v) for v in vals]
        return {"type": "tabulated", "grid": [float(g) for g in self.grid], "values": out}


def nu_from_config(cfg) -> NuZero | NuConstant | NuTabulated:
    """Build a coupling spec from its JSON form (see ``to_config``)."""
    if cfg is None:
        return NuZero()
    _reject_unknown_keys("medium.nu", cfg, ("type", "nu0", "omega_cut", "grid", "values"))
    kind = cfg.get("type", "zero")
    if kind == "zero":
        return NuZero()
    if kind == "constant":
        nu0 = _config_value("medium.nu", cfg, "nu0", float)
        return NuConstant(nu0=nu0, omega_cut=_config_value("medium.nu", cfg, "omega_cut", float))
    if kind == "tabulated":
        values = _config_value("medium.nu", cfg, "values", _tabulated_values)
        grid = _config_value("medium.nu", cfg, "grid", lambda v: np.asarray(v, dtype=float))
        return NuTabulated(grid=grid, values=values)
    raise InputError(f"unknown coupling type {kind!r}")


def _tabulated_values(entries) -> np.ndarray:
    return np.asarray([complex(v[0], v[1]) if isinstance(v, (list, tuple)) else float(v) for v in entries])


_REQUIRED = object()


def _config_value(section: str, cfg: dict, key: str, convert, default=_REQUIRED):
    """``convert(cfg[key])``, with ``default`` standing in for an absent key.

    A missing key without a default, or a value that ``convert`` rejects
    with ``TypeError`` or ``ValueError``, raises ``InputError`` naming the
    section and the key.
    """
    value = cfg.get(key, default)
    if value is _REQUIRED:
        raise InputError(f"config section {section!r} needs key {key!r}")
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise InputError(f"bad value for key {key!r} in config section {section!r}") from None


def _reject_unknown_keys(section: str, cfg: dict, known) -> None:
    """Raise ``InputError`` naming the first key of ``cfg`` not in ``known``."""
    if not isinstance(cfg, dict):
        raise InputError(f"config section {section!r} must be an object")
    unknown = sorted(set(cfg) - set(known))
    if unknown:
        raise InputError(f"unknown key {unknown[0]!r} in config section {section!r}")


@dataclass(frozen=True)
class MediumParams:
    """All constants of the oscillator + reservoir model.

    Normalized units (``eps0 = mu0 = 1``) are the default; SI values can be
    supplied through the config.  The reservoir mass density ``rho`` is
    taken constant in frequency.  The kernel's pole prescription is taken
    in its limit analytically (principal value plus half residue), so there
    is no regulator parameter; ``from_config`` still accepts and ignores an
    ``ieps`` key so that older configs keep loading.
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

    @classmethod
    def from_config(cls, cfg: dict) -> "MediumParams":
        _reject_unknown_keys("medium", cfg, (*cls.__dataclass_fields__, "ieps"))
        omega0 = _config_value("medium", cfg, "omega0", float)
        return cls(
            omega0=omega0,
            chi_s=_config_value("medium", cfg, "chi_s", float),
            alpha=_config_value("medium", cfg, "alpha", float, 1.0),
            rho=_config_value("medium", cfg, "rho", float),
            nu=nu_from_config(cfg.get("nu")),
            g=_config_value("medium", cfg, "g", int, 1),
            eps0=_config_value("medium", cfg, "eps0", float, 1.0),
            mu0=_config_value("medium", cfg, "mu0", float, 1.0),
            loop_cutoff=_config_value("medium", cfg, "loop_cutoff", float, 20.0 * omega0),
        )

    def to_config(self) -> dict:
        return {
            "omega0": self.omega0,
            "chi_s": self.chi_s,
            "alpha": self.alpha,
            "rho": self.rho,
            "nu": self.nu.to_config(),
            "g": self.g,
            "eps0": self.eps0,
            "mu0": self.mu0,
            "loop_cutoff": self.loop_cutoff,
        }


@dataclass(frozen=True)
class Rank2Response:
    """A 3x3 complex response sampled on an ascending frequency grid."""

    freq_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.freq_grid, dtype=float)
        vals = np.asarray(self.values, dtype=complex)
        if grid.ndim != 1 or np.any(np.diff(grid) <= 0):
            raise InputError("freq_grid must be strictly increasing")
        if vals.shape != (grid.size, 3, 3):
            raise InputError("values must have shape (n, 3, 3)")
        object.__setattr__(self, "freq_grid", grid)
        object.__setattr__(self, "values", vals)

    def max_anisotropy(self) -> float:
        """Largest deviation from scalar-times-identity, relative to the diagonal."""
        iso = self.values[:, 0, 0][:, None, None] * _IDENTITY3
        dev = np.max(np.abs(self.values - iso), axis=(1, 2))
        scale = np.max(np.abs(np.einsum("nii->ni", self.values)), axis=1)
        return float(np.max(dev / np.where(scale > 0, scale, 1.0)))


# Row chunks keep every (rows x nodes) temporary of the kernel and of the
# Kramers-Kronig sum at or below this many elements (256 KiB of float64).
# Larger chunks save little Python overhead, and past this size the
# allocator tends to map and unmap each temporary afresh, so page faults
# take more time than the arithmetic.
_CHUNK_ELEMENTS = 1 << 15
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


@lru_cache(maxsize=64)
def _static_nodes(nu, upper: float, n_base: int = 1500):
    """Pole-independent quadrature nodes, shared by every target frequency.

    Returns the nodes, their squares, the coupling values on them and the
    half interval widths.
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
    return nodes, nodes * nodes, np.asarray(nu.q(nodes), dtype=float), 0.5 * np.diff(nodes)


def _pv_rows(nu, upper: float, w: np.ndarray, qw: np.ndarray) -> np.ndarray:
    """PV of integral_0^upper q(x) / (x**2 - w**2) dx for each 0 < w < upper.

    ``qw`` holds q(w).  Every row is a trapezoid sum over the shared static
    nodes merged with a 48-node geometric cluster around its own pole.  The
    pole is subtracted (q(x) -> q(x) - q(w)) and added back through the
    closed-form primitive of 1/(x**2 - w**2).  Rows are computed
    independently of each other, in chunks that bound the temporaries, so
    a value does not depend on which other frequencies share the call.
    """
    nodes = _static_nodes(nu, upper)
    step = max(1, _CHUNK_ELEMENTS // nodes[0].size)
    # one workspace for every chunk: fresh (rows x nodes) temporaries per
    # chunk let the allocator return and re-fault their pages each time
    work = np.empty((3, min(step, w.size), nodes[0].size))
    pv = np.concatenate(
        [
            _pv_chunk(nu, upper, w[i : i + step], qw[i : i + step], *nodes, work)
            for i in range(0, w.size, step)
        ]
    )
    # PV int_0^U dx/(x^2-w^2) = ln((U-w)/(U+w)) / (2w)
    pv += qw * np.log((upper - w) / (upper + w)) / (2.0 * w)
    if not np.isfinite(pv).all():
        raise QuadratureError("kernel quadrature failed")
    return pv


def _pv_chunk(nu, upper, w, qw, x, x2, q, half_dx, work):
    """Trapezoid sums of the pole-subtracted integrand for one row chunk.

    The cluster is merged by position, not by sorting: a base interval that
    receives cluster nodes drops out of the base sum and the pieces it is
    cut into are added instead.  A row thus sums exactly the trapezoid
    terms of its merged node list.  A base node within ``tol`` of the pole
    is dropped from that list; cluster nodes keep at least ``floor`` from
    the pole, which exceeds ``tol`` whenever ``upper > 1e-4``.  The
    (rows x nodes) arrays live in ``work``, three buffers of at least
    ``w.size`` rows.
    """
    floor = 1e-9 * upper
    tol = 1e-13 * max(upper, 1.0)
    qw = qw[:, None]
    w2 = (w * w)[:, None]
    span = 0.5 * np.minimum(w, upper - w)
    rows = np.flatnonzero(span > floor)
    r = rows[:, None]
    num, den, f = work[:, : w.size]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f = np.divide(np.subtract(q, qw, out=num), np.subtract(x2, w2, out=den), out=f)
        terms = np.multiply(half_dx, np.add(f[:, 1:], f[:, :-1], out=num[:, :-1]), out=num[:, :-1])
        e = _cluster(w[rows], span[rows], floor)
        g = (np.asarray(nu.q(e), dtype=float) - qw[rows]) / (e * e - w2[rows])
        s = np.searchsorted(x, e, side="right")  # x[s - 1] <= e < x[s]
        terms[r, s - 1] = 0.0
        # cluster node k shares its base interval with node k - 1
        same = s[:, 1:] == s[:, :-1]
        prev_x = x[s - 1]
        prev_x[:, 1:][same] = e[:, :-1][same]
        prev_f = f[r, s - 1]
        prev_f[:, 1:][same] = g[:, :-1][same]
        left = (e - prev_x) * (g + prev_f) / 2.0
        right = (x[s] - e) * (f[r, s] + g) / 2.0
        right[:, :-1][same] = 0.0
    bridge = np.zeros(w.size)
    lo, hi = np.searchsorted(x, w + np.asarray([[-2.0 * tol], [2.0 * tol]]))
    for i in np.flatnonzero(hi > lo):
        near = lo[i] + np.flatnonzero(np.abs(x[lo[i] : hi[i]] - w[i]) <= tol)
        if near.size == 0:
            continue
        a, b = near[0], near[-1]
        # drop every term touching the run a..b, then bridge its merged
        # neighbours; the innermost cluster nodes 23 and 24 straddle the run
        terms[i, max(a - 1, 0) : b + 1] = 0.0
        prev = (x[a - 1], f[i, a - 1]) if a > 0 else None
        succ = (x[b + 1], f[i, b + 1]) if b + 1 < x.size else None
        k = np.searchsorted(rows, i)
        if k < rows.size and rows[k] == i:
            if s[k, 23] == a:
                prev = (e[k, 23], g[k, 23])
                right[k, 23] = 0.0
            if s[k, 24] == b + 1:
                succ = (e[k, 24], g[k, 24])
                left[k, 24] = 0.0
        if prev is not None and succ is not None:
            bridge[i] = (succ[0] - prev[0]) * (succ[1] + prev[1]) / 2.0
    total = terms.sum(axis=1) + bridge
    total[rows] += (left + right).sum(axis=1)
    return total


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


def _sigma_values(params: MediumParams, omega) -> np.ndarray:
    """Reservoir kernel on a frequency array; Hermitian analyticity is exact by folding."""
    w = np.asarray(omega, dtype=float)
    a = np.abs(w)
    out = np.zeros(w.shape, dtype=complex)
    nonzero = a != 0.0
    out[nonzero] = _kernel(params, a[nonzero])
    return np.where(w < 0.0, out.conj(), out)


def _isotropic(value: complex) -> np.ndarray:
    """``value`` times the 3x3 identity, with the diagonal holding ``value`` exactly."""
    return np.diag(np.full(3, value, dtype=complex))


def reservoir_kernel(params: MediumParams, omega: float) -> np.ndarray:
    """Reservoir kernel sigma(omega) as an isotropic 3x3 complex matrix.

    ``Im sigma(w) >= 0`` for ``w > 0`` (passive prescription) and
    ``sigma(-w) = conj(sigma(w))`` holds bitwise.
    """
    return _isotropic(_sigma_values(params, np.asarray([float(omega)]))[0])


def _gamma_values(params: MediumParams, omega) -> np.ndarray:
    """Composite response gamma on a frequency array, with one kernel call.

    The one implementation of gamma; scalar callers read it through the
    cache of ``_gamma_scalar``.  The static limit ``gamma(0) = eps0 chi_s``
    is exact, and negative frequencies are folded by conjugation.  A pole
    is a denominator below 1e-14 of its static value omega0**2, a test
    that does not depend on the unit of frequency.
    """
    w = np.asarray(omega, dtype=float)
    a = np.abs(w)
    w0sq = params.omega0**2
    sigma = _sigma_values(params, a)
    den = w0sq - a**2 - a**2 * w0sq * params.eps0 * params.chi_s * sigma
    if np.any(np.abs(den) < 1e-14 * w0sq):
        raise ResponsePoleError("response pole hit")
    gamma = params.eps0 * w0sq * params.chi_s / den
    gamma[a == 0.0] = params.eps0 * params.chi_s
    return np.where(w < 0.0, gamma.conj(), gamma)


@lru_cache(maxsize=1 << 16)
def _gamma_magnitude(params: MediumParams, omega: float) -> complex:
    """``_gamma_values`` at one frequency omega >= 0, cached per (medium, frequency)."""
    return complex(_gamma_values(params, np.asarray([omega]))[0])


def _gamma_scalar(params: MediumParams, omega: float) -> complex:
    """``_gamma_values`` at one frequency, bitwise.

    The cache holds |omega|; omega < 0 is conjugated, the fold that
    ``_gamma_values`` applies, so both signs share one entry.
    """
    value = _gamma_magnitude(params, abs(omega))
    return value.conjugate() if omega < 0.0 else value


def gamma_response(params: MediumParams, omega: float) -> np.ndarray:
    """Composite matter+reservoir response Gamma(omega), 3x3 complex."""
    return _isotropic(_gamma_scalar(params, float(omega)))


def chi1(params: MediumParams, omega: float) -> np.ndarray:
    """Linear susceptibility chi1(omega) = g * Gamma(omega) / eps0."""
    return _isotropic(chi1_scalar(params, omega))


def chi1_scalar(params: MediumParams, omega: float) -> complex:
    """Scalar value of the (isotropic) linear susceptibility."""
    if params.g == 0:
        return 0.0 + 0.0j
    return _gamma_scalar(params, float(omega)) / params.eps0


def chi1_spectrum(params: MediumParams, freq_grid) -> Rank2Response:
    """Sample chi1 on a frequency grid in one vectorised pass.

    One kernel call covers the whole grid, in row chunks of bounded size.
    Values agree with ``chi1`` point by point to rounding.
    """
    grid = np.asarray(freq_grid, dtype=float)
    if params.g == 0:
        return Rank2Response(freq_grid=grid, values=np.zeros((grid.size, 3, 3), dtype=complex))
    gamma = _gamma_values(params, grid)
    return Rank2Response(
        freq_grid=grid, values=gamma[:, None, None] * np.eye(3, dtype=complex) / params.eps0
    )


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
