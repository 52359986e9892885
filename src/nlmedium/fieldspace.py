"""Photon-matter field space: kernels, propagators, loop dressing.

Plane-wave convention: the wavevector points along the z axis, so the
transverse projector is diag(1, 1, 0) for k > 0.  At k = 0 the curl term
vanishes and no direction is singled out, so the projector degenerates to
the identity and the kernel is invertible on the full space.

The quadratic photon kernel on the transverse subspace is

    K_tot(w, k) = eps0 w**2 - k**2/mu0 - g w**2 alpha**2 Gamma(w),

vanishing on the vacuum light cone for g = 0 (with eps0*mu0*c**2 = 1); its
transverse inverse is the photon Green function D.  Matter and mixing
blocks of the tree propagator matrix carry the occupancy flag g so that a
vacuum region decouples the sectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DysonPoleError, InputError, LoopConvergenceError, PropagatorPoleError
from .medium import MediumParams, _gamma_scalar, _gamma_values
from .nonlinear import _dress

__all__ = [
    "PlaneWaveContext",
    "PropagatorMatrix",
    "MeanField",
    "transverse_projector",
    "total_kernel",
    "photon_green",
    "total_source",
    "mean_fields",
    "tree_propagators",
    "vertex",
    "LoopQuadrature",
    "SelfEnergyResult",
    "self_energy",
    "DressedPropagators",
    "dyson_dress",
]


@dataclass(frozen=True)
class PlaneWaveContext:
    """One transverse plane-wave mode: |k|, polarization, frequency."""

    k: float
    polarization: np.ndarray
    omega: float

    def __post_init__(self):
        if self.k < 0:
            raise InputError("wavevector magnitude must be non-negative")
        pol = np.asarray(self.polarization, dtype=float)
        if pol.shape != (3,) or abs(pol @ pol - 1.0) > 1e-12:
            raise InputError("polarization must be a unit 3-vector")
        object.__setattr__(self, "polarization", pol)


def transverse_projector(k: float) -> np.ndarray:
    """P_T for a z-directed wavevector; identity in the k -> 0 limit."""
    if k == 0.0:
        return np.eye(3)
    return np.diag([1.0, 1.0, 0.0])


@dataclass(frozen=True)
class PropagatorMatrix:
    """2x2 block matrix of 3x3 propagators in {A, X} field space."""

    aa: np.ndarray
    ax: np.ndarray
    xa: np.ndarray
    xx: np.ndarray

    def block(self, i: str, j: str) -> np.ndarray:
        return {"AA": self.aa, "AX": self.ax, "XA": self.xa, "XX": self.xx}[i + j]

    def mixing_reciprocity_defect(self) -> float:
        """max |G_AX - G_XA^T|; zero for isotropic media."""
        return float(np.max(np.abs(self.ax - self.xa.T)))


@dataclass(frozen=True)
class MeanField:
    """Classical mean fields per frequency sample."""

    freq_grid: np.ndarray
    m: np.ndarray
    m_prime: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.freq_grid, dtype=float)
        m = np.asarray(self.m, dtype=complex)
        mp = np.asarray(self.m_prime, dtype=complex)
        if m.shape != (grid.size, 3) or mp.shape != (grid.size, 3):
            raise InputError("mean fields must be (n, 3) arrays on the grid")
        object.__setattr__(self, "freq_grid", grid)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "m_prime", mp)


def _gamma_at(medium: MediumParams, omega: float) -> complex | None:
    """gamma(omega) inside a medium; outside one (g = 0) nothing reads it, and it is not evaluated."""
    return _gamma_scalar(medium, float(omega)) if medium.g else None


def _kernel_terms(medium: MediumParams, ctx: PlaneWaveContext, gam) -> list:
    """The terms of K_tot(w, k), with ``gam = gamma(w)``: vacuum, transverse and, inside a medium, matter."""
    w = ctx.omega
    terms = [
        medium.eps0 * w**2 * np.eye(3, dtype=complex),
        -(ctx.k**2 / medium.mu0) * transverse_projector(ctx.k),
    ]
    if medium.g:
        terms.append(-(medium.g * w**2 * medium.alpha**2 * gam * np.eye(3)))
    return terms


def total_kernel(medium: MediumParams, ctx: PlaneWaveContext) -> np.ndarray:
    """Quadratic photon kernel K_tot(w, k), 3x3 complex."""
    return sum(_kernel_terms(medium, ctx, _gamma_at(medium, ctx.omega)))


def photon_green(medium: MediumParams, ctx: PlaneWaveContext) -> np.ndarray:
    """Inverse of K_tot on the transverse subspace.

    For k > 0 the longitudinal row/column of the result is zero; at k = 0
    the full 3x3 kernel is inverted.  Raises ``PropagatorPoleError`` when
    the restricted kernel is singular (undamped on-shell mode), that is
    when its terms cancel so far that |det| <= 1e-14 times the product of
    the row norms of the summed term magnitudes.  The test is scale-free:
    a kernel that is small only because w and k are (w**2 eps(w) I near
    w = 0) is not a pole.
    """
    return _photon_green(medium, ctx, _gamma_at(medium, ctx.omega))


def _photon_green(medium: MediumParams, ctx: PlaneWaveContext, gam) -> np.ndarray:
    """``photon_green`` with ``gam = gamma(w)`` given."""
    terms = _kernel_terms(medium, ctx, gam)
    kernel = sum(terms)
    scale = sum(np.abs(term) for term in terms)
    if ctx.k == 0.0:
        _check_regular(kernel, scale)
        return np.linalg.inv(kernel)
    sub = kernel[:2, :2]
    _check_regular(sub, scale[:2, :2])
    out = np.zeros((3, 3), dtype=complex)
    out[:2, :2] = np.linalg.inv(sub)
    return out


def _check_regular(matrix: np.ndarray, scale: np.ndarray) -> None:
    bound = float(np.prod(np.linalg.norm(scale, axis=1)))
    if abs(np.linalg.det(matrix)) <= 1e-14 * bound:
        raise PropagatorPoleError("propagator pole")


def total_source(medium: MediumParams, j_src, f_src, omega: float) -> np.ndarray:
    """Total linear source L(w) = i w [J + (alpha/2) g Gamma(w) f]."""
    j_src = np.asarray(j_src, dtype=complex)
    f_src = np.asarray(f_src, dtype=complex)
    coupled = j_src
    if medium.g and np.any(f_src):
        coupled = j_src + 0.5 * medium.alpha * medium.g * (_gamma_scalar(medium, float(omega)) * f_src)
    return 1j * omega * coupled


def mean_fields(freq_grid, l_tot_samples, d_samples) -> MeanField:
    """Mean fields from source and Green-function samples.

        m(w)  = i w D(w) L*(w),      m'(w) = i w D(w) L(w)

    (single-mode specialization of the spatial convolution; for the
    isotropic media treated here D is symmetric, so the index order of the
    contraction is immaterial).
    """
    grid = np.asarray(freq_grid, dtype=float)
    ls = np.asarray(l_tot_samples, dtype=complex)
    ds = np.asarray(d_samples, dtype=complex)
    if ls.shape != (grid.size, 3) or ds.shape != (grid.size, 3, 3):
        raise InputError("sample shapes must be (n, 3) and (n, 3, 3)")
    m = np.einsum("n,nab,nb->na", 1j * grid, ds, np.conj(ls))
    mp = np.einsum("n,nab,nb->na", 1j * grid, ds, ls)
    return MeanField(freq_grid=grid, m=m, m_prime=mp)


def tree_propagators(medium: MediumParams, ctx: PlaneWaveContext) -> PropagatorMatrix:
    """Tree-level propagator matrix at one (w, k) sample.

    G0_AA = D;  G0_XX = g (Gamma + alpha**2 w**2 Gamma D Gamma);
    G0_AX = g alpha w D Gamma;  G0_XA = g alpha w Gamma D.
    The response is isotropic, ``Gamma = gamma I``, so every block is a
    scalar combination of D and I, and G0_AX = G0_XA.  The matter and
    mixing blocks vanish outside the medium (g = 0).
    """
    return _tree_propagators(medium, ctx, _gamma_at(medium, ctx.omega))


def _tree_propagators(medium: MediumParams, ctx: PlaneWaveContext, gam) -> PropagatorMatrix:
    """``tree_propagators`` with ``gam = gamma(w)`` given."""
    d = _photon_green(medium, ctx, gam)
    if medium.g == 0:
        zero = np.zeros((3, 3), dtype=complex)
        return PropagatorMatrix(aa=d, ax=zero, xa=zero.copy(), xx=zero.copy())
    w = ctx.omega
    a = medium.alpha
    xx = gam * np.eye(3) + a**2 * w**2 * (gam * gam * d)
    mixing = a * w * (gam * d)
    return PropagatorMatrix(aa=d, ax=mixing, xa=mixing.copy(), xx=xx)


def _convert_leg(tensor: np.ndarray, axis: int, weight: np.ndarray) -> np.ndarray:
    """Contract one tensor leg with a 3x3 conversion weight."""
    converted = np.tensordot(weight, tensor, axes=([1], [axis]))
    return np.moveaxis(converted, 0, axis)


# Plain-star leg pairs of the (plain, star, plain, star) quartic pattern;
# the two-photon vertex class converts exactly one such pair.
_VERTEX_PAIRS = ((0, 1), (0, 3), (2, 1), (2, 3))


def vertex(lam0: np.ndarray, alpha: float, omega: float, photon_d: np.ndarray) -> np.ndarray:
    """Four-point vertex: matter kernel with 0, 2, or 4 photon legs.

    Each converted leg carries one factor of (alpha * w * D); the
    two-photon class sums over the four plain-star leg pairs.  With
    alpha = 0 only the all-matter contribution survives.
    """
    lam0 = np.asarray(lam0, dtype=complex)
    weight = alpha * omega * np.asarray(photon_d, dtype=complex)
    total = lam0.copy()
    for i, j in _VERTEX_PAIRS:
        total += _convert_leg(_convert_leg(lam0, i, weight), j, weight)
    all_legs = lam0
    for axis in range(4):
        all_legs = _convert_leg(all_legs, axis, weight)
    return total + all_legs


@dataclass(frozen=True)
class LoopQuadrature:
    """Trapezoidal loop-integral settings: node count and hard cutoff."""

    n_points: int
    cutoff: float

    def __post_init__(self):
        if self.n_points < 64:
            raise InputError("loop quadrature needs at least 64 points")
        if self.cutoff <= 0:
            raise InputError("loop cutoff must be positive")


@dataclass(frozen=True)
class SelfEnergyResult:
    """Loop integral value with its convergence diagnostics."""

    value: np.ndarray
    error_estimate: float
    discretization_error: float
    tail_error: float


def _loop_windows(quadrature: LoopQuadrature) -> tuple:
    """The three loop windows, each its non-negative half mirrored.

    [-cutoff, cutoff] at n nodes and at n // 2 nodes, and
    [-cutoff/2, cutoff/2] at n // 2 + 1 nodes (about the full window's
    spacing).  Each half is the upper half of the ``np.linspace`` window,
    with an exact 0.0 centre node when the count is odd, so a window equals
    its negated reverse bitwise and W and -W share one |W|.
    """
    cut = quadrature.cutoff
    n = quadrature.n_points
    windows = []
    for half_width, count in ((cut, n), (cut, n // 2), (cut / 2.0, n // 2 + 1)):
        half = np.linspace(-half_width, half_width, count)[count // 2 :]
        if count % 2:
            half[0] = 0.0
        windows.append(np.concatenate([-half[count % 2 :][::-1], half]))
    return tuple(windows)


def _loop_integrals(medium: MediumParams, quadrature: LoopQuadrature) -> tuple:
    """Scalar loop integrals J = integral dW/(2 pi) s(W) over the three windows.

    The internal line is the time-ordered tree matter block at k = 0, an
    isotropic ``s(W) I``.  For the Hermitian response used here it equals
    the physical branch at |W| (even in W); the retarded branch would
    integrate to zero over a symmetric window by upper-half analyticity.
    At k = 0, ``W**2 D(W, 0) = (eps0 - g alpha**2 Gamma(W))^-1`` exactly, so

        s(W) = g (Gamma + alpha**2 Gamma**2 / (eps0 - g alpha**2 Gamma))

    stays finite at W = 0.  The windows are those of ``_loop_windows``;
    being mirrored, they hold about n distinct |W| between them (8,191
    positive ones for n = 8192), and one response evaluation covers them
    all.  Returns (J_full, J_half, J_cut).
    """
    windows = _loop_windows(quadrature)
    absw, inverse = np.unique(np.abs(np.concatenate(windows)), return_inverse=True)
    gam = _gamma_values(medium, absw)
    m = medium.eps0 - medium.g * medium.alpha**2 * gam
    if np.any(m == 0.0):
        # W**2 D(W, 0) has a pole on a node: the matter block is singular
        node = float(absw[np.argmax(m == 0.0)])
        raise PropagatorPoleError(f"k = 0 photon kernel singular at loop node |W| = {node!r}")
    s = (medium.g * (gam + medium.alpha**2 * (gam * (gam / m))))[inverse]
    parts = np.split(s, np.cumsum([nodes.size for nodes in windows[:-1]]))
    return tuple(np.trapezoid(part, nodes) / (2.0 * np.pi) for part, nodes in zip(parts, windows))


def _loop_vertex(medium: MediumParams, lam: np.ndarray, omega: float, gam) -> np.ndarray:
    """Partial trace V_abbg of the four-point vertex at the external frequency, ``gam = gamma(omega)``."""
    pol = np.array([1.0, 0.0, 0.0])
    ctx_ext = PlaneWaveContext(k=0.0, polarization=pol, omega=float(omega))
    lam0 = _dress(lam, medium.g, (gam,) * 4)
    d_ext = _photon_green(medium, ctx_ext, gam)
    return np.einsum("abbg->ag", vertex(lam0, medium.alpha, omega, d_ext))


def _self_energy_from(trace: np.ndarray, integrals: tuple) -> SelfEnergyResult:
    """Self-energy and its error estimates from a vertex trace and the loop integrals."""
    j_full, j_half, j_cut = integrals
    full = trace * j_full
    # composite trapezoid is O(h^2): Richardson factor 1/3
    disc = float(np.max(np.abs(full - trace * j_half))) / 3.0
    tail = float(np.max(np.abs(full - trace * j_cut)))
    scale = float(np.max(np.abs(full)))
    if scale > 0.0 and disc > 0.1 * scale:
        raise LoopConvergenceError("loop integral not converged at this cutoff")
    return SelfEnergyResult(
        value=full, error_estimate=disc + tail, discretization_error=disc, tail_error=tail
    )


def _self_energy_sweep(medium: MediumParams, lam: np.ndarray, quadrature: LoopQuadrature):
    """``(omega, gamma(omega)) -> self_energy(medium, lam, omega, quadrature)`` for one sweep.

    The window integrals are evaluated at the first call and the
    self-energy once per frequency; both live only as long as the
    returned function.  Outside a medium (g = 0) gamma is not read.
    """
    integrals = []
    known = {}

    def at(omega: float, gam) -> SelfEnergyResult:
        if omega not in known:
            trace = _loop_vertex(medium, lam, omega, gam)
            if not integrals:
                integrals.extend(_loop_integrals(medium, quadrature))
            known[omega] = _self_energy_from(trace, integrals)
        return known[omega]

    return at


def self_energy(
    medium: MediumParams,
    lam: np.ndarray,
    omega: float,
    quadrature: LoopQuadrature,
) -> SelfEnergyResult:
    """One-loop self-energy of the matter sector.

        Pi_ag(w) = integral dW/(2 pi) V_abmg(w) G0_XX;bm(W)

    over [-cutoff, cutoff].  The external frequency enters only through
    the vertex V; the internal line is the tree matter propagator at
    k = 0, which is ``s(W) I`` for this isotropic medium.  The loop
    therefore factors into the partial trace ``V_abbg`` times one scalar
    window integral J (see ``_loop_integrals``), and the whole loop is
    three such integrals: the full window, the same window at half the
    nodes, and the half window at the same node spacing.  Each call
    evaluates them afresh; the ``dyson`` command evaluates them once per
    run and the self-energy once per frequency (``_self_energy_sweep``).

    The reported error estimate combines a trapezoid Richardson term
    (node count halved) with a cutoff-sensitivity term (window halved at
    fixed node spacing).  The integral is declared not converged when the
    discretization term alone exceeds 10% of the value magnitude; the
    window term is reported but does not gate, so deliberately narrow
    diagnostic windows (e.g. below an undamped resonance) stay usable.
    A loop node on a zero of ``eps0 - g alpha**2 Gamma(W)``, where the
    k = 0 photon kernel W**2 (eps0 - g alpha**2 Gamma) is singular, raises
    ``PropagatorPoleError`` naming the node.
    """
    return _self_energy_sweep(medium, lam, quadrature)(omega, _gamma_at(medium, omega))


@dataclass(frozen=True)
class DressedPropagators:
    """Both Dyson forms: single insertion and geometric resummation."""

    single: PropagatorMatrix
    resummed: PropagatorMatrix


def dyson_dress(g0: PropagatorMatrix, pi: np.ndarray) -> DressedPropagators:
    """Dress the tree propagators with a matter-block self-energy.

    The self-energy occupies only the XX block, so the Dyson series
    collapses to

        single:   G_ij = G0_ij + G0_iX (i Pi) G0_Xj
        resummed: G_ij = G0_ij + G0_iX (i Pi) (1 - G0_XX i Pi)^-1 G0_Xj

    Raises ``DysonPoleError`` when the resummation matrix is singular
    (a dressed resonance).
    """
    pi = np.asarray(pi, dtype=complex)
    if pi.shape != (3, 3):
        raise InputError("self-energy block must be 3x3")
    ipi = 1j * pi
    left = {"A": g0.ax, "X": g0.xx}
    right = {"A": g0.xa, "X": g0.xx}

    def build(middle):
        return PropagatorMatrix(
            aa=g0.aa + left["A"] @ middle @ right["A"],
            ax=g0.ax + left["A"] @ middle @ right["X"],
            xa=g0.xa + left["X"] @ middle @ right["A"],
            xx=g0.xx + left["X"] @ middle @ right["X"],
        )

    single = build(ipi)
    resum_matrix = np.eye(3, dtype=complex) - g0.xx @ ipi
    det = np.linalg.det(resum_matrix)
    if abs(det) < 1e-14 * max(1.0, float(np.max(np.abs(resum_matrix))) ** 3):
        raise DysonPoleError("Dyson resummation pole")
    middle = ipi @ np.linalg.inv(resum_matrix)
    resummed = build(middle)
    return DressedPropagators(single=single, resummed=resummed)
