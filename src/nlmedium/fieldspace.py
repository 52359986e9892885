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

The response is isotropic, ``Gamma = gamma I``, so every linear block is a
scalar times I or times diag(1, 1, 0):

    D = diag(d_T, d_T, d_L),  d_T = 1/K_T,  d_L = d_T at k = 0, 0 for k > 0,
    G0_XX = gamma I + alpha**2 w**2 gamma**2 D,  G0_AX = G0_XA = alpha w gamma D.

The Green function, the tree propagators and the self-energy are
evaluated as array formulas over samples (arrays of w, k and gamma(w)),
and the Dyson step over a stack of samples with one stacked inverse.  The
one-sample functions (``photon_green``, ``total_kernel``,
``tree_propagators``, ``self_energy``, ``dyson_dress``) evaluate
one-element arrays, so a sample's values are bitwise those it has in any
batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DysonPoleError, InputError, LoopConvergenceError, PropagatorPoleError
from .medium import MediumParams, gamma_response
from .nonlinear import _FACT4

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
    """2x2 block matrix of 3x3 propagators in {A, X} field space.

    The library's sample batches hold an (n, 3, 3) stack in each block.
    """

    aa: np.ndarray
    ax: np.ndarray
    xa: np.ndarray
    xx: np.ndarray

    def mixing_reciprocity_defect(self) -> float:
        """max |G_AX - G_XA^T|; zero for isotropic media."""
        return float(np.max(np.abs(self.ax - self.xa.T)))

    def _map(self, f) -> "PropagatorMatrix":
        return PropagatorMatrix(aa=f(self.aa), ax=f(self.ax), xa=f(self.xa), xx=f(self.xx))


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


def _one_sample(medium: MediumParams, ctx: PlaneWaveContext) -> tuple:
    """(k, w, gamma(w)) of one mode as one-element arrays; outside a medium (g = 0) gamma is None."""
    omega = np.asarray([float(ctx.omega)])
    return np.asarray([float(ctx.k)]), omega, gamma_response(medium, omega) if medium.g else None


def _kernel(medium: MediumParams, k, omega, gam) -> tuple:
    """Transverse kernel K_T(w, k) and its scale, the sum of its terms' magnitudes, on arrays."""
    vacuum = medium.eps0 * omega**2
    curl = k**2 / medium.mu0
    matter = medium.g * omega**2 * medium.alpha**2 * gam if medium.g else 0j
    return vacuum - curl - matter, np.abs(vacuum) + np.abs(curl) + np.abs(matter)


def _green(medium: MediumParams, k, omega, gam) -> np.ndarray:
    """The diagonal (d_T, d_T, d_L) of the photon Green function, one row per sample."""
    kernel, scale = _kernel(medium, k, omega, gam)
    if np.any(np.abs(kernel) <= 1e-7 * scale):
        raise PropagatorPoleError("propagator pole")
    d_t = 1.0 / kernel
    return np.stack([d_t, d_t, np.where(k == 0.0, d_t, 0.0)], axis=-1)


def _diagonal(rows: np.ndarray) -> np.ndarray:
    """An (n, 3, 3) stack of diagonal matrices from their (n, 3) diagonals."""
    out = np.zeros(rows.shape + (3,), dtype=complex)
    out[:, [0, 1, 2], [0, 1, 2]] = rows
    return out


def total_kernel(medium: MediumParams, ctx: PlaneWaveContext) -> np.ndarray:
    """Quadratic photon kernel K_tot(w, k), 3x3 complex.

    The longitudinal entry has no curl term: it is K_T at k = 0.
    """
    k, omega, gam = _one_sample(medium, ctx)
    k_t, k_l = (_kernel(medium, kv, omega, gam)[0][0] for kv in (k, 0.0))
    return np.diag([k_t, k_t, k_l])


def photon_green(medium: MediumParams, ctx: PlaneWaveContext) -> np.ndarray:
    """Inverse of K_tot on the transverse subspace.

    D = diag(d_T, d_T, d_L) with d_T = 1/K_T.  For k > 0 the longitudinal
    row and column are zero (d_L = 0); at k = 0 the kernel is K_T times the
    identity and d_L = d_T.  Raises ``PropagatorPoleError`` at an undamped
    on-shell mode, where the terms of K_T cancel so far that

        |K_T| <= 1e-7 (|eps0 w**2| + |k**2/mu0| + |g w**2 alpha**2 gamma|).

    The test is scale-free: a kernel that is small only because w and k
    are (w**2 eps(w) near w = 0) is not a pole.
    """
    return _diagonal(_green(medium, *_one_sample(medium, ctx)))[0]


def total_source(medium: MediumParams, j_src, f_src, omega: float) -> np.ndarray:
    """Total linear source L(w) = i w [J + (alpha/2) g Gamma(w) f]."""
    j_src = np.asarray(j_src, dtype=complex)
    f_src = np.asarray(f_src, dtype=complex)
    coupled = j_src
    if medium.g and np.any(f_src):
        coupled = j_src + 0.5 * medium.alpha * medium.g * (gamma_response(medium, float(omega)) * f_src)
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
    The response is isotropic, ``Gamma = gamma I``, so every block is
    diagonal (see the module docstring), and G0_AX = G0_XA.  The matter and
    mixing blocks vanish outside the medium (g = 0).
    """
    return _tree_propagators(medium, *_one_sample(medium, ctx))._map(lambda block: block[0])


def _tree_propagators(medium: MediumParams, k, omega, gam) -> PropagatorMatrix:
    """``tree_propagators`` on sample arrays k, w and ``gam = gamma(w)``: (n, 3, 3) blocks."""
    d = _green(medium, k, omega, gam)
    if medium.g == 0:
        zero = np.zeros(d.shape + (3,), dtype=complex)
        return PropagatorMatrix(aa=_diagonal(d), ax=zero, xa=zero.copy(), xx=zero.copy())
    w, gam = omega[:, None], gam[:, None]
    a = medium.alpha
    mixing = _diagonal(a * w * (gam * d))
    xx = _diagonal(gam + a**2 * w**2 * (gam * gam * d))
    return PropagatorMatrix(aa=_diagonal(d), ax=mixing, xa=mixing.copy(), xx=xx)


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
    """Loop integral value with its convergence diagnostics.

    On a frequency array each field holds one entry per frequency.
    """

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
    gam = gamma_response(medium, absw)
    m = medium.eps0 - medium.g * medium.alpha**2 * gam
    if np.any(m == 0.0):
        # W**2 D(W, 0) has a pole on a node: the matter block is singular
        node = float(absw[np.argmax(m == 0.0)])
        raise PropagatorPoleError(f"k = 0 photon kernel singular at loop node |W| = {node!r}")
    s = (medium.g * (gam + medium.alpha**2 * (gam * (gam / m))))[inverse]
    parts = np.split(s, np.cumsum([nodes.size for nodes in windows[:-1]]))
    return tuple(np.trapezoid(part, nodes) / (2.0 * np.pi) for part, nodes in zip(parts, windows))


def _loop_vertex(medium: MediumParams, lam: np.ndarray, omega: np.ndarray, gam) -> np.ndarray:
    """Partial trace V_abbg of the four-point vertex on a frequency array, ``gam = gamma(omega)``.

    At k = 0 the Green function is d I, so each converted leg of ``vertex``
    multiplies by c = alpha w d, and V = (1 + 4 c**2 + c**4) lambda0 with
    lambda0 = (g**4/4!) gamma**4 lam.  Raises ``PropagatorPoleError`` where
    the k = 0 kernel has a pole.
    """
    d = _green(medium, 0.0, omega, gam)[:, 0]
    if medium.g == 0:
        return np.zeros((omega.size, 3, 3), dtype=complex)
    c2 = (medium.alpha * omega * d) ** 2
    gam2 = gam * gam
    weight = (medium.g**4 / _FACT4) * (gam2 * gam2) * (1.0 + 4.0 * c2 + c2 * c2)
    return weight[:, None, None] * np.einsum("abbg->ag", np.asarray(lam, dtype=complex))


def _self_energy(medium: MediumParams, lam: np.ndarray, omega: np.ndarray, gam, quadrature) -> SelfEnergyResult:
    """``self_energy`` at each frequency of an array, ``gam = gamma(omega)``: one loop serves them all."""
    trace = _loop_vertex(medium, lam, omega, gam)
    j_full, j_half, j_cut = _loop_integrals(medium, quadrature)
    full = trace * j_full
    # composite trapezoid is O(h^2): Richardson factor 1/3
    disc = np.max(np.abs(full - trace * j_half), axis=(1, 2)) / 3.0
    tail = np.max(np.abs(full - trace * j_cut), axis=(1, 2))
    scale = np.max(np.abs(full), axis=(1, 2))
    if np.any((scale > 0.0) & (disc > 0.1 * scale)):
        raise LoopConvergenceError("loop integral not converged at this cutoff")
    return SelfEnergyResult(value=full, error_estimate=disc + tail, discretization_error=disc, tail_error=tail)


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
    nodes, and the half window at the same node spacing.  With the vertex
    in closed form (``_loop_vertex``),

        Pi(w) = (g**4/4!) gamma**4 (1 + 4 c**2 + c**4) J lam_abbg,   c = alpha w d(w, 0).

    Each call evaluates the window integrals afresh; the ``dyson`` command
    evaluates them, and the self-energy at all its frequencies, once.

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
    omega = np.asarray([float(omega)])
    res = _self_energy(medium, lam, omega, gamma_response(medium, omega) if medium.g else None, quadrature)
    return SelfEnergyResult(
        value=res.value[0],
        error_estimate=float(res.error_estimate[0]),
        discretization_error=float(res.discretization_error[0]),
        tail_error=float(res.tail_error[0]),
    )


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

    Pi is a general 3x3: the coupling may be anisotropic.  Raises
    ``DysonPoleError`` when the resummation matrix is singular (a dressed
    resonance), that is when |det| < 1e-14 max(1, max |entry|)**3.
    """
    pi = np.asarray(pi, dtype=complex)
    if pi.shape != (3, 3):
        raise InputError("self-energy block must be 3x3")
    stacked = g0._map(lambda block: np.asarray(block, dtype=complex)[None])
    dressed = _dyson_dress(stacked, pi[None])
    return DressedPropagators(*(g._map(lambda block: block[0]) for g in (dressed.single, dressed.resummed)))


def _dyson_dress(g0: PropagatorMatrix, pi: np.ndarray) -> DressedPropagators:
    """``dyson_dress`` over a stack of samples: (n, 3, 3) blocks and self-energies."""
    ipi = 1j * pi

    def build(middle):
        return PropagatorMatrix(
            aa=g0.aa + g0.ax @ middle @ g0.xa,
            ax=g0.ax + g0.ax @ middle @ g0.xx,
            xa=g0.xa + g0.xx @ middle @ g0.xa,
            xx=g0.xx + g0.xx @ middle @ g0.xx,
        )

    resum_matrix = np.eye(3) - g0.xx @ ipi
    bound = 1e-14 * np.maximum(1.0, np.max(np.abs(resum_matrix), axis=(1, 2))) ** 3
    if np.any(np.abs(np.linalg.det(resum_matrix)) < bound):
        raise DysonPoleError("Dyson resummation pole")
    return DressedPropagators(single=build(ipi), resummed=build(ipi @ np.linalg.inv(resum_matrix)))
