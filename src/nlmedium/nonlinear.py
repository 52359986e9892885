"""Third-order response built from the quartic matter self-coupling.

The quartic coupling is a rank-4 tensor ``lam`` with pairwise-exchange
symmetry ``lam[m,n,a,b] == lam[a,b,m,n]``.  Dressing each of its four slots
with the composite linear response produces the building-block tensor
``lambda0``; contracting source legs onto it gives the compound tensors
used by the polynomial functional; expressing it through the linear
susceptibility gives the third-order susceptibility ``chi3``.

Frequency-slot convention: slot ``i`` of ``lambda0(w1, w2, w3, w4)``
carries the response evaluated at ``w_i``, and ``chi3(w; w1, w2, w3)``
assigns ``(w1, w2, w3, w)`` to the four slots, matching the explicit
two-permutation form

    chi3_{abmn} = (eps0**3 alpha**4 / 32) * [
        (lam_{gsrk}/4!) X_{ag}(w1) X_{bs}(w2) X_{mr}(w3) X_{nk}(w)
      + (lam_{gkrs}/4!) X_{ag}(w1) X_{nk}(w2) X_{mr}(w3) X_{bs}(w) ]

with ``X = chi1``.

``lambda0_tensor`` and ``chi3`` take scalar frequencies or broadcastable
arrays of them and return the broadcast shape plus (3, 3, 3, 3), with one
kernel call for every slot of every key.  A scalar is evaluated as a
one-element array, and each key is dressed on its own, so its tensor is
bitwise its row in any batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EnergyConservationError, InputError, MillerRatioError
from .medium import MediumParams, gamma_response

__all__ = [
    "lambda_isotropic",
    "validate_pairwise_symmetry",
    "lambda0_tensor",
    "SourceDressedTensors",
    "source_dressed_tensors",
    "chi3",
    "miller_ratio",
]

_FACT4 = 24.0  # 4!


def lambda_isotropic(l1: float, l2: float, l3: float) -> np.ndarray:
    """Isotropic rank-4 coupling from three scalar weights.

    lam[m,n,a,b] = l1 d_mn d_ab + l2 d_ma d_nb + l3 d_mb d_na,
    symmetrized over pairwise exchange (m,n) <-> (a,b).  The Kronecker
    structure is already pair-exchange symmetric, so symmetrization is a
    formality that keeps the invariant explicit.
    """
    d = np.eye(3)
    lam = (
        l1 * np.einsum("mn,ab->mnab", d, d)
        + l2 * np.einsum("ma,nb->mnab", d, d)
        + l3 * np.einsum("mb,na->mnab", d, d)
    )
    return 0.5 * (lam + lam.transpose(2, 3, 0, 1))


def validate_pairwise_symmetry(lam: np.ndarray, tol: float = 1e-14) -> None:
    """Raise if ``lam`` breaks pairwise-exchange symmetry beyond ``tol``."""
    lam = np.asarray(lam)
    if lam.shape != (3, 3, 3, 3):
        raise InputError("coupling tensor must have shape (3, 3, 3, 3)")
    dev = np.max(np.abs(lam - lam.transpose(2, 3, 0, 1)))
    scale = max(float(np.max(np.abs(lam))), 1.0)
    if dev > tol * scale:
        raise InputError("coupling tensor breaks pairwise-exchange symmetry")


def _dress(lam: np.ndarray, g: int, gammas) -> np.ndarray:
    """lambda0 from the composite responses of its four slots.

    The factor (g**4/4!) gamma1 gamma2 gamma3 gamma4 is multiplied up in
    slot order on the Python complex values ``gammas``, so its bits do not
    depend on how many frequencies shared the kernel call.  Outside a
    medium (g = 0) lambda0 is zero and ``gammas`` is not read.
    """
    if g == 0:
        return np.zeros((3, 3, 3, 3), dtype=complex)
    factor = g**4 / _FACT4
    for gam in gammas:
        factor = factor * gam
    return factor * np.asarray(lam, dtype=complex)


def lambda0_tensor(lam: np.ndarray, medium: MediumParams, w1, w2, w3, w4) -> np.ndarray:
    """Quartic coupling dressed by four composite-response factors.

    lambda0 = (g**4/4!) gamma(w1) gamma(w2) gamma(w3) gamma(w4) lam, the
    isotropic (G = gamma I) form of
    (g**4/4!) lam[r,s,x,g] G_ar(w1) G_bs(w2) G_mx(w3) G_ng(w4).

    The frequencies are scalars or broadcastable arrays; the result has
    their broadcast shape plus (3, 3, 3, 3).  One kernel call gives gamma
    at every slot of every key, and each key is dressed on its own
    (``_dress``), so a key's tensor is bitwise the same in any batch.
    Outside a medium (g = 0) no gamma is evaluated.
    """
    keys = np.stack(np.broadcast_arrays(w1, w2, w3, w4), axis=-1).astype(float)
    gammas = gamma_response(medium, keys.reshape(-1)).tolist() if medium.g else [None] * keys.size
    tensors = [_dress(lam, medium.g, gammas[i : i + 4]) for i in range(0, len(gammas), 4)]
    return np.asarray(tensors, dtype=complex).reshape(keys.shape[:-1] + (3, 3, 3, 3))


@dataclass(frozen=True)
class SourceDressedTensors:
    """Compound tensors obtained by contracting source legs onto lambda0.

    Carries the source field ``f`` itself so downstream consumers (the
    polynomial assembly) can build the source-only term.
    """

    Lambda: np.ndarray
    Delta: np.ndarray
    Phi1: np.ndarray
    Phi2: np.ndarray
    Xi: np.ndarray
    f: np.ndarray


def source_dressed_tensors(lam0: np.ndarray, alpha: float, f: np.ndarray) -> SourceDressedTensors:
    """Contract source-field legs per the compound-tensor definitions.

    Lambda = lambda0 * alpha^4                 (no source legs)
    Delta_bmn = alpha^3 lambda0_abmn f_a
    Phi1_mn  = alpha^2 lambda0_abmn f_a f*_b
    Phi2_mn  = alpha   lambda0_abmn f_a f_b
    Xi_n     =         lambda0_abmn f_a f*_b f_m
    """
    lam0 = np.asarray(lam0, dtype=complex)
    f = np.asarray(f, dtype=complex)
    fc = np.conj(f)
    return SourceDressedTensors(
        Lambda=alpha**4 * lam0,
        Delta=alpha**3 * np.einsum("abmn,a->bmn", lam0, f),
        Phi1=alpha**2 * np.einsum("abmn,a,b->mn", lam0, f, fc),
        Phi2=alpha * np.einsum("abmn,a,b->mn", lam0, f, f),
        Xi=np.einsum("abmn,a,b,m->n", lam0, f, fc, f),
        f=f,
    )


def _check_energy(w, w1, w2, w3) -> None:
    """Raise unless w = w1 - w2 + w3 at every entry of the (broadcastable) frequencies."""
    w, w1, w2, w3 = quad = np.stack(np.broadcast_arrays(w, w1, w2, w3)).astype(float)
    if np.any(np.abs(w - (w1 - w2 + w3)) > 1e-9 * np.max(np.abs(quad), axis=0, initial=1e-300)):
        raise EnergyConservationError("energy conservation violated")


def _chi3_from(medium: MediumParams, lam0: np.ndarray) -> np.ndarray:
    """chi3 from the lambda0 of its slot frequencies (w1, w2, w3, w), on the last four axes."""
    return medium.alpha**4 / (32.0 * medium.eps0) * (lam0 + np.swapaxes(lam0, -3, -1))


def chi3(medium: MediumParams, lam: np.ndarray, w, w1, w2, w3) -> np.ndarray:
    """Third-order susceptibility chi3(w; w1, w2, w3), rank-4 complex.

    Requires w = w1 - w2 + w3.  Equals (Lambda_abmn + Lambda_anmb)/(32 eps0)
    with ``Lambda = alpha**4 lambda0`` and both terms carrying the slot
    frequencies (w1, w2, w3, w); since ``chi1 = g Gamma / eps0``, this is
    the two-permutation form of the module docstring.  The frequencies
    broadcast as in ``lambda0_tensor``, with one kernel call for all of
    them; the result has their shape plus (3, 3, 3, 3).
    """
    _check_energy(w, w1, w2, w3)
    return _chi3_from(medium, lambda0_tensor(lam, medium, w1, w2, w3, w))


def miller_ratio(medium: MediumParams, lam: np.ndarray, w, w1, w2, w3) -> np.ndarray:
    """chi3 divided by the product of the four scalar chi1 factors.

    For an isotropic medium the result is frequency independent; a constant
    ratio across frequency quadruples certifies the Miller factorization.
    One kernel call gives gamma at the four frequencies, which serve both
    the chi1 factors and chi3.
    """
    gammas = gamma_response(medium, [w1, w2, w3, w]).tolist() if medium.g else [0j] * 4
    factors = [gam / medium.eps0 for gam in gammas]
    if any(abs(c) < 1e-14 for c in factors):
        raise MillerRatioError("Miller ratio undefined at transparency point")
    _check_energy(w, w1, w2, w3)
    denom = np.prod(np.asarray(factors))
    return _chi3_from(medium, _dress(lam, medium.g, gammas)) / denom
