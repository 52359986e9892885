"""Contraction-term catalogs for derivatives of the Gaussian functional.

Differentiating a Gaussian generating functional alternately with respect
to a complex source and its conjugate produces, at each order, a finite
catalog of terms: unpaired derivative slots become mean-field insertions
(``circle`` for a plain derivative, ``star`` for a conjugated one) and
paired slots become kernel contractions carrying a frequency delta.  Each
insertion and each contraction contributes one factor of ``i/(2*hbar)``.

The catalog is the exact analogue of the partial-pairing expansion of
non-central complex Gaussian moments, which is what :func:`isserlis_oracle`
computes by brute force; the two are compared term-for-term in the tests.

Bubble pruning is symbolic: a term whose contraction deltas, joined with an
external linear frequency constraint, force the constraint to vanish
identically is a disconnected vacuum term and is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CovarianceError, GridMismatchError, InputError, PatternError

__all__ = [
    "Leg",
    "Contraction",
    "WickTerm",
    "derivative_terms",
    "prune_vacuum_bubbles",
    "is_vacuum_bubble",
    "quartic_constraint",
    "EvaluationContext",
    "evaluate_term",
    "isserlis_oracle",
    "PTerm",
    "PolynomialTerms",
    "assemble_polynomial",
    "catalog_to_json",
]

CIRCLE = "circle"
STAR = "star"
PLAIN = "plain"

_SUPPORTED_PATTERNS = {
    ("plain",),
    ("plain", "star"),
    ("plain", "star", "plain"),
    ("plain", "star", "plain", "star"),
}


@dataclass(frozen=True)
class Leg:
    """One unpaired derivative slot kept as a mean-field insertion."""

    slot: int
    kind: str  # CIRCLE (plain derivative) or STAR (conjugated derivative)
    index: str


@dataclass(frozen=True)
class Contraction:
    """A kernel contraction pairing a plain slot with a starred slot."""

    plain_slot: int
    star_slot: int
    kernel: str = "Gamma"

    @property
    def slots(self):
        return (self.plain_slot, self.star_slot)


@dataclass(frozen=True)
class WickTerm:
    """One term of a derivative catalog.

    The numeric weight is ``coeff * (i/(2*hbar))**i2h_power`` with
    ``i2h_power = n_insertions + n_contractions``.
    """

    insertions: tuple
    contractions: tuple
    coeff: Fraction = Fraction(1)
    i2h_power: int = 0

    @property
    def n_contractions(self) -> int:
        return len(self.contractions)

    def conjugate(self) -> "WickTerm":
        """Flip every leg flag; the prefactor picks up (-1)**i2h_power."""
        flipped = tuple(
            Leg(slot=l.slot, kind=STAR if l.kind == CIRCLE else CIRCLE, index=l.index)
            for l in self.insertions
        )
        return WickTerm(
            insertions=flipped,
            contractions=self.contractions,
            coeff=self.coeff * (-1) ** self.i2h_power,
            i2h_power=self.i2h_power,
        )


def _canonical(insertions, contractions) -> WickTerm:
    ins = tuple(sorted(insertions, key=lambda l: l.slot))
    con = tuple(sorted(contractions, key=lambda c: c.slots))
    return WickTerm(insertions=ins, contractions=con, coeff=Fraction(1), i2h_power=len(ins) + len(con))


def _normalize_pattern(pattern):
    out = []
    for p in pattern:
        name = str(p).lower()
        if name in ("plain", "f", "circle"):
            out.append(PLAIN)
        elif name in ("star", "f*", "fstar", "conj"):
            out.append("star")
        else:
            raise PatternError("pattern not implemented")
    return tuple(out)


def _partial_matchings(plains, stars):
    """All partial matchings between plain and star slots, as pair lists.

    The first plain slot is left unpaired first, then paired with each
    star in turn; the remaining slots recurse in the same order.
    """
    if not plains or not stars:
        yield []
        return
    head, rest = plains[0], plains[1:]
    for m in _partial_matchings(rest, stars):
        yield m
    for k, s in enumerate(stars):
        for m in _partial_matchings(rest, stars[:k] + stars[k + 1 :]):
            yield [(head, s)] + m


def derivative_terms(order: int, pattern) -> list:
    """Full contraction catalog for a derivative of the given pattern.

    Supports the alternating patterns (f), (f, f*), (f, f*, f) and
    (f, f*, f, f*); the term counts are 1, 2, 3 and 7.  A plain slot
    becomes a circle insertion, a starred slot a star insertion, and
    contractions pair plain with starred slots only.
    """
    pat = _normalize_pattern(pattern)
    if order != len(pat):
        raise InputError("order must equal the pattern length")
    if pat not in _SUPPORTED_PATTERNS:
        raise PatternError("pattern not implemented")

    plain_slots = [i for i, p in enumerate(pat) if p == PLAIN]
    star_slots = [i for i, p in enumerate(pat) if p == "star"]

    terms = []
    for match in _partial_matchings(plain_slots, star_slots):
        paired = {s for pair in match for s in pair}
        insertions = [
            Leg(slot=i, kind=CIRCLE if pat[i] == PLAIN else STAR, index=f"i{i}")
            for i in range(order)
            if i not in paired
        ]
        contractions = [Contraction(plain_slot=p, star_slot=s) for p, s in match]
        terms.append(_canonical(insertions, contractions))
    terms.sort(key=lambda t: (t.n_contractions, tuple(c.slots for c in t.contractions)))
    return terms


def quartic_constraint(order: int = 4):
    """Alternating-sign frequency constraint sum_i (-1)**i w_i = 0."""
    return tuple((i, 1 if i % 2 == 0 else -1) for i in range(order))


def is_vacuum_bubble(term: WickTerm, constraint) -> bool:
    """True when the term's delta chain forces the constraint to delta(0).

    Slots joined by contractions are merged with a union-find; the term is
    a bubble when every merged group carries zero net constraint
    coefficient, i.e. the external delta degenerates to delta(0).
    """
    coeffs = dict(constraint)
    slots = set(coeffs)
    for c in term.contractions:
        slots.update(c.slots)
    for leg in term.insertions:
        slots.add(leg.slot)
    parent = {s: s for s in slots}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for c in term.contractions:
        ra, rb = find(c.plain_slot), find(c.star_slot)
        if ra != rb:
            parent[ra] = rb
    net = {}
    for s, coef in coeffs.items():
        r = find(s)
        net[r] = net.get(r, 0) + coef
    return all(v == 0 for v in net.values())


def prune_vacuum_bubbles(terms, constraint=None) -> list:
    """Drop the terms whose delta chains close the external constraint."""
    terms = list(terms)
    if constraint is None:
        order = max((max((c.star_slot for c in t.contractions), default=0) for t in terms), default=0)
        order = max(order, max((max((l.slot for l in t.insertions), default=0) for t in terms), default=0)) + 1
        constraint = quartic_constraint(order)
    return [t for t in terms if not is_vacuum_bubble(t, constraint)]


@dataclass(frozen=True)
class EvaluationContext:
    """Numeric inputs for evaluating a catalog term.

    means:    insertion value per slot (already the right kind).
    kernels:  contraction value keyed by (plain_slot, star_slot).
    freqs:    frequency assigned to each slot; a contraction whose two
              slot frequencies differ (beyond ``tol``) kills the term.
    hbar:     carried symbolically elsewhere; numeric value here.
    """

    means: dict
    kernels: dict
    freqs: dict
    hbar: float = 1.0
    tol: float = 0.0


def evaluate_term(term: WickTerm, context: EvaluationContext) -> complex:
    """Numeric value of one catalog term under a frequency assignment."""
    for c in term.contractions:
        fa = context.freqs[c.plain_slot]
        fb = context.freqs[c.star_slot]
        if abs(fa - fb) > context.tol:
            return 0.0 + 0.0j
    value = complex(term.coeff) * (1j / (2.0 * context.hbar)) ** term.i2h_power
    for leg in term.insertions:
        value *= context.means[leg.slot]
    for c in term.contractions:
        value *= context.kernels[(c.plain_slot, c.star_slot)]
    return value


def isserlis_oracle(mean, covariance, monomial) -> complex:
    """Non-central moment of a circular complex Gaussian by brute force.

    ``monomial`` lists (index, conjugated) factors, e.g.
    ``[(0, False), (0, True)]`` for E[z0 conj(z0)].  The expansion sums
    over all partial pairings of fluctuation factors; only plain-star
    pairs contribute, with value ``C[i, j]`` for ``dz_i dconj(z_j)``.
    """
    mu = np.asarray(mean, dtype=complex)
    cov = np.asarray(covariance, dtype=complex)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or mu.shape != (cov.shape[0],):
        raise CovarianceError("invalid covariance")
    if not np.allclose(cov, cov.conj().T, atol=1e-12 * max(1.0, float(np.max(np.abs(cov))))):
        raise CovarianceError("invalid covariance")
    eigs = np.linalg.eigvalsh(0.5 * (cov + cov.conj().T))
    if np.min(eigs) < -1e-10 * max(1.0, float(np.max(np.abs(eigs)))):
        raise CovarianceError("invalid covariance")
    factors = [(int(i), bool(c)) for i, c in monomial]
    if len(factors) > 8:
        raise InputError("monomial length is limited to 8")

    def expand(rest):
        if not rest:
            return 1.0 + 0.0j
        (i, ci), tail = rest[0], rest[1:]
        total = (np.conj(mu[i]) if ci else mu[i]) * expand(tail)
        for k, (j, cj) in enumerate(tail):
            if ci == cj:
                continue
            pair = cov[i, j] if not ci else cov[j, i]
            total += pair * expand(tail[:k] + tail[k + 1 :])
        return total

    return complex(expand(tuple(factors)))


# --- polynomial functional -------------------------------------------------

# Leg dictionary: a plain (E) leg inserts m'; a starred (E*) leg inserts m;
# a plain-star pairing contributes w_p * w_s * D(w_s) with a Kronecker
# delta on the two slot frequencies.
_CLASSES = (
    # (bucket, label, tensor attr, coefficient, leg kinds, conjugate tensor)
    (0, "lambda0_ffff", "_p0", 1, (), False),
    (1, "xi", "Xi", -2, ("star",), False),
    (1, "xi_cc", "Xi", -2, ("plain",), True),
    (2, "phi1", "Phi1", 4, ("plain", "star"), False),
    (2, "phi2", "Phi2", 1, ("star", "star"), False),
    (2, "phi2_cc", "Phi2", 1, ("plain", "plain"), True),
    (3, "delta", "Delta", -2, ("star", "plain", "star"), False),
    (3, "delta_cc", "Delta", -2, ("plain", "star", "plain"), True),
    (4, "lambda", "Lambda", 1, ("plain", "star", "plain", "star"), False),
)


@dataclass(frozen=True)
class PTerm:
    """One assembled polynomial term with its numeric value."""

    label: str
    coefficient: int
    insertions: tuple  # ((kind, freq_slot), ...)
    pairings: tuple  # ((slot_i, slot_j), ...)
    conjugated: bool
    value: complex


@dataclass(frozen=True)
class PolynomialTerms:
    """Term lists of the polynomial functional, bucketed by E-leg count."""

    p0: tuple
    p1: tuple
    p2: tuple
    p3: tuple
    p4: tuple

    def bucket(self, k: int):
        return (self.p0, self.p1, self.p2, self.p3, self.p4)[k]


def _contract_class(tensor, kinds, match, quad, m_ins, mp_ins, d_mats, tol):
    """Value of one assembled term: pairings then insertions."""
    work = np.asarray(tensor, dtype=complex)
    if work.ndim != len(kinds):
        raise InputError("tensor rank does not match its leg pattern")
    paired = {s for pair in match for s in pair}
    # apply pairings: contract axes (i, j) with w_i w_j D(w_j)
    axes = list(range(len(kinds)))
    for i, j in match:
        if abs(quad[i] - quad[j]) > tol:
            return 0.0 + 0.0j
    value_tensor = work
    for i, j in sorted(match):
        ai, aj = axes.index(i), axes.index(j)
        d = quad[i] * quad[j] * d_mats[j]
        value_tensor = np.tensordot(value_tensor, d, axes=([ai, aj], [0, 1]))
        axes.remove(i)
        axes.remove(j)
    for slot in sorted(paired ^ set(range(len(kinds))), reverse=False):
        a = axes.index(slot)
        vec = mp_ins[slot] if kinds[slot] == "plain" else m_ins[slot]
        value_tensor = np.tensordot(value_tensor, vec, axes=([a], [0]))
        axes.remove(slot)
    return complex(value_tensor)


def assemble_polynomial(tensors, mean_fields, photon_green, tol: float = 0.0) -> PolynomialTerms:
    """Assemble the polynomial-functional terms on a frequency quadruple.

    ``mean_fields`` and ``photon_green`` must be sampled on the same
    four-point frequency grid (the quadruple).  Terms whose tensor class is
    identically zero are omitted; the remaining terms carry their numeric
    value under the quadruple assignment, with pairings enforcing exact
    frequency matching.
    """
    quad = np.asarray(mean_fields.freq_grid, dtype=float)
    dg = np.asarray(photon_green.freq_grid, dtype=float)
    if quad.shape != (4,) or dg.shape != (4,) or np.any(quad != dg):
        raise GridMismatchError("frequency grid mismatch")
    d_mats = [np.asarray(photon_green.values[i], dtype=complex) for i in range(4)]
    m_ins = [np.asarray(mean_fields.m[i], dtype=complex) for i in range(4)]
    mp_ins = [np.asarray(mean_fields.m_prime[i], dtype=complex) for i in range(4)]

    f = np.asarray(tensors.f, dtype=complex)
    p0_value = complex(np.einsum("n,n->", np.asarray(tensors.Xi, dtype=complex), np.conj(f)))

    buckets = {k: [] for k in range(5)}
    for bucket, label, attr, coeff, kinds, conj in _CLASSES:
        tensor = p0_value if attr == "_p0" else np.asarray(getattr(tensors, attr), dtype=complex)
        if conj:
            tensor = np.conj(tensor)
        if not np.any(tensor):
            continue
        if attr == "_p0":
            buckets[0].append(
                PTerm(label=label, coefficient=coeff, insertions=(), pairings=(), conjugated=False, value=p0_value)
            )
            continue
        plains = [i for i, k in enumerate(kinds) if k == "plain"]
        stars = [i for i, k in enumerate(kinds) if k == "star"]
        for match in _partial_matchings(plains, stars):
            value = _contract_class(tensor, kinds, match, quad, m_ins, mp_ins, d_mats, tol)
            paired = {s for pair in match for s in pair}
            insertions = tuple((kinds[i], i) for i in range(len(kinds)) if i not in paired)
            buckets[bucket].append(
                PTerm(
                    label=label,
                    coefficient=coeff,
                    insertions=insertions,
                    pairings=tuple(sorted(match)),
                    conjugated=conj,
                    value=value,
                )
            )
    return PolynomialTerms(
        p0=tuple(buckets[0]),
        p1=tuple(buckets[1]),
        p2=tuple(buckets[2]),
        p3=tuple(buckets[3]),
        p4=tuple(buckets[4]),
    )


def catalog_to_json(terms) -> list:
    """JSON-ready form of a term catalog: exact rationals plus i powers."""
    out = []
    for t in terms:
        out.append(
            {
                "legs": [{"slot": l.slot, "kind": l.kind, "index": l.index} for l in t.insertions],
                "contractions": [
                    {"slots": [c.plain_slot, c.star_slot], "kernel": c.kernel} for c in t.contractions
                ],
                "prefactor": {
                    "rational": [t.coeff.numerator, t.coeff.denominator * 2**t.i2h_power],
                    "i_power": t.i2h_power % 4,
                    "hbar_power": -t.i2h_power,
                },
            }
        )
    return out
