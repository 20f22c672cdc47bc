"""Hidden local fermion charges of the Nicolai chain.

A conservation sequence on the interval ``[2k..2l]`` is a {-1,+1} assignment
with no even-centered triplet patterned ``(-,+,-)`` or ``(+,-,+)`` and with
constant values on each two-site edge pair.  Mapping ``-1 -> c_i`` and
``+1 -> c*_i`` and multiplying in increasing site order turns each sequence
``f`` into an odd monomial charge ``Q(f)`` that kills every local supercharge
term from both sides, anticommutes with the full supercharge, and therefore
commutes with the Hamiltonian.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from itertools import product
from typing import Iterator, List, Mapping, Optional, Tuple

from .fock import (
    FermionMonomial,
    SiteWindow,
    anticommutator,
    build_matrix,
    commutator,
)
from .model import Interval, ModelOperators, supercharge_term

__all__ = [
    "ConservationSequence",
    "ChargeOperator",
    "enumerate_sequences",
    "enumerate_union",
    "build_charge",
    "charge_monomial",
    "negate",
    "verify_annihilation",
    "verify_commutation",
]

_CHAR = {-1: "-", 1: "+"}
_VALUE = {"-": -1, "+": 1}


def _alternates(a: int, b: int, c: int) -> bool:
    """The forbidden-triplet rule, for 0/1 bits and for -1/+1 values alike."""
    return a != b != c


def _walk(size: int, pinned: Optional[Mapping[int, int]] = None) -> Iterator[int]:
    """Every admissible 0/1 word of odd ``size >= 3``, lazily, in lexicographic order.

    A word is admissible when both two-letter edge pairs are constant and no
    triplet centred at an even offset alternates; under ``-1 <-> 0`` these are
    the conservation sequences, and on a window with an even low edge the
    open-boundary ground configurations.  Bit ``p`` of each yielded integer is
    the letter at offset ``p``.  ``pinned`` maps offsets to required letters.
    Choices that cannot be completed are pruned before the walk starts, so every
    branch it enters ends in a word: a pinned walk reaches its first word in
    time linear in ``size``.
    """
    care = want = 0
    for p, b in (pinned or {}).items():
        care |= 1 << p
        want |= b << p
    # Letter groups: the left edge pair, then the pairs (2j, 2j + 1) whose
    # triplet centred at 2j reaches back to the letter before them, then the
    # last letter, which must repeat its neighbour.
    groups = [(0, 1)] + [(p, p + 1) for p in range(2, size - 1, 2)] + [(size - 1,)]
    depth = len(groups) - 1
    # levels[j][a]: the (bits, last letter) choices of group j after letter a
    # that agree with the pins and that the later groups can complete.
    levels: List[Tuple[list, list]] = [([], [])] * len(groups)
    for j in range(depth, -1, -1):
        group = groups[j]
        mask = sum(1 << p for p in group)
        levels[j] = ([], [])
        for a, letters in product((0, 1), product((0, 1), repeat=len(group))):
            if j == 0:
                allowed = letters[0] == letters[1]
            elif j == depth:
                allowed = letters[0] == a
            else:
                allowed = not _alternates(a, *letters)
            bits = sum(b << p for b, p in zip(letters, group))
            if (
                allowed
                and (bits ^ want) & care & mask == 0
                and (j == depth or levels[j + 1][letters[-1]])
            ):
                levels[j][a].append((bits, letters[-1]))
    # Depth-first with an explicit stack of choice iterators, one per group,
    # because a pinned window can be far wider than the recursion limit.
    choices, words = [iter(levels[0][0])], [0]
    while choices:
        for bits, last in choices[-1]:
            word = words[-1] | bits
            if len(choices) > depth:
                yield word
            else:
                choices.append(iter(levels[len(choices)][last]))
                words.append(word)
                break
        else:
            choices.pop()
            words.pop()


def _constraint_violation(values: Tuple[int, ...]) -> Optional[str]:
    n = len(values)
    if n < 3 or n % 2 == 0:
        return f"need an odd number >= 3 of values, got {n}"
    if any(v not in (-1, 1) for v in values):
        return "values must be -1 or +1"
    if values[0] != values[1]:
        return "left edge pair must be constant"
    if values[-2] != values[-1]:
        return "right edge pair must be constant"
    # Positions 2i (even sites) with both neighbors inside the interval.
    for p in range(2, n - 1, 2):
        if _alternates(*values[p - 1 : p + 2]):
            return f"forbidden alternating triplet at offset {p}"
    return None


@dataclass(frozen=True, order=True)
class ConservationSequence:
    """A {-1,+1} conservation sequence on the interval ``[2k..2l]``."""

    k: int
    l: int
    values: Tuple[int, ...]
    check: InitVar[bool] = True

    def __post_init__(self, check):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if self.k >= self.l:
            raise ValueError("sequence interval requires k < l")
        if len(self.values) != 2 * (self.l - self.k) + 1:
            raise ValueError("one value per site of the interval required")
        if check:
            problem = _constraint_violation(self.values)
            if problem:
                raise ValueError(problem)

    @classmethod
    def from_string(cls, k: int, l: int, text: str, check: bool = True):
        if not set(text) <= set(_VALUE):
            raise ValueError(f"sequence letters must be '-' or '+', got {text!r}")
        return cls(k, l, tuple(_VALUE[ch] for ch in text), check)

    @classmethod
    def constant(cls, k: int, l: int, sign: int) -> "ConservationSequence":
        return cls(k, l, (sign,) * (2 * (l - k) + 1))

    @property
    def interval(self) -> Interval:
        return Interval(self.k, self.l)

    @property
    def sites(self) -> range:
        return range(2 * self.k, 2 * self.l + 1)

    def value_at(self, site: int) -> int:
        if not 2 * self.k <= site <= 2 * self.l:
            raise ValueError(f"site {site} outside interval [{2 * self.k}..{2 * self.l}]")
        return self.values[site - 2 * self.k]

    def to_string(self) -> str:
        return "".join(_CHAR[v] for v in self.values)

    def to_json(self) -> dict:
        return {"k": self.k, "l": self.l, "values": self.to_string()}

    @classmethod
    def from_json(cls, payload: dict) -> "ConservationSequence":
        return cls.from_string(int(payload["k"]), int(payload["l"]), payload["values"])


def negate(f: ConservationSequence) -> ConservationSequence:
    """Pointwise sign flip; the constraints are symmetric so it stays valid."""
    return ConservationSequence(f.k, f.l, tuple(-v for v in f.values))


def enumerate_sequences(k: int, l: int) -> List[ConservationSequence]:
    """All conservation sequences on ``[2k..2l]``, in lexicographic order."""
    if k >= l:
        raise ValueError("k < l required")
    n = 2 * (l - k) + 1
    # The walker yields admissible words only, so the sequences skip re-checking.
    return [
        ConservationSequence(
            k, l, tuple(((word >> p) & 1) * 2 - 1 for p in range(n)), check=False
        )
        for word in _walk(n)
    ]


def enumerate_union(p: int, q: int) -> List[ConservationSequence]:
    """Union of the sequence spaces over all subintervals ``p <= k < l <= q``.

    Sequences on distinct intervals never collide, so the union is a plain
    concatenation, sorted by ``(k, l, values)``.
    """
    if p >= q:
        raise ValueError("p < q required")
    out: List[ConservationSequence] = []
    for k in range(p, q):
        for l in range(k + 1, q + 1):
            out.extend(enumerate_sequences(k, l))
    return sorted(out)


def charge_monomial(f: ConservationSequence) -> FermionMonomial:
    """The charge monomial of ``f``: increasing-order product of ``c``/``c*``."""
    factors = [(site, f.value_at(site) == 1) for site in f.sites]
    return FermionMonomial.increasing(factors)


@dataclass(frozen=True)
class ChargeOperator:
    """A conservation sequence together with its charge monomial."""

    sequence: ConservationSequence
    monomial: FermionMonomial


def build_charge(f: ConservationSequence) -> ChargeOperator:
    return ChargeOperator(f, charge_monomial(f))


def verify_annihilation(f: ConservationSequence, window: SiteWindow) -> bool:
    """Exactly check that the charge kills every local supercharge term.

    For every triplet center whose triplet fits inside ``window`` and touches
    the sequence interval, all four products of the charge with ``q(i)`` and
    ``q*(i)`` (both orders) must be the zero matrix.  (Triplets disjoint from
    the interval commute or anticommute with the charge but their products do
    not vanish, so they are outside the claim.)
    """
    if not (window.lo <= 2 * f.k and 2 * f.l <= window.hi):
        raise ValueError("window does not contain the sequence interval")
    charge = build_matrix(charge_monomial(f), window)
    lo_center = max((window.lo + 2) // 2, f.k)  # 2i-1 >= lo and triplet meets [2k..2l]
    hi_center = min((window.hi - 1) // 2, f.l)  # 2i+1 <= hi
    for i in range(lo_center, hi_center + 1):
        term = build_matrix(supercharge_term(i), window)
        for other in (term, term.adjoint()):
            if not (charge @ other).is_zero():
                return False
            if not (other @ charge).is_zero():
                return False
    return True


def verify_commutation(f: ConservationSequence, m: ModelOperators) -> bool:
    """Exactly check the conservation law against a finite-interval model.

    Requires ``[H, Q(f)] = [H, Q(f)*] = 0`` and the stronger anticommutation
    of the charge with both supercharges.
    """
    if not (m.window.lo <= 2 * f.k and 2 * f.l <= m.window.hi):
        raise ValueError("sequence interval not inside the model window")
    charge = build_matrix(charge_monomial(f), m.window)
    return (
        anticommutator(m.Q, charge).is_zero()
        and anticommutator(m.Qdag, charge).is_zero()
        and commutator(m.H, charge).is_zero()
        and commutator(m.H, charge.adjoint()).is_zero()
    )
