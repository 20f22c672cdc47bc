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
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .fock import (
    FermionMonomial,
    SiteWindow,
    _batches,
    _build_stack,
    _product,
    _reflects,
    _transpose_blocks,
    build_matrix,
)
from .model import ModelOperators, supercharge_term

__all__ = [
    "ConservationSequence",
    "enumerate_sequences",
    "enumerate_union",
    "charge_monomial",
    "verify_annihilation",
    "verify_commutation",
]

_CHAR = {-1: "-", 1: "+"}
_VALUE = {"-": -1, "+": 1}


def _alternates(a: int, b: int, c: int) -> bool:
    """The forbidden-triplet rule, for 0/1 bits and for -1/+1 values alike."""
    return a != b != c


# The transfer table of the forbidden-triplet rule.  A 0/1 word of odd size
# ``>= 3`` is admissible when both two-letter edge pairs are constant and no
# triplet centred at an even offset alternates; under ``-1 <-> 0`` these are
# the conservation sequences, and on a window with an even low edge the
# open-boundary ground configurations.  Bit ``p`` of a packed word is the
# letter at offset ``p``.  Such a word is one of the two constant left pairs,
# then pairs ``(2j, 2j + 1)`` whose triplet centred at ``2j`` reaches back to
# the letter before them, then a last letter that repeats its neighbour.
# ``_STEPS[a]`` lists, in lexicographic order, the pairs ``(b, c)`` that may
# follow the odd-offset letter ``a``.
_STEPS = tuple(
    tuple((b, c) for b, c in product((0, 1), repeat=2) if not _alternates(a, b, c))
    for a in (0, 1)
)


def _words(size: int) -> np.ndarray:
    """Every admissible word of odd ``size >= 3`` (see ``_STEPS``) as one
    int64 array, in lexicographic order.

    After letter ``a`` at offset ``p - 1``, a pair ``(p, p + 1)`` takes the
    three steps ``_STEPS[a]``; each word so far grows into its three
    extensions, in order, from one of the two constant left pairs, and the
    last letter repeats its neighbour.
    """
    if size > 62:
        raise ValueError(f"words of {size} letters do not fit in int64")
    choices = np.array([[b | c << 1 for b, c in steps] for steps in _STEPS], dtype=np.int64)
    words = np.array([0b00, 0b11], dtype=np.int64)
    for p in range(2, size - 1, 2):
        grown = np.take(choices << p, (words >> (p - 1)) & 1, axis=0)
        grown |= words[:, None]
        words = grown.ravel()
    words |= ((words >> (size - 2)) & 1) << (size - 1)
    return words


def _rule_masks(size: int) -> Tuple[int, int]:
    """The forbidden-triplet rule for words of odd ``size >= 3`` (see
    ``_STEPS``) as two bit masks ``(edges, centres)``.

    Bit ``p`` of ``d = w ^ (w >> 1)`` is set where letters ``p`` and
    ``p + 1`` of a packed word ``w`` differ, so the edge pairs are constant
    when ``d & edges`` is 0 (bits ``0`` and ``size - 2``), and the triplet
    centred at an even offset ``p`` alternates exactly when bits ``p - 1``
    and ``p`` of ``d`` are both set, so none alternates when
    ``d & (d >> 1) & centres`` is 0 (bits ``p - 1``): the rule of
    ``_alternates``.
    """
    return 1 | 1 << (size - 2), sum(1 << (p - 1) for p in range(2, size - 1, 2))


def _admissible(words: np.ndarray, size: int) -> np.ndarray:
    """Which packed words (an int64 array, or one int) are admissible words
    of odd ``size >= 3``, by the masks of ``_rule_masks``; bits above
    ``size`` are ignored."""
    d = words ^ (words >> 1)
    edges, centres = _rule_masks(size)
    return ((d & edges) == 0) & ((d & (d >> 1) & centres) == 0)


def _first_word(size: int, pinned: Mapping[int, int]) -> Optional[int]:
    """The lexicographically first admissible word agreeing with ``pinned``, or None.

    ``pinned`` maps offsets to required letters.  A backward pass marks which
    letters at each odd offset the rest of the word can still follow under
    the pins; the forward pass then takes the first live step each time.
    Both take time linear in ``size``, however wide the window.
    """

    def fits(p: int, *letters: int) -> bool:
        return all(pinned.get(p + i, x) == x for i, x in enumerate(letters))

    live = [tuple(fits(size - 1, a) for a in (0, 1))]
    for p in range(size - 3, 1, -2):
        after = live[-1]
        live.append(tuple(any(fits(p, b, c) and after[c] for b, c in steps) for steps in _STEPS))
    live.reverse()  # live[j][a]: letter a at offset 2j + 1 can be followed
    a = next((a for a in (0, 1) if fits(0, a, a) and live[0][a]), None)
    if a is None:
        return None
    word = a | a << 1
    for j, p in enumerate(range(2, size - 1, 2), 1):
        b, a = next((b, c) for b, c in _STEPS[a] if fits(p, b, c) and live[j][c])
        word |= b << p | a << (p + 1)
    return word | a << (size - 1)


def _unpack(words: np.ndarray, size: int) -> np.ndarray:
    """The letters of packed words, one row per word."""
    return (words[:, None] >> np.arange(size)) & 1


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

    @property
    def sites(self) -> range:
        return range(2 * self.k, 2 * self.l + 1)

    def value_at(self, site: int) -> int:
        if not 2 * self.k <= site <= 2 * self.l:
            raise ValueError(f"site {site} outside interval [{2 * self.k}..{2 * self.l}]")
        return self.values[site - 2 * self.k]

    def to_string(self) -> str:
        return "".join(_CHAR[v] for v in self.values)


def enumerate_sequences(k: int, l: int) -> List[ConservationSequence]:
    """All conservation sequences on ``[2k..2l]``, in lexicographic order."""
    if k >= l:
        raise ValueError("k < l required")
    n = 2 * (l - k) + 1
    values = _unpack(_words(n), n) * 2 - 1
    # Admissible words only, so the sequences skip re-checking.
    return [ConservationSequence(k, l, v, check=False) for v in values.tolist()]


def enumerate_union(p: int, q: int) -> List[ConservationSequence]:
    """Union of the sequence spaces over all subintervals ``p <= k < l <= q``.

    Sequences on distinct intervals never collide, so the union is a plain
    concatenation, already in ``(k, l, values)`` order: ``k`` and ``l``
    ascend, and each interval's sequences come in lexicographic order.
    """
    if p >= q:
        raise ValueError("p < q required")
    out: List[ConservationSequence] = []
    for k in range(p, q):
        for l in range(k + 1, q + 1):
            out.extend(enumerate_sequences(k, l))
    return out


def charge_monomial(f: ConservationSequence) -> FermionMonomial:
    """The charge monomial of ``f``: increasing-order product of ``c``/``c*``."""
    factors = [(site, f.value_at(site) == 1) for site in f.sites]
    return FermionMonomial.increasing(factors)


def _charge_stacks(sequences: Sequence[ConservationSequence], window: SiteWindow) -> list:
    """The sequences' charge matrices on ``window``, which must contain every
    sequence interval, laid side by side: one pair ``(S, Sᵀ)`` of canonical
    wide ``(key, vals)`` per group of ``_batches(window, sequences)``, with
    ``Sᵀ`` the same blocks transposed."""
    for f in sequences:
        if not (window.lo <= 2 * f.k and 2 * f.l <= window.hi):
            raise ValueError("window does not contain the sequence interval")
    stacks = []
    for group in _batches(window, sequences):
        s = _build_stack([charge_monomial(f) for f in group], window)
        stacks.append((s, _transpose_blocks(window, *s)))
    return stacks


def verify_annihilation(
    sequences: Sequence[ConservationSequence],
    window: SiteWindow,
    stacks: Optional[list] = None,
) -> bool:
    """Exactly check that every charge kills every local supercharge term.

    For every triplet center whose triplet fits inside ``window`` and touches
    the sequence interval, all four products of the charge with ``q(i)`` and
    ``q*(i)`` (both orders) must be the zero matrix.  (Triplets disjoint from
    the interval commute or anticommute with the charge but their products do
    not vanish, so they are outside the claim.)

    The charges and their transposes are laid side by side as one wide
    matrix ``W = [S | Sᵀ]``.  Each center selects the entries of the blocks
    whose interval it meets and takes two wide products with them:
    ``q(i) Q(f)``, ``q*(i) Q(f)`` and the transposes
    ``(Q(f) q*(i))ᵀ = q(i) Q(f)ᵀ``, ``(Q(f) q(i))ᵀ = q*(i) Q(f)ᵀ``.
    ``stacks`` are ``_charge_stacks(sequences, window)``, when already built.
    """
    if stacks is None:
        stacks = _charge_stacks(sequences, window)
    shift = 2 * window.size
    for group, (s, st) in zip(_batches(window, sequences), stacks):
        key = np.concatenate((s[0], st[0] + (len(group) << shift)))
        vals = np.concatenate((s[1], st[1]))
        # 2i-1 >= lo and the triplet meets [2k..2l]; 2i+1 <= hi
        first = np.array([max((window.lo + 2) // 2, f.k) for f in group] * 2)
        last = np.array([min((window.hi - 1) // 2, f.l) for f in group] * 2)
        block = key >> shift
        entry_first, entry_last = first[block], last[block]
        for i in range(first.min(), last.max() + 1):
            meets = (entry_first <= i) & (i <= entry_last)
            if not meets.any():
                continue
            term, picked = build_matrix(supercharge_term(i), window), (key[meets], vals[meets])
            if any(_product(q, *picked)[0].size for q in (term, term.adjoint())):
                return False
    return True


def verify_commutation(
    sequences: Sequence[ConservationSequence],
    m: ModelOperators,
    stacks: Optional[list] = None,
) -> bool:
    """Exactly check the conservation law of every charge against a
    finite-interval model.

    Requires ``[H, Q(f)] = [H, Q(f)*] = 0`` and the stronger anticommutation
    of the charge with both supercharges.  The charges are laid side by side
    as one wide matrix ``S`` (see ``fock._build_stack``), and ``Sᵀ`` has every
    block transposed.  With ``C x = (xᵀ Cᵀ)ᵀ``, ``Qᵀ = Q*`` and ``Hᵀ = H``,
    six wide products decide all four identities, each by one comparison of
    whole arrays, ``ᵀ`` transposing every block: ``Q S = -(Q* Sᵀ)ᵀ``,
    ``Q* S = -(Q Sᵀ)ᵀ``, ``H S = (H Sᵀ)ᵀ`` and ``H Sᵀ = (H S)ᵀ``.
    ``stacks`` are ``_charge_stacks(sequences, m.window)``, when already built.
    """
    if stacks is None:
        stacks = _charge_stacks(sequences, m.window)
    w = m.window
    for s, st in stacks:
        q_s, qdag_s, h_s = (_product(x, *s) for x in (m.Q, m.Qdag, m.H))
        q_st, qdag_st, h_st = (_product(x, *st) for x in (m.Q, m.Qdag, m.H))
        if not (
            _reflects(w, q_s, qdag_st, -1)
            and _reflects(w, qdag_s, q_st, -1)
            and _reflects(w, h_s, h_st, 1)
            and _reflects(w, h_st, h_s, 1)
        ):
            return False
    return True
