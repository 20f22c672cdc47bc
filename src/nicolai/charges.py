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

import operator
from dataclasses import InitVar, dataclass
from itertools import product
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .fock import (
    FermionMonomial,
    IntegerSparseOperator,
    SiteWindow,
    _build_stack,
    _max_blocks,
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
        object.__setattr__(self, "k", operator.index(self.k))
        object.__setattr__(self, "l", operator.index(self.l))
        object.__setattr__(self, "values", tuple(map(operator.index, self.values)))
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
    return FermionMonomial.increasing([(s, v == 1) for s, v in zip(f.sites, f.values)])


def _charge_stack(sequences: Sequence[ConservationSequence], window: SiteWindow):
    """The sequences' charge matrices on ``window``, which must contain every
    sequence interval, and their transposes, laid side by side as one wide
    operator ``W = [S | Sᵀ]``: block ``t`` is ``Q(f_t)`` and block
    ``len(sequences) + t`` its transpose.  More blocks than
    ``fock._max_blocks`` raise ``OverflowError``."""
    for f in sequences:
        if not (window.lo <= 2 * f.k and 2 * f.l <= window.hi):
            raise ValueError("window does not contain the sequence interval")
    blocks = 2 * len(sequences)
    if blocks > _max_blocks(window):
        raise OverflowError(f"{blocks} blocks do not fit a window of {window.size} sites")
    s = _build_stack([charge_monomial(f) for f in sequences], window)
    st = s.transpose()
    key = np.concatenate((s.key, st.key + (len(sequences) << (2 * window.size))))
    return IntegerSparseOperator._wrap(window, key, np.concatenate((s.vals, st.vals)))


def verify_annihilation(
    sequences: Sequence[ConservationSequence],
    window: SiteWindow,
    stack: Optional[IntegerSparseOperator] = None,
) -> bool:
    """Exactly check that every charge kills every local supercharge term.

    For every triplet center whose triplet fits inside ``window`` and touches
    the sequence interval, all four products of the charge with ``q(i)`` and
    ``q*(i)`` (both orders) must be the zero matrix.  (Triplets disjoint from
    the interval commute or anticommute with the charge but their products do
    not vanish, so they are outside the claim.)

    ``Q_w``, the sum of the ``q(i)`` that fit, takes two wide products with
    the ``S`` half of ``W = [S | Sᵀ]``, which hold every ``q(i) Q(f)`` and
    ``q*(i) Q(f)``.  Those decide the other orders too: a product of two
    monomials, each with distinct sites, vanishes exactly when a shared site
    carries the same ladder operator in both, whichever comes first.  A
    product of monomials flips the XOR of their flips, at most one entry per
    column, so center ``i``'s terms sit at ``row ^ col = T_i ^ F`` (``T_i``
    its triplet, ``F`` the interval): no two centers share an entry, and the
    flip holds all of ``F`` exactly when the triplet misses the interval.
    ``stack`` is ``_charge_stack(sequences, window)``, when already built.
    """
    w = _charge_stack(sequences, window) if stack is None else stack
    at = np.searchsorted(w.key, len(sequences) << (2 * window.size))  # where Sᵀ begins
    s = IntegerSparseOperator._wrap(window, w.key[:at], w.vals[:at])
    centers = range((window.lo + 2) // 2, (window.hi + 1) // 2)  # 2i-1 >= lo, 2i+1 <= hi
    q = build_matrix(map(supercharge_term, centers), window)
    spans = [((2 << 2 * (f.l - f.k)) - 1) << (2 * f.k - window.lo) for f in sequences]
    spans = np.array(spans, dtype=np.int64)  # F of each block, as a bit mask
    for p in (q @ s, q.adjoint() @ s):
        f = spans[p.key >> (2 * window.size)]
        if ((p.rows ^ p.cols) & f != f).any():  # a meeting center's term
            return False
    return True


def verify_commutation(
    sequences: Sequence[ConservationSequence],
    m: ModelOperators,
    stack: Optional[IntegerSparseOperator] = None,
) -> bool:
    """Exactly check the conservation law of every charge against a
    finite-interval model.

    Requires ``[H, Q(f)] = [H, Q(f)*] = 0`` and the stronger anticommutation
    of the charge with both supercharges.  The charges and their transposes
    are laid side by side as one wide operator ``W = [S | Sᵀ]`` (see
    ``_charge_stack``).  Three wide products ``Q W``, ``Q* W`` and ``H W``
    each split where the ``Sᵀ`` half begins.  With ``C x = (xᵀ Cᵀ)ᵀ``,
    ``Qᵀ = Q*`` and ``Hᵀ = H``, three comparisons of whole operators then
    decide all four identities, ``ᵀ`` transposing every block:
    ``Q S = -(Q* Sᵀ)ᵀ``, ``Q* S = -(Q Sᵀ)ᵀ`` and ``H S = (H Sᵀ)ᵀ``; the last
    is ``[H, Q(f)] = 0``, and its transpose ``[H, Q(f)*] = 0``.  ``stack`` is
    ``_charge_stack(sequences, m.window)``, when already built.
    """
    w = m.window
    stack = _charge_stack(sequences, w) if stack is None else stack
    shift = len(sequences) << (2 * w.size)

    def halves(x):
        p = x @ stack
        at = np.searchsorted(p.key, shift)
        wrap = IntegerSparseOperator._wrap
        return wrap(w, p.key[:at], p.vals[:at]), wrap(w, p.key[at:] - shift, p.vals[at:])

    (q_s, q_st), (qdag_s, qdag_st), (h_s, h_st) = (halves(x) for x in (m.Q, m.Qdag, m.H))
    return (
        q_s == -qdag_st.transpose()
        and qdag_s == -q_st.transpose()
        and h_s == h_st.transpose()
    )
