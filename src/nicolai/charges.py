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
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .fock import (
    _CHUNK,
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


def _rule_masks(size: int) -> Tuple[int, int]:
    """The forbidden-triplet rule as two bit masks ``(edges, centres)``, the
    one statement of it that every test of a word, sequence or config reads.

    A 0/1 word of odd ``size >= 3``, letter ``p`` its bit ``p``, is
    admissible when both edge pairs are constant and no triplet centred at
    an even offset alternates; under ``-1 <-> 0`` these are the conservation
    sequences, and on a window with an even low edge the open-boundary
    ground configurations.  Bit ``p`` of ``d = w ^ (w >> 1)`` is set where
    letters ``p`` and ``p + 1`` differ, so the edge pairs are constant when
    ``d & edges`` is 0 (bits ``0`` and ``size - 2``), and no triplet
    alternates when ``d & (d >> 1) & centres`` is 0 (bits ``p - 1`` for the
    centres ``p = 2, 4, ..., 2m``, at any ``size >= 3``).  ``(4**m - 1) // 3``
    holds ``m`` ones at the even bits ``0, 2, ..., 2m - 2``."""
    m = (size - 2) // 2
    return 1 | 1 << (size - 2), (4**m - 1) // 3 << 1


def _admissible(words: np.ndarray, size: int) -> np.ndarray:
    """Which packed words (an int64 array, or one int) are admissible words
    of odd ``size >= 3``, by the masks of ``_rule_masks``; bits above
    ``size`` are ignored."""
    d = words ^ (words >> 1)
    edges, centres = _rule_masks(size)
    return ((d & edges) == 0) & ((d & (d >> 1) & centres) == 0)


# The transfer table of the rule.  An admissible word is one of the two
# constant left pairs, then pairs ``(2j, 2j + 1)`` whose triplet centred at
# ``2j`` reaches back to the letter before them, then a last letter that
# repeats its neighbour.  ``_STEPS[a]`` lists, in lexicographic order, the
# pairs ``(b, c)`` that may follow the odd-offset letter ``a``: those that
# make the five-letter word ``a a b c c`` admissible.
_STEPS = tuple(
    tuple((b, c) for b, c in product((0, 1), repeat=2)
          if _admissible(a * 0b11 | b << 2 | c * 0b11000, 5))
    for a in (0, 1)
)
# ``_STEPS`` packed for ``_word_chunks``: row ``a`` holds each pair ``(b, c)``
# as ``b | c << 1``; the last pair's row also repeats ``c`` as the last letter.
_PAIR_STEPS = np.array([[b | c << 1 for b, c in steps] for steps in _STEPS], dtype=np.int64)
_LAST_STEPS = _PAIR_STEPS | (_PAIR_STEPS & 0b10) << 1


# Words per chunk of ``_word_chunks`` (and per slice of ``cli._spell``).  In
# ``main`` of ``count --n 12`` and ``enumerate charges --n 10``, fresh
# processes, medians of 15 on a 2-vCPU host: 2^12 words took 2.1 and 3.9 ms,
# 2^13 1.25 and 3.7 ms, 2^14 1.1 and 4.2 ms, 2^16 3.9 and 4.9 ms.
_WORD_CHUNK = _CHUNK >> 5


def _word_chunks(size: int) -> Iterator[np.ndarray]:
    """Every admissible word of odd ``size >= 3`` (see ``_STEPS``), in
    lexicographic order, as int64 arrays of at most ``_WORD_CHUNK`` words.

    After letter ``a`` at offset ``p - 1``, a pair ``(p, p + 1)`` takes the
    three steps ``_STEPS[a]``: ``extend`` grows each word so far into its
    extensions, in order, from a table with one row per letter ``a``.  The
    last pair's steps also write the last letter, a repeat of their second.
    ``grow`` takes the pairs one by one, once over the first pairs from the
    two constant left pairs, into an array of prefixes, and once over the
    rest from the letter before them, into a table of every tail, at most
    ``_WORD_CHUNK`` per letter.  Each chunk is then one slice of prefixes
    extended by the tails.  A size beyond int64 is refused at the call,
    before any chunk is made.
    """
    if size > 62:
        raise OverflowError(f"words of {size} letters do not fit in int64")

    def extend(words: np.ndarray, table: np.ndarray, p: int) -> np.ndarray:
        grown = np.take(table, (words >> (p - 1)) & 1, axis=0)
        grown |= words[:, None]
        return grown.ravel()

    def grow(words: np.ndarray, pairs: range) -> np.ndarray:
        for p in pairs:
            words = extend(words, (_LAST_STEPS if p == size - 3 else _PAIR_STEPS) << p, p)
        return words

    pairs = range(2, size - 1, 2)
    split = next(j for j in range(len(pairs) + 1) if 3 ** (len(pairs) - j) <= _WORD_CHUNK)
    p = 2 + 2 * split  # the first offset after the prefixes
    # the two constant left pairs; at size 3 no pair follows, so they also
    # write the last letter
    left = np.array([0b00, 0b11] if pairs else [0b000, 0b111], dtype=np.int64)
    prefixes = grow(left, pairs[:split])
    # a tail after letter 1 keeps that letter's bit, which its prefix has too
    tails = grow(np.array([0, 1 << (p - 1)], dtype=np.int64), pairs[split:]).reshape(2, -1)
    per = _WORD_CHUNK // tails.shape[1]
    return (extend(prefixes[i : i + per], tails, p) for i in range(0, prefixes.size, per))


def _words(size: int) -> np.ndarray:
    """Every admissible word of odd ``size >= 3`` as one int64 array, in
    lexicographic order: two constant left pairs, then three steps per pair,
    filled from ``_word_chunks``."""
    chunks = _word_chunks(size)  # refuses a size beyond int64 before the array
    words = np.empty(2 * 3 ** (size // 2 - 1), dtype=np.int64)
    start = 0
    for chunk in chunks:
        words[start : start + chunk.size] = chunk
        start += chunk.size
    return words


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
    """The letters of packed int64 words as uint8 0/1, one row per word.

    The words are read as little-endian bytes whatever the host's byte
    order, so the bits of each row come lowest offset first."""
    octets = np.ascontiguousarray(words, dtype="<i8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, count=size, bitorder="little")


def _constraint_violation(values: Tuple[int, ...]) -> Optional[str]:
    """Why ``values`` is no conservation sequence, or None, read off the
    ``_rule_masks`` of its word (bit 1 for ``+1``); the lowest bad centre is named."""
    n = len(values)
    if n < 3 or n % 2 == 0:
        return f"need an odd number >= 3 of values, got {n}"
    if not {-1, 1}.issuperset(values):
        return "values must be -1 or +1"
    word = int("".join(["01"[v == 1] for v in reversed(values)]), 2)
    d = word ^ (word >> 1)
    edges, centres = _rule_masks(n)
    if d & edges:
        return f"{'left' if d & 1 else 'right'} edge pair must be constant"
    bad = d & (d >> 1) & centres  # bit p - 1 for a triplet centred at p
    if bad:
        return f"forbidden alternating triplet at offset {(bad & -bad).bit_length()}"
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
    values = _unpack(_words(n), n).astype(np.int8) * 2 - 1  # in uint8, 0 * 2 - 1 wraps
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
