"""Classical supersymmetric ground states: classify, count, generate.

A configuration is a ground-state configuration when no even-centered triplet
of sites reads ``0,1,0`` or ``1,0,1``.  On an interval ``[2k..2l]`` the
open-boundary class additionally requires constant occupation on each two-site
edge pair; exactly those configurations give product vectors annihilated by
the open-edge supercharge pair, and their number is ``2 * 3**(n-1)`` on
``[0..2n]`` (reproduced here both by direct enumeration and by an exact
walk over the transfer table of the forbidden-triplet rule).

Every such configuration is reachable from the all-empty and the all-full
reference vectors by finitely many charge monomials; ``generate_word`` finds a
shortest action word by breadth-first search over configurations and returns
a replayable certificate with its exact sign.  The search tests every charge
footprint of a frontier chunk in one array operation, not each charge once per
configuration; ties go to the smallest parent, then to the plain action before
the adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from .charges import (
    _STEPS,
    ConservationSequence,
    _admissible,
    _alternates,
    _first_word,
    _rule_masks,
    _words,
    charge_monomial,
)
from .fock import (
    _CHUNK,
    FermionMonomial,
    FockVector,
    OccupationConfig,
    SiteWindow,
    apply_monomial,
)
from .kernels import closed_form
from .model import Interval, build_supercharge

__all__ = [
    "GenerationError",
    "GenerationWord",
    "is_ground_config",
    "enumerate_upsilon_hat",
    "count_transfer",
    "is_open_edge_susy_vector",
    "is_close_edge_susy_vector",
    "charge_action_on_config",
    "generate_word",
    "generation_table",
    "replay_word_config",
    "replay_word_matrix",
    "extend_to_interval",
]


class GenerationError(RuntimeError):
    """A ground configuration could not be generated; this would falsify the
    generation theorem at this size and must never pass silently."""


# -- classification ----------------------------------------------------------


def is_ground_config(g: OccupationConfig) -> bool:
    """True when no even-centered triplet inside the window reads 010 or 101."""
    w = g.window
    return not any(
        _alternates(g.bit(center - 1), g.bit(center), g.bit(center + 1))
        for center in range(w.lo + 1, w.hi)
        if center % 2 == 0
    )


@lru_cache(maxsize=None)
def _upsilon_hat_cached(k: int, l: int) -> Tuple[OccupationConfig, ...]:
    window = Interval(k, l).inner
    return tuple(OccupationConfig(window, occ) for occ in _words(window.size).tolist())


def enumerate_upsilon_hat(k: int, l: int) -> List[OccupationConfig]:
    """All open-boundary ground configurations on ``[2k..2l]``, lexicographic."""
    if k >= l:
        raise ValueError("k < l required")
    return list(_upsilon_hat_cached(k, l))


def count_transfer(n: int) -> int:
    """Number of open-boundary ground configurations on ``[0..2n]``.

    Exact integer walk over the transfer table ``_STEPS`` that ``_words``
    and ``_first_word`` read: from the two constant left pairs, ``n - 1``
    steps count the words by their last odd-offset letter, which the last
    site repeats.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    ends = [1, 1]
    for _ in range(n - 1):
        after = [0, 0]
        for a, steps in enumerate(_STEPS):
            for _, c in steps:
                after[c] += ends[a]
        ends = after
    return sum(ends)


# -- supersymmetry tests for vectors ----------------------------------------


def _embed_with_edges(psi: FockVector, k: int, l: int, left: int, right: int) -> FockVector:
    """Lift a vector on ``[2k..2l]`` to ``[2k-1..2l+1]`` with fixed edge bits."""
    inner = Interval(k, l).inner
    outer = Interval(k, l).enlarged
    if psi.window != inner:
        raise ValueError("vector does not live on the inner interval window")
    top = inner.size + 1
    amplitudes = {
        left | (idx << 1) | (right << top): amp for idx, amp in psi.amplitudes.items()
    }
    return FockVector(outer, amplitudes)


def is_open_edge_susy_vector(psi: FockVector, k: int, l: int) -> bool:
    """Open-edge test: every edge-dressed extension is killed by ``Q`` and ``Q*``.

    The four basis dressings of the two edge sites span all extensions, so
    checking those suffices (exact integer arithmetic throughout).
    """
    m = build_supercharge((k, l), "open")
    for left in (0, 1):
        for right in (0, 1):
            lifted = _embed_with_edges(psi, k, l, left, right)
            if not m.Q.apply(lifted).is_zero():
                return False
            if not m.Qdag.apply(lifted).is_zero():
                return False
    return True


def is_close_edge_susy_vector(psi: FockVector, k: int, l: int) -> bool:
    """Close-edge test: the interior supercharge pair kills the vector itself."""
    if k + 1 >= l:
        raise ValueError("close-edge test requires k + 1 < l")
    m = build_supercharge((k, l), "closed")
    if psi.window != m.window:
        raise ValueError("vector does not live on the inner interval window")
    return m.Q.apply(psi).is_zero() and m.Qdag.apply(psi).is_zero()


# -- charge action on configurations ----------------------------------------


def charge_action_on_config(
    f: ConservationSequence, g: OccupationConfig, use_adjoint: bool = False
):
    """Config-level action of a charge monomial (or its adjoint).

    Returns ``(new_config, sign)`` or ``None`` when the product state is
    annihilated.  This walks the ladder factors on occupation bits
    (``apply_monomial``) and is deliberately independent of the matrix
    pipeline.
    """
    window = g.window
    if not (window.lo <= 2 * f.k and 2 * f.l <= window.hi):
        raise ValueError("sequence interval not inside the config window")
    image = apply_monomial(_step_monomial(f, use_adjoint), FockVector.from_config(g))
    return image.classical_config()


def _step_monomial(f: ConservationSequence, adjoint: bool) -> FermionMonomial:
    mono = charge_monomial(f)
    return mono.adjoint() if adjoint else mono


# -- generation by breadth-first search --------------------------------------


@dataclass(frozen=True)
class GenerationWord:
    """Replayable certificate: applying ``steps`` in order to the start vector
    yields ``predicted_sign * |target>`` exactly."""

    start: str  # "fock" | "occupied"
    k: int
    l: int
    steps: Tuple[Tuple[ConservationSequence, bool], ...]
    target: OccupationConfig
    predicted_sign: int

    def to_json(self) -> dict:
        return {
            "start": self.start,
            "k": self.k,
            "l": self.l,
            "target": self.target.to_string(),
            "steps": [
                {"k": f.k, "l": f.l, "values": f.to_string(), "adjoint": adj}
                for f, adj in self.steps
            ],
            "predicted_sign": self.predicted_sign,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "GenerationWord":
        """Parse a serialized word; a malformed document raises ``ValueError``.

        Every field must have its exact JSON type: ``k`` and ``l`` integers
        (not booleans), ``values``, ``target`` and ``start`` strings,
        ``adjoint`` a boolean, ``steps`` a list and ``predicted_sign`` the
        integer 1 or -1.
        """
        if not isinstance(payload, dict):
            raise ValueError("a generation word must be a JSON object")
        try:
            k, l = _field(payload, "k", int), _field(payload, "l", int)
            window = Interval(k, l).inner
            steps = []
            for s in _field(payload, "steps", list):
                if not isinstance(s, dict):
                    raise ValueError("each step of a generation word must be a JSON object")
                f = ConservationSequence.from_string(
                    _field(s, "k", int), _field(s, "l", int), _field(s, "values", str)
                )
                steps.append((f, _field(s, "adjoint", bool)))
            sign = _field(payload, "predicted_sign", int)
            if sign not in (1, -1):
                raise ValueError(f"predicted_sign must be 1 or -1, got {sign}")
            return cls(
                start=_field(payload, "start", str),
                k=k,
                l=l,
                steps=tuple(steps),
                target=OccupationConfig.from_string(window, _field(payload, "target", str)),
                predicted_sign=sign,
            )
        except KeyError as exc:
            raise ValueError(f"generation word lacks the key {exc}") from None


_JSON_TYPES = {int: "integer", bool: "boolean", str: "string", list: "list"}


def _field(doc: dict, key: str, kind: type):
    """``doc[key]``, which must be a JSON value of exactly the type ``kind``
    (``true`` is no integer)."""
    value = doc[key]
    if type(value) is not kind:
        raise ValueError(f"{key} must be a JSON {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _start_config(start: str, window: SiteWindow) -> OccupationConfig:
    if start == "fock":
        return OccupationConfig(window, 0)
    if start == "occupied":
        return OccupationConfig(window, window.dimension - 1)
    raise ValueError(f"start must be 'fock' or 'occupied', got {start!r}")


def _seen(bitmap: np.ndarray, occs: np.ndarray) -> np.ndarray:
    """Which configurations ``occs`` have their bit set in ``bitmap``."""
    return ((bitmap[occs >> 3] >> (occs & 7)) & 1) == 1


def _mark(bitmap: np.ndarray, occs: np.ndarray) -> None:
    """Set the bits of the ascending distinct configurations ``occs``."""
    byte = occs >> 3
    starts = np.flatnonzero(np.diff(byte, prepend=-1))
    bits = (1 << (occs & 7)).astype(np.uint8)
    bitmap[byte[starts]] |= np.bitwise_or.reduceat(bits, starts)


@lru_cache(maxsize=None)
def _reachability(k: int, l: int, start: str) -> Dict[int, Optional[int]]:
    """Breadth-first search from a start config, run until nothing new appears.

    The search runs one whole frontier at a time over the charge footprints
    ``[2lo..2hi]`` of the interval.  A charge acts on a product state when the
    state's bits on its footprint are the complement of its ``+1`` letters
    (for the adjoint: the letters themselves), and then flips the footprint.
    Admissible words are closed under complement, so a node has a move on a
    footprint exactly when its bits there are admissible, and the plain and
    adjoint moves both lead to ``node ^ footprint``.

    Each level is one pass over the frontier, in chunks of about
    ``_CHUNK / 4`` (node, footprint) cells.  With ``d = x ^ (x >> 1)`` for the
    chunk's nodes ``x``, ``d | (d & (d >> 1)) << w`` (``w`` the window size) is
    ANDed with one mask per footprint, its ``_rule_masks`` edge-pair bits in
    the low half and triplet-centre bits in the high half: a move exists
    exactly where the result is 0.  A move to an unseen node is kept as the
    key ``dst << w | src``; once sorted, the first key per ``dst`` holds its
    smallest source in the chunk.  Moves are undone on their own footprint,
    so the frontier nodes that reach a fresh node are exactly its parents.
    The chunk's fresh nodes are marked reached at once, and later chunks,
    whose sources are larger, skip them: the first source found is the
    smallest parent in the whole frontier, and only one chunk's moves are
    held at a time.  Reached configurations are bits of one bitmap over the
    window's states.

    Returns the search tree: each reached configuration maps to its parent,
    the start to ``None``, inserted level by level in ascending order.  Ties
    break as a scan of the frontier in ascending order and of moves in
    ``enumerate_union`` order would: the parent is the smallest frontier node
    reaching the configuration, and ``_step`` takes the plain move when that
    node's lowest footprint bit is occupied.
    """
    window = Interval(k, l).inner
    w = window.size
    if 2 * w > 62:
        raise ValueError(f"a search key of two {w}-site states does not fit in int64")
    flips, masks = [], []
    for m in range(1, l - k + 1):
        size = 2 * m + 1
        edges, centres = _rule_masks(size)
        for shift in range(0, 2 * (l - k - m) + 1, 2):
            flips.append(((1 << size) - 1) << shift)
            masks.append(edges << shift | centres << (shift + w))
    flips, masks = np.array(flips, dtype=np.int64), np.array(masks, dtype=np.int64)
    # A chunk's (rows, footprints) AND is int64, so a quarter of ``_CHUNK``
    # cells keeps each temporary near 0.5 MB.
    rows = max(1, (_CHUNK >> 2) // masks.size)
    start_occ = _start_config(start, window).occ
    tree: Dict[int, Optional[int]] = {start_occ: None}
    reached = np.zeros((window.dimension + 7) // 8, dtype=np.uint8)
    frontier = np.array([start_occ], dtype=np.int64)
    _mark(reached, frontier)
    while frontier.size:
        level = []
        for lo in range(0, frontier.size, rows):
            src = frontier[lo : lo + rows]
            d = src ^ (src >> 1)
            node, move = np.nonzero(((d | (d & (d >> 1)) << w)[:, None] & masks) == 0)
            src = src[node]
            dst = src ^ flips[move]
            unseen = ~_seen(reached, dst)
            keys = np.sort(dst[unseen] << w | src[unseen])
            keys = keys[np.diff(keys >> w, prepend=-1) != 0]
            _mark(reached, keys >> w)
            level.append(keys)
        keys = np.sort(np.concatenate(level))
        frontier = keys >> w
        tree.update(zip(frontier.tolist(), (keys & (window.dimension - 1)).tolist()))
    return tree


def _step(k: int, node: int, dst: int) -> Tuple[ConservationSequence, bool]:
    """The ``(sequence, adjoint)`` move of the search tree from ``node`` to ``dst``."""
    support = node ^ dst
    shift = (support & -support).bit_length() - 1
    size = support.bit_count()
    bits = node >> shift
    adjoint = not bits & 1
    plus = bits if adjoint else ~bits
    lo = k + shift // 2
    values = tuple(((plus >> p) & 1) * 2 - 1 for p in range(size))
    return ConservationSequence(lo, lo + size // 2, values, check=False), adjoint


def _word_steps(k: int, l: int, start: str, target_occ: int):
    tree = _reachability(k, l, start)
    if target_occ not in tree:
        raise GenerationError(
            f"configuration {target_occ:b} on interval ({k},{l}) is unreachable "
            f"from the {start} vector: generation theorem violated at this size"
        )
    chain = []
    dst, node = target_occ, tree[target_occ]
    while node is not None:
        chain.append(_step(k, node, dst))
        dst, node = node, tree[node]
    chain.reverse()
    return tuple(chain)


def replay_word_config(word: GenerationWord):
    """Replay a word on occupation configs; returns ``(config, sign)``."""
    window = Interval(word.k, word.l).inner
    cfg = _start_config(word.start, window)
    sign = 1
    for f, adjoint in word.steps:
        step = charge_action_on_config(f, cfg, adjoint)
        if step is None:
            raise GenerationError("word replay annihilated the state")
        cfg, s = step
        sign *= s
    return cfg, sign


def _apply_closed_form(m: FermionMonomial, v: FockVector) -> FockVector:
    """``m`` applied to ``v`` through its ``kernels.closed_form`` masks, entry
    by entry (a surviving state has exactly one image, so no two collide)."""
    window = v.window
    form = closed_form([(window.bit(s), d) for s, d in reversed(m.factors)])
    if form is None:
        return FockVector.zero(window)
    support, required, flip, const, parity = form
    c = const * m.coefficient
    return FockVector(
        window,
        {
            idx ^ flip: -c * amp if (idx & parity).bit_count() & 1 else c * amp
            for idx, amp in v.amplitudes.items()
            if idx & support == required
        },
    )


def replay_word_matrix(word: GenerationWord) -> FockVector:
    """Replay a word on the start vector through the closed form of each
    step's charge, the reduction that builds every matrix of the package.

    This is independent of the ladder walk of ``replay_word_config``, and
    touches only the vector's own entries, never the whole window.
    """
    window = Interval(word.k, word.l).inner
    vec = FockVector.from_config(_start_config(word.start, window))
    for f, adjoint in word.steps:
        vec = _apply_closed_form(_step_monomial(f, adjoint), vec)
    return vec


def generate_word(
    target: Union[OccupationConfig, str], start: str, k: int, l: int
) -> GenerationWord:
    """Shortest charge word sending the start vector to ``±|target>``.

    The target must be an open-boundary ground configuration of the interval.
    Breadth-first search over configurations, moves drawn from the full union
    of conservation sequences of the interval with both adjoint choices; the
    certificate records the exact sign of the replayed product state.
    """
    window = Interval(k, l).inner
    if isinstance(target, str):
        target = OccupationConfig.from_string(window, target)
    if target.window != window:
        raise ValueError("target does not live on the interval window")
    if not _admissible(target.occ, window.size):
        raise ValueError("target is not an open-boundary ground configuration")
    steps = _word_steps(k, l, start, target.occ)
    word = GenerationWord(start, k, l, steps, target, 1)
    cfg, sign = replay_word_config(word)
    if cfg != target:
        raise GenerationError("BFS certificate replayed to the wrong configuration")
    return GenerationWord(start, k, l, steps, target, sign)


def generation_table(k: int, l: int, start: str) -> Dict[str, GenerationWord]:
    """Generation words for every open-boundary ground configuration."""
    return {
        g.to_string(): generate_word(g, start, k, l) for g in enumerate_upsilon_hat(k, l)
    }


# -- extension of partial configurations -------------------------------------


def extend_to_interval(assignment: Mapping[int, int]):
    """Extend a forbidden-triplet-free partial configuration to a ground one.

    ``assignment`` maps sites to bits on an arbitrary finite set.  Scans
    even-edged intervals covering the support from the smallest size upward
    (ties toward smaller left edge) and returns ``(k, l, config)`` for the
    first open-boundary ground configuration agreeing with the assignment.
    Raises ``ValueError`` when there is none, as for ``{-3: 0, -2: 1, 0: 0,
    1: 1}``, where the triplets centered at -2 and 0 force site -1 both ways.
    """
    if not assignment:
        raise ValueError("empty assignment")
    fixed = {int(s): int(b) for s, b in assignment.items()}
    if any(b not in (0, 1) for b in fixed.values()):
        raise ValueError("bits must be 0 or 1")
    for center in sorted(fixed):
        if center % 2 == 0 and center - 1 in fixed and center + 1 in fixed:
            if _alternates(fixed[center - 1], fixed[center], fixed[center + 1]):
                raise ValueError(f"forbidden triplet centered at site {center}")
    lo, hi = min(fixed), max(fixed)
    smallest = max(1, -(-hi // 2) - lo // 2)  # smallest l - k covering [lo..hi]
    # Any completion, cut back to one free site beyond the support on each
    # side (that site copies its inner neighbour), has l - k <= smallest + 2.
    for size in range(smallest, smallest + 3):
        for k in range(-(-hi // 2) - size, lo // 2 + 1):
            window = Interval(k, k + size).inner
            pinned = {site - window.lo: bit for site, bit in fixed.items()}
            occ = _first_word(window.size, pinned)
            if occ is not None:
                return k, k + size, OccupationConfig(window, occ)
    raise ValueError("the assignment has no open-boundary ground extension")
