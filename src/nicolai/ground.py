"""Classical supersymmetric ground states: classify, count, generate.

A configuration is a ground-state configuration when no even-centered triplet
of sites reads ``0,1,0`` or ``1,0,1``.  On an interval ``[2k..2l]`` the
open-boundary class additionally requires constant occupation on each two-site
edge pair; exactly those configurations give product vectors annihilated by
the open-edge supercharge pair, and their number is ``2 * 3**(n-1)`` on
``[0..2n]`` (reproduced here both by direct enumeration and by an exact
transfer-matrix power).

Every such configuration is reachable from the all-empty and the all-full
reference vectors by finitely many charge monomials; ``generate_word`` finds a
shortest action word by breadth-first search over configurations and returns
a replayable certificate with its exact sign.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Mapping, Tuple, Union

import numpy as np

from .charges import (
    ConservationSequence,
    _alternates,
    _walk,
    charge_monomial,
    enumerate_union,
)
from .fock import (
    FockVector,
    OccupationConfig,
    SiteWindow,
    apply_ladder,
    build_matrix,
)
from .model import Interval, build_supercharge

__all__ = [
    "GenerationError",
    "GenerationWord",
    "TRANSFER_MATRIX",
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
    return tuple(OccupationConfig(window, occ) for occ in _walk(window.size))


def enumerate_upsilon_hat(k: int, l: int) -> List[OccupationConfig]:
    """All open-boundary ground configurations on ``[2k..2l]``, lexicographic."""
    if k >= l:
        raise ValueError("k < l required")
    return list(_upsilon_hat_cached(k, l))


# Transition matrix between consecutive site pairs (states 00, 01, 10, 11):
# a step (a, b) -> (c, d) is allowed unless (a, b, c) alternates.
TRANSFER_MATRIX: Tuple[Tuple[int, ...], ...] = (
    (1, 1, 1, 1),
    (0, 0, 1, 1),
    (1, 1, 0, 0),
    (1, 1, 1, 1),
)


def _mat4_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)) for i in range(4)
    )


def count_transfer(n: int) -> int:
    """Number of open-boundary ground configurations on ``[0..2n]``.

    Exact integer power of the pair-to-pair transfer matrix; the admissible
    boundary pairs select the (1,1),(1,4),(2,1),(2,4),(3,1),(3,4),(4,1),(4,4)
    entries of ``T**(n-1)``.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    power = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    for _ in range(n - 1):
        power = _mat4_mul(power, TRANSFER_MATRIX)
    return sum(power[i][j] for i in (0, 1, 2, 3) for j in (0, 3))


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
    annihilated.  This walks the ladder factors one by one on occupation bits
    and is deliberately independent of the matrix pipeline.
    """
    window = g.window
    if not (window.lo <= 2 * f.k and 2 * f.l <= window.hi):
        raise ValueError("sequence interval not inside the config window")
    if use_adjoint:
        order = [(site, f.value_at(site) == -1) for site in f.sites]
    else:
        order = [(site, f.value_at(site) == 1) for site in reversed(f.sites)]
    sign = 1
    cfg = g
    for site, dagger in order:
        step = apply_ladder(cfg, site, dagger)
        if step is None:
            return None
        cfg, s = step
        sign *= s
    return cfg, sign


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
        """Parse a serialized word; a malformed document raises ``ValueError``."""
        if not isinstance(payload, dict):
            raise ValueError("a generation word must be a JSON object")
        try:
            k, l = int(payload["k"]), int(payload["l"])
            window = Interval(k, l).inner
            steps = tuple(
                (
                    ConservationSequence.from_string(int(s["k"]), int(s["l"]), s["values"]),
                    bool(s["adjoint"]),
                )
                for s in payload["steps"]
            )
            return cls(
                start=payload["start"],
                k=k,
                l=l,
                steps=steps,
                target=OccupationConfig.from_string(window, payload["target"]),
                predicted_sign=int(payload["predicted_sign"]),
            )
        except KeyError as exc:
            raise ValueError(f"generation word lacks the key {exc}") from None
        except TypeError as exc:
            raise ValueError(f"malformed generation word: {exc}") from None


def _start_config(start: str, window: SiteWindow) -> OccupationConfig:
    if start == "fock":
        return OccupationConfig(window, 0)
    if start == "occupied":
        return OccupationConfig(window, window.dimension - 1)
    raise ValueError(f"start must be 'fock' or 'occupied', got {start!r}")


@lru_cache(maxsize=None)
def _moves(k: int, l: int):
    """Ordered move set: every sequence in the union space, both adjoint flags.

    Acting on a product state, a charge requires a fixed bit pattern on its
    support and then flips the whole support, so applicability is two integer
    operations per move.
    """
    base = 2 * k
    steps: List[Tuple[ConservationSequence, bool]] = []
    supports: List[int] = []
    required: List[int] = []
    for f in enumerate_union(k, l):
        support = 0
        plus = 0
        for site in f.sites:
            support |= 1 << (site - base)
            if f.value_at(site) == 1:
                plus |= 1 << (site - base)
        for adjoint in (False, True):
            steps.append((f, adjoint))
            supports.append(support)
            # plain action annihilates where f = -1 (occupied bits required);
            # the adjoint annihilates where f = +1.
            required.append(plus if adjoint else support ^ plus)
    return (
        steps,
        np.array(supports, dtype=np.int64),
        np.array(required, dtype=np.int64),
    )


@lru_cache(maxsize=None)
def _reachability(k: int, l: int, start: str, depth_cap: int):
    """BFS over all configurations of the interval window from a start config.

    Returns ``(parent, via, closed)``: predecessor config and move index per
    discovered config (-1 elsewhere), plus whether the search closed before
    hitting the depth cap.  Ties break lexicographically (frontier ascending,
    then move order), which makes the certificates deterministic.
    """
    window = Interval(k, l).inner
    dim = window.dimension
    steps, supports, required = _moves(k, l)
    parent = np.full(dim, -1, dtype=np.int64)
    via = np.full(dim, -1, dtype=np.int64)
    start_occ = _start_config(start, window).occ
    parent[start_occ] = start_occ
    frontier = np.array([start_occ], dtype=np.int64)
    closed = False
    for _ in range(depth_cap):
        next_nodes: List[np.ndarray] = []
        for chunk_lo in range(0, frontier.size, 1024):
            chunk = frontier[chunk_lo : chunk_lo + 1024]
            ok = (chunk[:, None] & supports[None, :]) == required[None, :]
            src_idx, mv_idx = np.nonzero(ok)
            if src_idx.size == 0:
                continue
            dst = chunk[src_idx] ^ supports[mv_idx]
            # keep the first (row-major) discovery of each destination
            _, first = np.unique(dst, return_index=True)
            order = np.sort(first)
            dst, src_idx, mv_idx = dst[order], src_idx[order], mv_idx[order]
            fresh = parent[dst] < 0
            dst, src_idx, mv_idx = dst[fresh], src_idx[fresh], mv_idx[fresh]
            parent[dst] = chunk[src_idx]
            via[dst] = mv_idx
            next_nodes.append(dst)
        if not next_nodes:
            closed = True
            break
        frontier = np.sort(np.concatenate(next_nodes))
    return parent, via, closed


def _word_steps(k: int, l: int, start: str, target_occ: int, depth_cap: int):
    steps, _, _ = _moves(k, l)
    parent, via, closed = _reachability(k, l, start, depth_cap)
    if parent[target_occ] < 0:
        if closed:
            raise GenerationError(
                f"configuration {target_occ:b} on interval ({k},{l}) is unreachable "
                f"from the {start} vector: generation theorem violated at this size"
            )
        warnings.warn(
            f"depth cap {depth_cap} too small for interval ({k},{l}); retrying deeper",
            stacklevel=3,
        )
        return _word_steps(k, l, start, target_occ, max(2 * depth_cap, 1))
    chain = []
    cur = int(target_occ)
    start_occ = _start_config(start, Interval(k, l).inner).occ
    while cur != start_occ:
        chain.append(steps[int(via[cur])])
        cur = int(parent[cur])
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


@lru_cache(maxsize=None)
def _charge_matrix(f: ConservationSequence, adjoint: bool, window: SiteWindow):
    mono = charge_monomial(f)
    if adjoint:
        mono = mono.adjoint()
    return build_matrix(mono, window)


def replay_word_matrix(word: GenerationWord) -> FockVector:
    """Replay a word through full matrix application (independent oracle)."""
    window = Interval(word.k, word.l).inner
    vec = FockVector.from_config(_start_config(word.start, window))
    for f, adjoint in word.steps:
        vec = _charge_matrix(f, adjoint, window).apply(vec)
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
    if next(_walk(window.size, dict(enumerate(target.bits))), None) is None:
        raise ValueError("target is not an open-boundary ground configuration")
    depth_cap = 2 * (l - k) + 2
    steps = _word_steps(k, l, start, target.occ, depth_cap)
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
            occ = next(_walk(window.size, pinned), None)
            if occ is not None:
                return k, k + size, OccupationConfig(window, occ)
    raise ValueError("the assignment has no open-boundary ground extension")
