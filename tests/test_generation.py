"""Generation words: BFS certificates, explicit constructions, replays."""

import hashlib
import json
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from nicolai.charges import ConservationSequence, _words, enumerate_union
from nicolai.fock import FockVector, OccupationConfig, build_matrix
from nicolai.ground import (
    GenerationWord,
    enumerate_upsilon_hat,
    generate_word,
    generation_table,
    replay_word_config,
    replay_word_matrix,
)
from nicolai import ground
from nicolai.ground import _reachability, _start_config, _step_monomial, _word_steps
from nicolai.model import Interval
from oracles import footprint_search_tree


def _const(k, l, sign):
    return ConservationSequence(k, l, (sign,) * (2 * (l - k) + 1))


def _word(start, k, l, steps, target_text):
    window = Interval(k, l).inner
    return GenerationWord(
        start=start,
        k=k,
        l=l,
        steps=tuple((f, False) for f in steps),
        target=OccupationConfig.from_string(window, target_text),
        predicted_sign=1,
    )


def _assert_reaches(word):
    """The word must replay to +/- its target, consistently on both oracles."""
    cfg, sign = replay_word_config(word)
    assert cfg == word.target
    vec = replay_word_matrix(word)
    assert vec == FockVector.from_config(cfg, sign)
    return sign


def test_empty_word_for_start_config():
    w = generate_word("00000", "fock", 0, 2)
    assert w.steps == () and w.predicted_sign == 1
    w = generate_word("1111111", "occupied", 0, 3)
    assert w.steps == ()


def test_single_constant_actions():
    # all-plus charge on a subinterval creates that block from the vacuum
    for target, steps in [
        ("11100", [_const(0, 1, 1)]),
        ("00111", [_const(1, 2, 1)]),
        ("11111", [_const(0, 2, 1)]),
    ]:
        sign = _assert_reaches(_word("fock", 0, 2, steps, target))
        assert sign == 1  # increasing creation products act with + on the vacuum


def test_double_actions_from_published_constructions():
    # application order: first list element acts first
    _assert_reaches(_word("fock", 0, 2, [_const(0, 2, 1), _const(0, 1, -1)], "00011"))
    _assert_reaches(_word("fock", 0, 2, [_const(0, 2, 1), _const(1, 2, -1)], "11000"))


def test_interval3_constructions():
    cases = [
        ("0001000", [_const(0, 3, 1), _const(2, 3, -1), _const(0, 1, -1)]),
        ("1110111", [_const(2, 3, 1), _const(0, 1, 1)]),
        ("0000011", [_const(0, 3, 1), _const(0, 2, -1)]),
        ("0000111", [_const(2, 3, 1)]),
        ("0001111", [_const(0, 3, 1), _const(0, 1, -1)]),
        ("0011111", [_const(1, 3, 1)]),
        ("1111100", [_const(0, 2, 1)]),
        ("1111000", [_const(0, 3, 1), _const(2, 3, -1)]),
        ("1110000", [_const(0, 1, 1)]),
        ("1100000", [_const(0, 3, 1), _const(1, 3, -1)]),
        ("1111111", [_const(0, 3, 1)]),
    ]
    for target, steps in cases:
        _assert_reaches(_word("fock", 0, 3, steps, target))


def test_bfs_reaches_every_target():
    lengths = {}
    for n in (1, 2, 3, 4):
        for start in ("fock", "occupied"):
            table = generation_table(0, n, start)
            assert len(table) == len(enumerate_upsilon_hat(0, n))
            for text, word in table.items():
                cfg, sign = replay_word_config(word)
                assert cfg.to_string() == text
                assert sign == word.predicted_sign
                assert replay_word_matrix(word) == FockVector.from_config(cfg, sign)
            lengths[(n, start)] = max(len(w.steps) for w in table.values())
    # measured, not asserted: are single/double actions always enough?
    print("max word lengths by (n, start):", lengths)


def test_bfs_word_for_00011_is_double_action():
    w = generate_word("00011", "fock", 0, 2)
    assert len(w.steps) == 2
    _assert_reaches(w)


def test_word_from_occupied_start():
    w = generate_word("0001000", "occupied", 0, 3)
    assert len(w.steps) == 2
    assert {(f.k, f.l, f.to_string()) for f, _ in w.steps} == {
        (0, 1, "---"), (2, 3, "---"),
    }
    _assert_reaches(w)


def test_particle_hole_duality_of_words():
    # negating every step sequence maps a fock-start word for g into an
    # occupied-start word for the bit complement of g
    for n in (1, 2, 3):
        full = Interval(0, n).inner.dimension - 1
        for text, word in generation_table(0, n, "fock").items():
            complement = OccupationConfig(word.target.window, word.target.occ ^ full)
            dual = GenerationWord(
                start="occupied",
                k=word.k,
                l=word.l,
                steps=tuple(
                    (ConservationSequence(f.k, f.l, tuple(-v for v in f.values)), adj)
                    for f, adj in word.steps
                ),
                target=complement,
                predicted_sign=1,
            )
            cfg, sign = replay_word_config(dual)
            assert cfg == complement
            assert replay_word_matrix(dual) == FockVector.from_config(cfg, sign)


def test_generate_rejects_non_ground_targets():
    with pytest.raises(ValueError):
        generate_word("01010", "fock", 0, 2)  # forbidden triplet
    with pytest.raises(ValueError):
        generate_word("00001", "fock", 0, 2)  # edge pair broken
    with pytest.raises(ValueError):
        generate_word("000", "fock", 0, 2)  # wrong length
    with pytest.raises(ValueError):
        generate_word("00000", "nowhere", 0, 2)


def test_generation_off_origin():
    table = generation_table(-2, 1, "fock")
    assert len(table) == 18
    for word in table.values():
        assert replay_word_matrix(word) == FockVector.from_config(
            word.target, word.predicted_sign
        )


def test_word_json_round_trip():
    word = generate_word("00011", "fock", 0, 2)
    doc = json.loads(json.dumps(word.to_json()))
    back = GenerationWord.from_json(doc)
    assert back == word
    assert replay_word_matrix(back) == FockVector.from_config(
        back.target, back.predicted_sign
    )


# sha256 over the generation table (one sorted-key JSON word per line, in
# enumeration order); pins every word, including the BFS tie-breaks
# (frontier ascending, then move order).
TABLE_DIGESTS = {
    (0, 1, "fock"): "d6b2e04fed46563ea26beb6793a52bf60a08b5a7090a7273d5cc0a894b9ac9ff",
    (0, 1, "occupied"): "c7e3f741d32ff76d1d2690791cd5769fb3b703a78d5a29f61f2a37f736b2e548",
    (0, 2, "fock"): "8a6dccf05ac50621db59e69c0616128fb9a754e9b2659c1cfd48cf2ed5b6253f",
    (0, 2, "occupied"): "e2aa76c202cd274a4ebb94740856ccb894d878ba012eb8dc73602079fd75fb07",
    (0, 3, "fock"): "b77e61c8f97f4abd8ccaa9e429b74554f5cf94b73e7bcdc5677099f7fcb09da0",
    (0, 3, "occupied"): "a7426980dceb99ee73db5030e78d6b28dedca96837ca1d3ced34431b4336cf7c",
    (0, 4, "fock"): "16adf1fe05fb2b3d7edf63e7ec70de1925e222adaa17eb6086f43c8bade835d8",
    (0, 4, "occupied"): "416d3d252c71ce4de8d01dcc60fee798dd98f6812586a67ec39355cfc409240d",
    (0, 5, "fock"): "b860c564743ca8a008940f1ea87dc63391f320cf455990e08ac27a83ca42a53e",
    (0, 5, "occupied"): "85387ca79d0dadf7ac9a8ed64bebdd8478db41a15908c1530b832c91bb2af963",
    (0, 6, "fock"): "e9488b4ad336d95d8c5494c92e03b0692e323dbb233f97787105b4bcdcd086af",
    (0, 6, "occupied"): "49dc773cb20dfccb127ac8d10e778d149202cd229ca6492f8ac67de5cb6446d1",
    (-2, 1, "fock"): "b159dd31d302214e21f296731902dd28e4da105e7f88a115ae3e5827570cc096",
    (-2, 1, "occupied"): "fb8e6620b8e08786fc6d01432b37d7510642ec6450be5e60b62ccc6932944036",
}




@pytest.mark.parametrize("k,l,start", sorted(TABLE_DIGESTS))
def test_generation_table_digests(k, l, start):
    h = hashlib.sha256()
    for word in generation_table(k, l, start).values():
        h.update(json.dumps(word.to_json(), sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == TABLE_DIGESTS[(k, l, start)]


def _steps(*triples):
    return [{"adjoint": adj, "k": k, "l": l, "values": v} for adj, k, l, v in triples]


# Two n=8 targets per start: 00011100001100011 and one whose word has the
# greatest length found at n=8 (8 steps).
N8_WORDS = [
    ("fock", "00011100001100011", 1, _steps(
        (True, 3, 4, "---"), (True, 0, 4, "------+++"), (False, 0, 1, "---"),
        (True, 6, 7, "---"), (True, 5, 8, "--+++--"),
    )),
    ("fock", "00010011001100111", 1, _steps(
        (True, 2, 3, "---"), (True, 0, 3, "----+++"), (True, 4, 5, "---"),
        (True, 3, 5, "--+++"), (True, 6, 7, "---"), (True, 5, 7, "--+++"),
        (False, 0, 1, "---"), (True, 7, 8, "---"),
    )),
    ("occupied", "00011100001100011", -1, _steps(
        (False, 3, 8, "-----------"), (False, 0, 1, "---"), (True, 6, 7, "---"),
        (True, 5, 8, "--+++--"),
    )),
    ("occupied", "00011001100110111", -1, _steps(
        (False, 0, 8, "-----------------"), (True, 0, 1, "---"),
        (False, 0, 2, "---++"), (True, 0, 3, "---++--"), (False, 0, 4, "---++--++"),
        (True, 0, 5, "---++--++--"), (False, 0, 6, "---++--++--++"),
        (True, 7, 8, "---"),
    )),
]


@pytest.mark.parametrize("start,target,sign,steps", N8_WORDS)
def test_n8_word_payloads(start, target, sign, steps):
    word = generate_word(target, start, 0, 8)
    assert word.to_json() == {
        "start": start,
        "k": 0,
        "l": 8,
        "target": target,
        "steps": steps,
        "predicted_sign": sign,
    }


# -- the per-move search, kept as the oracle of the per-footprint search ------
#
# ``_moves``, ``_move_step`` and ``_reachability`` as the library had them
# before the search tested each footprint once per frontier: every node is
# compared with all moves of the union space in one numpy operation, and the
# tree records ``(predecessor, move index)``.


@lru_cache(maxsize=None)
def _moves(k: int, l: int) -> Tuple[np.ndarray, np.ndarray]:
    """Ordered move set: every sequence in the union space, both adjoint flags.

    Acting on a product state, a charge requires a fixed bit pattern on its
    support and then flips the whole support, so applicability is two integer
    operations per move.  Moves follow ``enumerate_union(k, l)``, the plain
    action of each sequence before its adjoint, and are built from the packed
    words of ``_words`` (bit set where the sequence is ``+1``) without making
    a sequence object per move.
    """
    supports: List[np.ndarray] = []
    required: List[np.ndarray] = []
    for lo in range(k, l):
        for hi in range(lo + 1, l + 1):
            size = 2 * (hi - lo) + 1
            shift = 2 * (lo - k)
            plus = _words(size) << shift
            support = np.full(plus.size, ((1 << size) - 1) << shift, dtype=np.int64)
            supports.append(np.repeat(support, 2))
            # plain action annihilates where f = -1 (occupied bits required);
            # the adjoint annihilates where f = +1.
            required.append(np.stack((support ^ plus, plus), axis=1).ravel())
    return np.concatenate(supports), np.concatenate(required)


def _move_step(k: int, l: int, move: int) -> Tuple[ConservationSequence, bool]:
    """The ``(sequence, adjoint)`` pair of one move of ``_moves(k, l)``."""
    supports, required = _moves(k, l)
    support = int(supports[move])
    adjoint = bool(move & 1)
    plus = int(required[move]) ^ (0 if adjoint else support)
    shift = (support & -support).bit_length() - 1
    size = support.bit_count()
    lo = k + shift // 2
    values = tuple(((plus >> (shift + p)) & 1) * 2 - 1 for p in range(size))
    return ConservationSequence(lo, lo + size // 2, values, check=False), adjoint


@lru_cache(maxsize=None)
def _oracle_reachability(k: int, l: int, start: str) -> Dict[int, Optional[Tuple[int, int]]]:
    """Breadth-first search from a start config, run until nothing new appears.

    Returns the search tree: each reached configuration maps to its
    ``(predecessor, move index)``, the start to ``None``.  Ties break
    lexicographically (frontier ascending, then move order), which makes the
    certificates deterministic.
    """
    supports, required = _moves(k, l)
    start_occ = _start_config(start, Interval(k, l).inner).occ
    tree = {start_occ: None}
    frontier = [start_occ]
    while frontier:
        fresh = []
        for node in frontier:
            moves = np.flatnonzero((node & supports) == required)
            for dst, move in zip((node ^ supports[moves]).tolist(), moves.tolist()):
                if dst not in tree:
                    tree[dst] = (node, move)
                    fresh.append(dst)
        frontier = sorted(fresh)
    return tree


def _oracle_word_steps(k, l, start, target_occ):
    tree = _oracle_reachability(k, l, start)
    chain = []
    link = tree[target_occ]
    while link is not None:
        node, move = link
        chain.append(_move_step(k, l, move))
        link = tree[node]
    chain.reverse()
    return tuple(chain)


@pytest.mark.parametrize("k,l", [(0, 1), (0, 3), (-2, 1), (1, 5)])
def test_moves_follow_the_union_space(k, l):
    # the oracle's packed move arrays encode enumerate_union, plain before adjoint
    supports, required = _moves(k, l)
    expected = [(f, adj) for f in enumerate_union(k, l) for adj in (False, True)]
    assert supports.size == required.size == len(expected)
    decoded = [_move_step(k, l, move) for move in range(supports.size)]
    assert decoded == expected


ORACLE_CASES = (
    [(0, n, start) for n in range(1, 9) for start in ("fock", "occupied")]
    + [(0, 9, "occupied")]
    + [(k, l, start) for k, l in ((-2, 1), (-3, 0), (1, 4)) for start in ("fock", "occupied")]
)


@pytest.mark.parametrize("k,l,start", ORACLE_CASES)
def test_footprint_search_matches_the_per_move_oracle(k, l, start):
    # same reached set, same parent for every configuration, same word for
    # every target
    oracle = _oracle_reachability(k, l, start)
    tree = _reachability(k, l, start)
    assert tree == {dst: link and link[0] for dst, link in oracle.items()}
    for target in oracle:
        assert _word_steps(k, l, start, target) == _oracle_word_steps(k, l, start, target)
    _oracle_reachability.cache_clear()
    _reachability.cache_clear()


SHIFTED_INTERVALS = [(-2, 1), (-3, 0), (1, 4), (-1, 5)]
SORTED_SEARCH_CASES = [
    (k, l, start)
    for k, l in [(0, n) for n in range(1, 11)] + SHIFTED_INTERVALS
    for start in ("fock", "occupied")
]


@pytest.mark.parametrize("k,l,start", SORTED_SEARCH_CASES)
def test_bitwise_search_matches_the_sorted_word_search(k, l, start):
    # the one-pass levels and the reached-bitmap give the tree that
    # searchsorted against sorted words, reached set and frontier gives,
    # entered in the same order
    tree = _reachability(k, l, start)
    assert list(tree.items()) == list(footprint_search_tree(k, l, start).items())
    _reachability.cache_clear()


@pytest.mark.parametrize(
    "k,l,start",
    [
        (k, l, start)
        for k, l in [(0, n) for n in range(1, 7)] + SHIFTED_INTERVALS
        for start in ("fock", "occupied")
    ],
)
def test_search_tree_does_not_depend_on_the_chunk_size(monkeypatch, k, l, start):
    # a budget of a few cells puts every frontier node in a chunk of its own,
    # so a fresh node's smallest parent is found across many chunks
    monkeypatch.setattr(ground, "_CHUNK", 4)
    _reachability.cache_clear()
    tree = _reachability(k, l, start)
    _reachability.cache_clear()
    assert list(tree.items()) == list(footprint_search_tree(k, l, start).items())


def test_search_refuses_windows_whose_keys_overflow():
    # two 33-site states do not fit in one int64 key; refused before the
    # reached-bitmap is allocated
    with pytest.raises(ValueError, match="does not fit in int64"):
        _reachability(0, 16, "fock")


# -- the matrix replay, kept as the oracle of the closed-form replay ----------
#
# ``replay_word_matrix`` as the library had it before words were replayed on
# their one vector: every step builds its charge as a matrix over the whole
# window and applies it.


@lru_cache(maxsize=None)
def _charge_matrix(f, adjoint, window):
    return build_matrix(_step_monomial(f, adjoint), window)


def _replay_by_matrices(word):
    window = Interval(word.k, word.l).inner
    vec = FockVector.from_config(_start_config(word.start, window))
    for f, adjoint in word.steps:
        vec = _charge_matrix(f, adjoint, window).apply(vec)
    return vec


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("start", ["fock", "occupied"])
def test_closed_form_replay_matches_matrix_replay(n, start):
    for word in generation_table(0, n, start).values():
        expected = FockVector.from_config(word.target, word.predicted_sign)
        assert _replay_by_matrices(word) == replay_word_matrix(word) == expected
    _charge_matrix.cache_clear()


@pytest.mark.parametrize("start,target,sign,steps", N8_WORDS)
def test_closed_form_replay_matches_matrix_replay_at_n8(start, target, sign, steps):
    word = GenerationWord.from_json(
        {"start": start, "k": 0, "l": 8, "target": target, "steps": steps,
         "predicted_sign": sign}
    )
    expected = FockVector.from_config(word.target, sign)
    assert _replay_by_matrices(word) == replay_word_matrix(word) == expected
    _charge_matrix.cache_clear()


def _corrupted_words():
    """Words that must not reach their target: one adjoint flag flipped, or
    one step whose pattern does not match the bits it meets."""
    for n in (2, 3, 4):
        for start in ("fock", "occupied"):
            for word in generation_table(0, n, start).values():
                for i, (f, adjoint) in enumerate(word.steps):
                    flipped = word.steps[:i] + ((f, not adjoint),) + word.steps[i + 1:]
                    yield GenerationWord(start, 0, n, flipped, word.target, 1)
                    negated = ConservationSequence(f.k, f.l, tuple(-v for v in f.values))
                    swapped = word.steps[:i] + ((negated, adjoint),) + word.steps[i + 1:]
                    yield GenerationWord(start, 0, n, swapped, word.target, 1)


def test_corrupted_words_fail_alike_on_both_replays():
    count = 0
    for word in _corrupted_words():
        vec = replay_word_matrix(word)
        assert vec == _replay_by_matrices(word)
        assert vec.classical_config() is None or vec.classical_config()[0] != word.target
        count += 1
    assert count > 100
    _charge_matrix.cache_clear()
