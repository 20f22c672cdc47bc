"""Conservation sequences, their charge monomials, and the conservation laws."""

import hashlib
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nicolai import charges
from nicolai.charges import (
    ConservationSequence,
    _admissible,
    _constraint_violation,
    _first_word,
    _word_chunks,
    _words,
    charge_monomial,
    enumerate_sequences,
    enumerate_union,
    verify_annihilation,
    verify_commutation,
)
from nicolai.fixtures import load_fixture
from nicolai.fock import (
    FermionMonomial,
    FockVector,
    OccupationConfig,
    SiteWindow,
    anticommutator,
    build_matrix,
    commutator,
    parity_operator,
)
from nicolai.ground import count_transfer, enumerate_upsilon_hat
from nicolai.model import build_supercharge, supercharge_term
from oracles import (
    alternates,
    constraint_violation_by_loop,
    particle_hole_unitary,
    words_in_one_array,
)


def _seq(k, l, text):
    return ConservationSequence.from_string(k, l, text)


def _const(k, l, sign):
    return ConservationSequence(k, l, (sign,) * (2 * (l - k) + 1))


def negate(f):
    """Pointwise sign flip; the constraints are symmetric so it stays valid."""
    return ConservationSequence(f.k, f.l, tuple(-v for v in f.values))


# -- the sequence space -------------------------------------------------------

def test_validation_rules():
    with pytest.raises(ValueError):
        _seq(0, 1, "--")  # wrong length
    with pytest.raises(ValueError):
        _seq(0, 1, "-+-")  # left edge pair not constant
    with pytest.raises(ValueError):
        _seq(0, 2, "--+-+")  # right edge pair not constant
    with pytest.raises(ValueError):
        _seq(0, 2, "++-++")  # alternating triplet at the even center
    with pytest.raises(ValueError):
        ConservationSequence(1, 1, (1, 1, 1))
    # the same strings are fine with checking disabled (corruption fixtures)
    bad = ConservationSequence.from_string(0, 2, "+----", check=False)
    assert bad.to_string() == "+----"


@pytest.mark.parametrize("build", [
    lambda: ConservationSequence(0, 1, (1.5, 1, 1)),
    lambda: ConservationSequence(0, 1, (-1.9, -1, -1)),
    lambda: ConservationSequence(0.5, 1.5, (1, 1, 1)),
    lambda: ConservationSequence(0, 1.0, (1, 1, 1)),
    lambda: OccupationConfig(SiteWindow(0, 1), 1.5),
])
def test_inexact_inputs_raise_instead_of_truncating(build):
    with pytest.raises(TypeError):
        build()


def _check_against_the_loop(values):
    # the mask check and the triplet scan agree on the verdict, the message
    # and, for a word of letters, on the bitwise test
    expected = constraint_violation_by_loop(values)
    assert _constraint_violation(values) == expected
    n = len(values)
    if n < 3 or n % 2 == 0 or any(v not in (-1, 1) for v in values):
        return
    word = sum(1 << p for p, v in enumerate(values) if v == 1)
    assert bool(_admissible(word, n)) == (expected is None)
    if expected is None:
        assert ConservationSequence(0, n // 2, values).values == values
    else:
        with pytest.raises(ValueError) as raised:
            ConservationSequence(0, n // 2, values)
        assert str(raised.value) == expected


@pytest.mark.parametrize("size", range(3, 14, 2))
def test_sequence_check_matches_the_triplet_scan_on_every_word(size):
    for values in product((-1, 1), repeat=size):
        _check_against_the_loop(values)


@pytest.mark.parametrize("values", [
    (), (1,), (1, 1), (1, 1, 1, 1), (-1,) * 6, (0, 0, 0), (1, 2, 1), (1, 1, -1, 1, 1, 0, 0),
    (1, -1, 1, -1, 1),  # both edges and the triplet: the left edge is named
    (1, 1, -1, 1, -1),  # the triplet at 2 and the right edge: the edge is named
    (1, 1, -1, 1, 1, -1, 1, 1, 1),  # triplets at 2 and 6: the lowest is named
])
def test_sequence_check_matches_the_triplet_scan_on_malformed_values(values):
    _check_against_the_loop(values)


@st.composite
def _runs(draw):
    # runs of at least two letters of one sign hold no alternating triplet;
    # a few flipped letters then make runs of one, which break the rule
    # where they sit at an even offset or at an edge, so long words pass or
    # fail anywhere along their length
    size = draw(st.integers(30, 100)) * 2 + 1
    sign = draw(st.sampled_from((-1, 1)))
    values = []
    while len(values) < size:
        values += [sign] * draw(st.integers(2, 6))
        sign = -sign
    values = values[:size]
    for p in draw(st.lists(st.integers(0, size - 1), max_size=3)):
        values[p] = -values[p]
    return tuple(values)


@settings(max_examples=200, deadline=None)
@given(_runs())
def test_sequence_check_matches_the_triplet_scan_on_long_words(values):
    _check_against_the_loop(values)


def test_smallest_space_is_the_two_constants():
    seqs = enumerate_sequences(0, 1)
    assert [f.to_string() for f in seqs] == ["---", "+++"]
    assert seqs[0] == _const(0, 1, -1)
    assert seqs[1] == _const(0, 1, 1)


@pytest.mark.parametrize("name,expected_len", [
    ("xi_0_1", 2), ("xi_0_2", 6), ("xi_0_3", 18), ("xi_0_4", 54),
])
def test_fixture_tables_reproduced(name, expected_len):
    table = load_fixture(name)
    assert len(table["sequences"]) == expected_len
    produced = {f.to_string() for f in enumerate_sequences(table["k"], table["l"])}
    assert produced == set(table["sequences"])
    assert len(set(table["sequences"])) == expected_len


def test_size_law():
    for n in range(1, 11):
        assert len(enumerate_sequences(0, n)) == 2 * 3 ** (n - 1)
        assert count_transfer(n) == 2 * 3 ** (n - 1)


def test_sequence_config_bijection():
    # -1 <-> 0, +1 <-> 1 identifies the sequence space with the config space,
    # order included
    for n in range(1, 5):
        seq_strings = [
            f.to_string().replace("-", "0").replace("+", "1")
            for f in enumerate_sequences(0, n)
        ]
        cfg_strings = [g.to_string() for g in enumerate_upsilon_hat(0, n)]
        assert seq_strings == cfg_strings


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# sha256 of the newline-joined listings; generation words break BFS ties by
# the order of enumerate_union, so the order is part of the contract.
SEQUENCE_DIGESTS = {
    1: "e5c77db851b4a57ac62f27d0fe096396255ba25140b3f0b37074bf9e455577a9",
    2: "a544b08db15e4fb351f60706181222ffb30f6de8fc205f6f7465748c6f2309f1",
    3: "f595730227ff87d6da921a5a01fb78be794a8fc1a9f1ca26ab468284ff489f78",
    4: "63a768aafe3ad80265cd5b458bbaac3f89326a4ca3f88d5d61e424127443884b",
    5: "5148e38a980f9661cf4089dd30544581ee9644c7383b8e649e77847065758cb0",
    6: "bc3e14cada691eda10447b5f6ce4c5cf4bafd6421ea8b4178fbaddb9b7f03669",
    7: "3ad17b0240fd1b519c3c96943cbb2a54146f9b3fcef20c6eac11f291206ca622",
    8: "2a68c6d57f1411aa853703ec36af501b22267740c52f63b602aa5250db00ee6f",
}
CONFIG_DIGESTS = {
    1: "35d169ef3f3a45d1d56b55790a9ed96eabdcc6ca929d3f4c27412ae4413003b9",
    2: "bfd963a0318ab11094dd566bde425eda6acb17634c85dbf8abdbdd7807aaf3bb",
    3: "d40ee153a29bea8188d3cebb3e39167b5fbb5f051d79435fcfc350bbe8af9ec2",
    4: "7e13f5ef6aac5c18e8f64c85a5816e4839c57431edad24a834cf90356011cd82",
    5: "8ef119b77ab363d2bb15f1d8bc3df5f31e17341a39fcc6531e3a86c07a032c0b",
    6: "4c7174eca67c549a0fe96b11888e945449fe3a71d7f2468dff50b3ef0cb0e0eb",
    7: "a19d4024320909d8afe4bd98f9c1230f1b12c7fd3fa216d367a7a79aa0ed4226",
    8: "8ab78b2bd08b2acac247b02586d1ef13805e794c3837be35007d9f06f78c0d1b",
}
UNION_0_8_DIGEST = "9b1f830505cb2a6507d075e62b0457b386d6930fe74609a19c78345529fc4e46"


@pytest.mark.parametrize("n", range(1, 9))
def test_enumeration_order_digests(n):
    assert _digest(f.to_string() for f in enumerate_sequences(0, n)) == SEQUENCE_DIGESTS[n]
    assert _digest(g.to_string() for g in enumerate_upsilon_hat(0, n)) == CONFIG_DIGESTS[n]


def test_union_order_digest():
    union = enumerate_union(0, 8)
    assert _digest(f"{f.k},{f.l},{f.to_string()}" for f in union) == UNION_0_8_DIGEST


@pytest.mark.parametrize("p,q", [(0, 3), (-2, 1), (1, 4), (-3, 0)])
def test_union_comes_sorted(p, q):
    # the concatenation is already in (k, l, values) order, never re-sorted
    union = enumerate_union(p, q)
    assert union == sorted(union)


def _walk_oracle(size, pinned=None):
    """Depth-first walk over the admissible words of odd ``size``, lazily, in
    lexicographic order; the enumerator the bulk and greedy readers replaced.

    Bit ``p`` of each yielded integer is the letter at offset ``p``; ``pinned``
    maps offsets to required letters.  Choices that cannot be completed are
    pruned before the walk starts.
    """
    care = want = 0
    for p, b in (pinned or {}).items():
        care |= 1 << p
        want |= b << p
    groups = [(0, 1)] + [(p, p + 1) for p in range(2, size - 1, 2)] + [(size - 1,)]
    depth = len(groups) - 1
    levels = [([], [])] * len(groups)
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
                allowed = not alternates(a, *letters)
            bits = sum(b << p for b, p in zip(letters, group))
            if (
                allowed
                and (bits ^ want) & care & mask == 0
                and (j == depth or levels[j + 1][letters[-1]])
            ):
                levels[j][a].append((bits, letters[-1]))
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


@pytest.mark.parametrize("size", range(3, 26, 2))
def test_bulk_words_match_depth_first_oracle(size):
    words = _words(size)
    assert words.dtype == "int64"
    assert words.tolist() == list(_walk_oracle(size))


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("size", range(3, 26, 2))
def test_word_chunks_concatenate_to_the_one_array_words(monkeypatch, size, split):
    expected = words_in_one_array(size)
    if split:  # a chunk length that splits every size into several chunks
        monkeypatch.setattr(charges, "_WORD_CHUNK", max(1, expected.size // 5))
    chunks = list(_word_chunks(size))
    assert all(c.dtype == "int64" and 0 < c.size <= charges._WORD_CHUNK for c in chunks)
    assert len(chunks) > 1 or not split
    assert np.concatenate(chunks).tolist() == expected.tolist() == _words(size).tolist()


@st.composite
def _pinned_sizes(draw):
    size = draw(st.integers(1, 20)) * 2 + 1
    pinned = draw(st.dictionaries(st.integers(0, size - 1), st.integers(0, 1), max_size=size))
    return size, pinned


@settings(max_examples=300, deadline=None)
@given(_pinned_sizes())
def test_first_word_matches_depth_first_oracle(case):
    size, pinned = case
    assert _first_word(size, pinned) == next(_walk_oracle(size, pinned), None)


@pytest.mark.parametrize("size", [201, 1001])
@pytest.mark.parametrize("seed", range(8))
def test_first_word_matches_depth_first_oracle_on_wide_windows(size, seed):
    # up to 12 pins in a stretch of 16 letters, so that they interact, at the
    # left edge, at the right edge or anywhere between
    rng = random.Random(seed)
    start = rng.choice((0, rng.randrange(size - 15), size - 16))
    offsets = rng.sample(range(start, start + 16), rng.randint(0, 12))
    pinned = {p: rng.randint(0, 1) for p in offsets}
    assert _first_word(size, pinned) == next(_walk_oracle(size, pinned), None)


@pytest.mark.parametrize("size", range(3, 18, 2))
def test_admissible_is_membership_in_the_enumerated_words(size):
    every = np.arange(1 << size, dtype=np.int64)
    assert np.flatnonzero(_admissible(every, size)).tolist() == sorted(_words(size).tolist())
    # bits above the word are ignored
    assert np.array_equal(_admissible(every | (0b101 << size), size), _admissible(every, size))


def test_first_word_without_completion():
    # offset 1 = 0 forces offset 0 = 0 through the constant left edge pair
    assert _first_word(5, {0: 1, 1: 0}) is None
    assert _first_word(7, {1: 0, 2: 1, 3: 0}) is None  # alternating triplet at 2


@pytest.mark.parametrize("size", [63, 65, 101])
def test_bulk_words_refuse_int64_overflow(size):
    with pytest.raises(ValueError, match="int64"):
        _words(size)


def test_union_sizes():
    assert len(enumerate_union(0, 1)) == 2
    assert len(enumerate_union(0, 2)) == 2 + 2 + 6
    assert len(enumerate_union(0, 3)) == 2 + 2 + 2 + 6 + 6 + 18
    with pytest.raises(ValueError):
        enumerate_union(2, 2)


def test_union_keeps_intervals_distinct():
    union = enumerate_union(0, 2)
    constants = [f for f in union if f.to_string() == "---"]
    assert {(f.k, f.l) for f in constants} == {(0, 1), (1, 2)}


# -- charge monomials ---------------------------------------------------------

def test_constant_charges():
    plus = charge_monomial(_const(0, 1, 1))
    assert plus.factors == ((0, True), (1, True), (2, True))
    minus = charge_monomial(_const(0, 1, -1))
    assert minus.factors == ((0, False), (1, False), (2, False))
    # the all-plus charge creates the fully occupied state from the vacuum
    w = SiteWindow(0, 2)
    out = build_matrix(plus, w).apply(FockVector(w, {0: 1}))
    assert out == FockVector(w, {w.dimension - 1: 1})


def test_mixed_charges_from_tables():
    u_i = charge_monomial(_seq(0, 2, "---++"))
    assert u_i.factors == (
        (0, False), (1, False), (2, False), (3, True), (4, True)
    )
    t_i = charge_monomial(_seq(0, 3, "+++--++"))
    assert t_i.factors == (
        (0, True), (1, True), (2, True), (3, False), (4, False), (5, True), (6, True)
    )


def test_charges_are_odd():
    theta = None
    for f in enumerate_union(0, 2):
        mono = charge_monomial(f)
        assert mono.degree == 2 * (f.l - f.k) + 1
        window = SiteWindow(0, 4)
        theta = theta or parity_operator(window)
        assert anticommutator(theta, build_matrix(mono, window)).is_zero()


# -- negation and particle-hole ----------------------------------------------

def test_negate_is_an_involution():
    for f in enumerate_sequences(0, 2):
        assert negate(negate(f)) == f
    r_plus = _const(0, 1, 1)
    assert negate(r_plus) == _const(0, 1, -1)


def test_sequence_space_closed_under_negation():
    for n in (1, 2, 3):
        space = set(enumerate_sequences(0, n))
        assert {negate(f) for f in space} == space
    # blockwise pairings in the published list for n = 3
    assert negate(_seq(0, 3, "---++--")).to_string() == "+++--++"
    assert negate(_seq(0, 3, "-----++")).to_string() == "+++++--"


def test_negation_is_particle_hole_conjugation():
    # matrix(Q(-f)) equals U matrix(Q(f)) U^T up to one overall sign per window
    for f in enumerate_sequences(0, 2) + enumerate_sequences(0, 1):
        window = SiteWindow(2 * f.k, 2 * f.l)
        u = particle_hole_unitary(window)
        conjugated = u @ build_matrix(charge_monomial(f), window) @ u.transpose()
        negated = build_matrix(charge_monomial(negate(f)), window)
        assert conjugated == negated  # odd window: no residual sign


def test_adjoint_negation_sign():
    # Q(f)* = (-1)^(m(m-1)/2) Q(-f) with m factors
    for f in enumerate_union(0, 3):
        m = 2 * (f.l - f.k) + 1
        window = SiteWindow(2 * f.k, 2 * f.l)
        lhs = build_matrix(charge_monomial(f).adjoint(), window)
        sign = -1 if (m * (m - 1) // 2) % 2 else 1
        minus = charge_monomial(negate(f))
        rhs = build_matrix(FermionMonomial(sign * minus.coefficient, minus.factors), window)
        assert lhs == rhs


# -- conservation laws --------------------------------------------------------

def test_annihilation_examples():
    assert verify_annihilation([_const(0, 1, 1)], SiteWindow(-1, 3))
    assert verify_annihilation([_const(0, 2, -1)], SiteWindow(-1, 5))
    corrupted = ConservationSequence.from_string(0, 2, "+----", check=False)
    assert not verify_annihilation([corrupted], SiteWindow(-1, 5))
    with pytest.raises(ValueError):
        verify_annihilation([_const(0, 2, 1)], SiteWindow(0, 3))


def test_commutation_examples():
    m1 = build_supercharge((0, 1), "open")
    assert verify_commutation([_const(0, 1, 1)], m1)
    m2 = build_supercharge((0, 2), "open")
    assert verify_commutation([_seq(0, 2, "---++")], m2)
    with pytest.raises(ValueError):
        verify_commutation([_seq(0, 2, "---++")], m1)


def test_commutation_sweep_n3():
    m = build_supercharge((0, 3), "open")
    union = enumerate_union(0, 3)
    assert len(union) == 36
    assert verify_commutation(union, m)
    assert verify_annihilation(union, m.window)


# The per-sequence checks the batched ones replaced, kept as their oracle.

def _annihilation_oracle(f, window):
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


def _commutation_oracle(f, m):
    if not (m.window.lo <= 2 * f.k and 2 * f.l <= m.window.hi):
        raise ValueError("sequence interval not inside the model window")
    charge = build_matrix(charge_monomial(f), m.window)
    return (
        anticommutator(m.Q, charge).is_zero()
        and anticommutator(m.Qdag, charge).is_zero()
        and commutator(m.H, charge).is_zero()
        and commutator(m.H, charge.adjoint()).is_zero()
    )


def _assert_oracle_verdicts(sequences, m):
    for f in sequences:
        assert verify_commutation([f], m) == _commutation_oracle(f, m), f
        assert verify_annihilation([f], m.window) == _annihilation_oracle(f, m.window), f
    assert verify_commutation(sequences, m) == all(_commutation_oracle(f, m) for f in sequences)
    assert verify_annihilation(sequences, m.window) == all(
        _annihilation_oracle(f, m.window) for f in sequences
    )


@pytest.mark.parametrize("n", range(1, 5))
def test_batched_checks_match_per_sequence_oracle(n):
    _assert_oracle_verdicts(enumerate_union(0, n), build_supercharge((0, n), "open"))


@pytest.mark.parametrize("letters", [3, 5, 7])
@pytest.mark.parametrize("k", [0, 1])
def test_batched_checks_match_oracle_on_every_string(letters, k):
    # every +-1 string, constraint-violating ones included, at the left edge
    # of the model window (k = 0) and one step inside it (k = 1)
    l = k + letters // 2
    strings = [
        ConservationSequence(k, l, values, check=False)
        for values in product((-1, 1), repeat=letters)
    ]
    m = build_supercharge((0, l), "open")
    _assert_oracle_verdicts(strings, m)
    # the constraints decide: only admissible strings are conserved
    admissible = set(enumerate_sequences(k, l))
    for f in strings:
        assert verify_commutation([f], m) == (f in admissible), f.to_string()


@pytest.mark.parametrize("letters", [3, 5, 7])
@pytest.mark.parametrize("k", [0, 1])
def test_annihilation_matches_oracle_on_windows_no_model_builds(letters, k):
    # a window wider than the model's on both sides, and the bare interval,
    # where the triplets of the edge centers k and l do not fit
    l = k + letters // 2
    strings = [
        ConservationSequence(k, l, values, check=False)
        for values in product((-1, 1), repeat=letters)
    ]
    for window in (SiteWindow(2 * k - 3, 2 * l + 2), SiteWindow(2 * k, 2 * l)):
        verdicts = [_annihilation_oracle(f, window) for f in strings]
        for f, verdict in zip(strings, verdicts):
            assert verify_annihilation([f], window) == verdict, (window, f.to_string())
        assert verify_annihilation(strings, window) == all(verdicts)


@pytest.mark.parametrize("letters", [3, 5])
@pytest.mark.parametrize("k", [0, 1])
def test_charge_products_vanish_in_one_order_iff_in_the_other(letters, k):
    # the lemma that lets verify_annihilation take only the products q Q(f)
    # and q* Q(f): monomials with distinct sites multiply to zero exactly when
    # a shared site carries the same ladder operator, in either order
    l = k + letters // 2
    window = SiteWindow(2 * k - 3, 2 * l + 2)
    centers = range((window.lo + 2) // 2, (window.hi + 1) // 2)
    terms = [build_matrix(supercharge_term(i), window) for i in centers]
    terms += [t.adjoint() for t in terms]
    for values in product((-1, 1), repeat=letters):
        f = ConservationSequence(k, l, values, check=False)
        x = build_matrix(charge_monomial(f), window)
        for y in terms:
            assert (x @ y).is_zero() == (y @ x).is_zero(), (f.to_string(), y)


def test_charges_suite_takes_few_products(monkeypatch):
    # the identities take a few wide products over all sequences, not one
    # product per sequence and center (about 2,900 at n = 4); every product
    # goes through the counted function
    from nicolai import fock
    from nicolai.verify import charges_suite

    calls = []
    pieces = fock._product_pieces

    def counted(function):
        def wrapper(*args):
            calls.append(function.__name__)
            return function(*args)
        return wrapper

    monkeypatch.setattr(fock, "_product_pieces", counted(pieces))
    assert all(c.passed for c in charges_suite(4))
    # none for H, built in closed form; 3 for the four commutation
    # identities, 2 for annihilation
    assert len(calls) == 5
