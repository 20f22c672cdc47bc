"""Ground-config classification, counting, SUSY vector tests, extension."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from nicolai.charges import ConservationSequence
from nicolai.fixtures import load_fixture
from nicolai.fock import FockVector, OccupationConfig, SiteWindow
from nicolai.ground import (
    charge_action_on_config,
    count_transfer,
    enumerate_upsilon_hat,
    extend_to_interval,
    is_close_edge_susy_vector,
    is_ground_config,
    is_open_edge_susy_vector,
)
from nicolai.model import Interval
from nicolai.verify import classification_suite
from oracles import cross_oracle_suite


def _cfg(lo, hi, text):
    return OccupationConfig.from_string(SiteWindow(lo, hi), text)


def _vec(k, l, text):
    return FockVector.from_config(_cfg(2 * k, 2 * l, text))


# -- forbidden triplets -------------------------------------------------------

def test_ground_config_examples():
    assert is_ground_config(_cfg(0, 2, "000"))
    assert is_ground_config(_cfg(0, 2, "111"))
    # no even-centered triplet fits inside [0..2], so the scan is vacuous;
    # 010 and 101 are excluded from the open-boundary class by the edge
    # condition, not by a forbidden triplet
    assert is_ground_config(_cfg(0, 2, "010"))
    assert is_ground_config(_cfg(0, 2, "101"))
    assert not is_ground_config(_cfg(0, 4, "01010"))  # 101 centered at site 2
    # the alternating pattern only matters when centered on an even site
    assert is_ground_config(_cfg(0, 4, "10111"))
    assert not is_ground_config(_cfg(0, 4, "11011"))  # 101 centered at site 2


def test_ground_config_on_shifted_window():
    # centers are absolute even sites, not window-relative positions
    assert not is_ground_config(_cfg(1, 3, "010"))  # 010 centered at site 2
    assert is_ground_config(_cfg(1, 5, "01100"))


# -- enumeration and counting -------------------------------------------------

@pytest.mark.parametrize("name,expected_len", [
    ("upsilon_0_1", 2), ("upsilon_0_2", 6), ("upsilon_0_3", 18),
])
def test_upsilon_fixture_tables(name, expected_len):
    table = load_fixture(name)
    assert len(table["configs"]) == expected_len
    produced = {g.to_string() for g in enumerate_upsilon_hat(table["k"], table["l"])}
    assert produced == set(table["configs"])


def test_enumeration_is_lexicographic():
    listing = [g.to_string() for g in enumerate_upsilon_hat(0, 2)]
    assert listing == sorted(listing)
    assert listing[0] == "00000" and listing[-1] == "11111"


def test_translation_covariance():
    base = [g.to_string() for g in enumerate_upsilon_hat(0, 2)]
    shifted = [g.to_string() for g in enumerate_upsilon_hat(3, 5)]
    assert base == shifted
    negative = [g.to_string() for g in enumerate_upsilon_hat(-2, 0)]
    assert base == negative


def test_transfer_counts():
    assert count_transfer(1) == 2
    assert count_transfer(3) == 18
    assert count_transfer(8) == 4374
    with pytest.raises(ValueError):
        count_transfer(0)


def test_counting_methods_agree():
    for n in range(1, 11):
        assert len(enumerate_upsilon_hat(0, n)) == count_transfer(n)


# -- SUSY vector tests --------------------------------------------------------

def test_open_edge_examples():
    assert is_open_edge_susy_vector(_vec(0, 1, "000"), 0, 1)
    assert is_open_edge_susy_vector(_vec(0, 1, "111"), 0, 1)
    assert not is_open_edge_susy_vector(_vec(0, 1, "010"), 0, 1)
    assert not is_open_edge_susy_vector(_vec(0, 1, "001"), 0, 1)  # edge pair broken


def test_close_edge_examples():
    assert is_close_edge_susy_vector(_vec(0, 2, "00011"), 0, 2)
    # close-edge without open-edge: the edges are unconstrained here
    assert is_close_edge_susy_vector(_vec(0, 2, "01000"), 0, 2)
    assert not is_open_edge_susy_vector(_vec(0, 2, "01000"), 0, 2)
    # an interior alternating triplet breaks even the close-edge condition
    assert not is_close_edge_susy_vector(_vec(0, 2, "01010"), 0, 2)
    assert not is_close_edge_susy_vector(_vec(0, 2, "00100"), 0, 2)
    with pytest.raises(ValueError):
        is_close_edge_susy_vector(_vec(0, 1, "000"), 0, 1)


def test_open_implies_close_for_classical_vectors():
    for n in (2, 3):
        window = Interval(0, n).inner
        for occ in range(window.dimension):
            vec = FockVector.from_config(OccupationConfig(window, occ))
            if is_open_edge_susy_vector(vec, 0, n):
                assert is_close_edge_susy_vector(vec, 0, n)


def test_classification_equivalence_small():
    for n in (1, 2, 3):
        assert all(c.passed for c in classification_suite(n))


def test_classification_off_origin():
    k, l = -2, 1
    window = Interval(k, l).inner
    members = {g.occ for g in enumerate_upsilon_hat(k, l)}
    for occ in range(window.dimension):
        vec = FockVector.from_config(OccupationConfig(window, occ))
        assert is_open_edge_susy_vector(vec, k, l) == (occ in members)


def test_entangled_zero_mode_stays_close_edge():
    # superpositions are fair game for the vector tests
    w = Interval(0, 2).inner
    psi = FockVector(w, {0: 1, 31: 1})  # |00000> + |11111>
    assert is_close_edge_susy_vector(psi, 0, 2)


# -- config-level charge action ----------------------------------------------

def test_charge_action_examples():
    r_plus = ConservationSequence.constant(0, 1, 1)
    out = charge_action_on_config(r_plus, _cfg(0, 2, "000"))
    assert out == (_cfg(0, 2, "111"), 1)
    assert charge_action_on_config(r_plus, _cfg(0, 2, "100")) is None
    # adjoint annihilates where the sequence is +1
    out = charge_action_on_config(r_plus, _cfg(0, 2, "111"), use_adjoint=True)
    assert out[0] == _cfg(0, 2, "000")
    with pytest.raises(ValueError):
        charge_action_on_config(ConservationSequence.constant(0, 2, 1), _cfg(0, 2, "000"))


def test_charge_action_sign_convention():
    # acting inside a larger window picks up the left-occupation signs
    f = ConservationSequence.constant(1, 2, 1)
    g = _cfg(0, 4, "10000")
    out, sign = charge_action_on_config(f, g)
    assert out == _cfg(0, 4, "10111")
    assert sign == -1  # each of the three creations passes the occupied site 0


def test_cross_oracle_agreement():
    checks = cross_oracle_suite(pairs=200, seed=1)
    assert all(c.passed for c in checks)


# -- extension of partial configs ----------------------------------------------

def test_extend_single_site():
    k, l, ext = extend_to_interval({3: 1})
    assert (k, l) == (1, 2)
    assert ext.to_string() == "111"


def test_extend_pair():
    k, l, ext = extend_to_interval({2: 1, 3: 1})
    assert (k, l) == (1, 2) and ext.to_string() == "111"


def test_extend_already_valid():
    k, l, ext = extend_to_interval({0: 0, 1: 0, 2: 0})
    assert (k, l) == (0, 1) and ext.to_string() == "000"


def test_extend_needs_larger_interval():
    k, l, ext = extend_to_interval({2: 1, 4: 0})
    assert (k, l) == (0, 2)
    assert ext.to_string() == "11100"
    assert is_ground_config(ext)


def test_extend_rejects_forbidden_input():
    with pytest.raises(ValueError):
        extend_to_interval({1: 0, 2: 1, 3: 0})
    with pytest.raises(ValueError):  # site -1 would have to be 1 and 0
        extend_to_interval({-3: 0, -2: 1, 0: 0, 1: 1})
    with pytest.raises(ValueError):
        extend_to_interval({})


def test_extension_agrees_with_assignment():
    assignment = {-3: 1, 0: 0}
    k, l, ext = extend_to_interval(assignment)
    window = Interval(k, l).inner
    assert window.lo <= -3 and window.hi >= 0
    for site, bit in assignment.items():
        assert ext.bit(site) == bit
    assert ext in enumerate_upsilon_hat(k, l)


def _extension_by_brute_force(assignment):
    # Smallest even-edged interval covering the support (ties toward the
    # smaller k), then the lexicographically first bit string on it with
    # constant edge pairs, no alternating triplet centered at an even site
    # and the assigned bits; None when no interval inside sites -8..8 has one.
    lo, hi = min(assignment), max(assignment)
    intervals = sorted(
        ((k, l) for k in range(-4, 3) for l in range(k + 1, 5)
         if 2 * k <= lo and hi <= 2 * l),
        key=lambda kl: (kl[1] - kl[0], kl[0]),
    )
    for k, l in intervals:
        sites = range(2 * k, 2 * l + 1)
        for bits in itertools.product((0, 1), repeat=len(sites)):
            word = dict(zip(sites, bits))
            if word[sites[0]] != word[sites[1]] or word[sites[-2]] != word[sites[-1]]:
                continue
            if any(word[c - 1] == word[c + 1] != word[c] for c in sites[2:-2:2]):
                continue
            if all(word[s] == b for s, b in assignment.items()):
                return k, l, "".join(map(str, bits))
    return None


def _triplet_free(assignment):
    return not any(
        assignment[c - 1] == assignment[c + 1] != assignment[c]
        for c in assignment
        if c % 2 == 0 and c - 1 in assignment and c + 1 in assignment
    )


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.integers(-4, 4), st.integers(0, 1), min_size=1).filter(_triplet_free))
def test_extension_matches_brute_force(assignment):
    expected = _extension_by_brute_force(assignment)
    if expected is None:
        with pytest.raises(ValueError):
            extend_to_interval(assignment)
    else:
        k, l, ext = extend_to_interval(assignment)
        assert (k, l, ext.to_string()) == expected
