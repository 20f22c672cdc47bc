"""Ground-config classification, counting, SUSY vector tests, extension."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from nicolai.charges import _STEPS, ConservationSequence
from nicolai.fixtures import load_fixture
from nicolai.fock import FockVector, OccupationConfig, SiteWindow, build_matrix
from nicolai.ground import (
    _apply_closed_form,
    charge_action_on_config,
    count_transfer,
    enumerate_upsilon_hat,
    extend_to_interval,
    is_close_edge_susy_vector,
    is_ground_config,
    is_open_edge_susy_vector,
)
from nicolai.model import Interval, build_supercharge, spectrum
from nicolai.verify import classification_suite
from oracles import (
    alternates,
    cross_oracle_suite,
    forbidden_centre_by_loop,
    is_ground_config_by_loop,
    susy_by_matrix,
)


def _cfg(lo, hi, text):
    return OccupationConfig.from_string(SiteWindow(lo, hi), text)


def _const(k, l, sign):
    return ConservationSequence(k, l, (sign,) * (2 * (l - k) + 1))


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


@pytest.mark.parametrize("lo", [-3, -2, 0, 1])
@pytest.mark.parametrize("size", range(1, 13))
def test_ground_config_mask_matches_the_triplet_scan(lo, size):
    # every config of the window, its low edge even or odd
    window = SiteWindow(lo, lo + size - 1)
    for occ in range(window.dimension):
        g = OccupationConfig(window, occ)
        assert is_ground_config(g) == is_ground_config_by_loop(g), (lo, g.to_string())


@settings(max_examples=200, deadline=None)
@given(st.integers(-50, 50), st.integers(60, 201), st.data())
def test_ground_config_mask_matches_the_triplet_scan_on_wide_windows(lo, size, data):
    # a word of runs of equal bits, a few of them flipped, so a triplet
    # alternates in some words and in none of others
    occ, bit, p = 0, data.draw(st.integers(0, 1)), 0
    while p < size:
        run = data.draw(st.integers(2, 6))
        occ |= bit * ((1 << run) - 1) << p
        bit, p = 1 - bit, p + run
    occ &= (1 << size) - 1
    for q in data.draw(st.lists(st.integers(0, size - 1), max_size=3)):
        occ ^= 1 << q
    g = OccupationConfig(SiteWindow(lo, lo + size - 1), occ)
    assert is_ground_config(g) == is_ground_config_by_loop(g)


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
    for n in [*range(1, 61), 9000]:
        assert count_transfer(n) == 2 * 3 ** (n - 1)
    with pytest.raises(ValueError):
        count_transfer(0)


def test_transfer_table_is_the_forbidden_triplet_rule():
    # after odd-offset letter a, the pairs (b, c) whose triplet (a, b, c)
    # does not alternate, in lexicographic order
    assert _STEPS == (((0, 0), (0, 1), (1, 1)), ((0, 0), (1, 0), (1, 1)))
    for a, b, c in itertools.product((0, 1), repeat=3):
        assert ((b, c) in _STEPS[a]) == (not alternates(a, b, c))


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



def test_models_share_no_arrays():
    # a write into one model's arrays changes no later answer
    m = build_supercharge((0, 2), "open")
    for op in (m.H, m.Q, m.Qdag):
        op.vals[:] = 0
    assert spectrum(build_supercharge((0, 2), "open")).kernel_dimension == 64
    assert not is_open_edge_susy_vector(_vec(0, 2, "01010"), 0, 2)


_VECTOR_TEST = {"open": is_open_edge_susy_vector, "closed": is_close_edge_susy_vector}


@pytest.mark.parametrize(
    "mode, n", [("open", n) for n in range(1, 6)] + [("closed", n) for n in range(2, 7)]
)
def test_vector_tests_match_the_matrix_oracle_on_every_config(mode, n):
    m = build_supercharge((0, n), mode)  # one model for every config
    window = m.interval.inner
    for occ in range(window.dimension):
        vec = FockVector.from_config(OccupationConfig(window, occ))
        assert _VECTOR_TEST[mode](vec, 0, n) == susy_by_matrix(m, vec), occ


def _integer_vectors(window):
    return st.dictionaries(
        st.integers(0, window.dimension - 1), st.integers(-3, 3), max_size=8
    ).map(lambda amplitudes: FockVector(window, amplitudes))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_vector_tests_match_the_matrix_oracle_on_superpositions(data):
    k = data.draw(st.integers(-2, 1), label="k")
    l = k + data.draw(st.integers(2, 3), label="l - k")
    closed, opened = build_supercharge((k, l), "closed"), build_supercharge((k, l), "open")
    vec = data.draw(_integer_vectors(closed.window), label="vec")
    if data.draw(st.booleans(), label="Q vec"):
        vec = closed.Q.apply(vec)  # its terms cancel only in the sum
    assert is_open_edge_susy_vector(vec, k, l) == susy_by_matrix(opened, vec)
    assert is_close_edge_susy_vector(vec, k, l) == susy_by_matrix(closed, vec)
    wide = data.draw(_integer_vectors(opened.window), label="wide")
    for m, v in ((closed, vec), (opened, wide), (opened, opened.Q.apply(wide))):
        for terms in (list(m.terms), [t.adjoint() for t in m.terms]):
            assert _apply_closed_form(terms, v) == build_matrix(terms, m.window).apply(v)


def test_open_edge_test_answers_beyond_the_matrix_limit():
    # the enlarged window of 43 sites holds no packed-key matrix, but the
    # test touches only the vector's own entries
    window = Interval(0, 20).inner
    with pytest.raises(OverflowError, match="43 sites is too large for packed keys"):
        build_supercharge((0, 20), "open")
    assert is_open_edge_susy_vector(FockVector(window, {0: 1}), 0, 20)
    assert not is_open_edge_susy_vector(FockVector(window, {0b10: 1}), 0, 20)

# -- config-level charge action ----------------------------------------------

def test_charge_action_examples():
    r_plus = _const(0, 1, 1)
    out = charge_action_on_config(r_plus, _cfg(0, 2, "000"))
    assert out == (_cfg(0, 2, "111"), 1)
    assert charge_action_on_config(r_plus, _cfg(0, 2, "100")) is None
    # adjoint annihilates where the sequence is +1
    out = charge_action_on_config(r_plus, _cfg(0, 2, "111"), use_adjoint=True)
    assert out[0] == _cfg(0, 2, "000")
    with pytest.raises(ValueError):
        charge_action_on_config(_const(0, 2, 1), _cfg(0, 2, "000"))


def test_charge_action_sign_convention():
    # acting inside a larger window picks up the left-occupation signs
    f = _const(1, 2, 1)
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


@settings(max_examples=150, deadline=None)
@given(
    st.integers(-5, 5).map(lambda c: 2 * c),
    st.sampled_from(((0, 1, 0), (1, 0, 1))),
    st.dictionaries(st.integers(-12, 12), st.integers(0, 1)),
)
def test_extend_refuses_every_forbidden_triplet(centre, triplet, others):
    # an assignment that pins an alternating triplet on an even centre has no
    # extension: every covering window holds the triplet whole
    assignment = {**others, centre - 1: triplet[0], centre: triplet[1], centre + 1: triplet[2]}
    assert forbidden_centre_by_loop(assignment) is not None
    with pytest.raises(ValueError, match="no open-boundary ground extension"):
        extend_to_interval(assignment)


def test_extend_rejects_forbidden_input():
    # no covering window extends a forbidden triplet, so the search refuses it
    with pytest.raises(ValueError, match="^the assignment has no open-boundary ground extension$"):
        extend_to_interval({1: 0, 2: 1, 3: 0})
    with pytest.raises(ValueError):  # site -1 would have to be 1 and 0
        extend_to_interval({-3: 0, -2: 1, 0: 0, 1: 1})
    with pytest.raises(ValueError):
        extend_to_interval({})


@pytest.mark.parametrize("assignment", [{0: 0.5}, {1.9: 1}, {"3": 1}, {0: "1"}])
def test_extend_refuses_non_integer_input(assignment):
    with pytest.raises(TypeError):
        extend_to_interval(assignment)


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


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.integers(-4, 4), st.integers(0, 1), min_size=1).filter(
    lambda assignment: forbidden_centre_by_loop(assignment) is None
))
def test_extension_matches_brute_force(assignment):
    expected = _extension_by_brute_force(assignment)
    if expected is None:
        with pytest.raises(ValueError):
            extend_to_interval(assignment)
    else:
        k, l, ext = extend_to_interval(assignment)
        assert (k, l, ext.to_string()) == expected
