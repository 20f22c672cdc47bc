"""The batched checks of the verify suites against their one-item-at-a-time
oracles, with planted faults that each batched check must catch."""

import random

import numpy as np
import pytest

from nicolai import fock, verify
from nicolai.charges import (
    ConservationSequence,
    _charge_stacks,
    charge_monomial,
    enumerate_union,
    verify_annihilation,
    verify_commutation,
)
from nicolai.fock import FermionMonomial, IntegerSparseOperator, build_matrix
from nicolai.model import build_supercharge
from oracles import (
    adjoint_by_monomial,
    classification_by_config,
    leibniz_by_triple,
    leibniz_by_triples,
)


def _block(op, small, t):
    """Block ``t`` of a block-diagonal operator whose high bits index blocks
    of ``small``, as an operator on ``small``."""
    mask = small.dimension - 1
    rows, cols = op.rows, op.cols
    keep = (rows >> small.size == t) & (cols >> small.size == t)
    return IntegerSparseOperator(small, (cols[keep] & mask) << small.size | rows[keep] & mask,
                                 op.vals[keep])


@pytest.mark.parametrize("n", range(1, 5))
def test_spot_checks_match_per_item_oracles(n):
    for seed in range(50):
        monos, window, triples, small = verify._spot_checks(random.Random(seed), n)
        adjoints = [m.adjoint() for m in monos]
        assert verify._adjoint_is_transpose(monos, adjoints, window) == adjoint_by_monomial(
            monos, window
        )
        lhs, rhs = verify._leibniz_sides(triples, small)
        assert (lhs == rhs) == leibniz_by_triples(triples, small)


def test_leibniz_blocks_are_the_per_triple_sides():
    for seed in range(5):
        _, _, triples, small = verify._spot_checks(random.Random(seed), 4)
        lhs, rhs = verify._leibniz_sides(triples, small)
        for t, triple in enumerate(triples):
            assert (_block(lhs, small, t), _block(rhs, small, t)) == leibniz_by_triple(
                *triple, small
            )
        assert _block(lhs, small, len(triples)).is_zero()


def test_algebra_suite_draws_the_parent_sequence():
    # the spot checks draw exactly what the one-at-a-time loops drew
    rng = random.Random(7)
    monos, _, triples, _ = verify._spot_checks(rng, 3)
    assert len(monos) == 50 and len(triples) == 25
    assert all(a.degree % 2 for a, _, _ in triples)
    tail = rng.random()
    replay = random.Random(7)
    for _ in range(50):
        verify._random_monomial(replay, fock.SiteWindow(-1, 4))
    for _ in range(25):
        a = verify._random_monomial(replay, fock.SiteWindow(0, 3), max_degree=3)
        if a.degree % 2 == 0:
            replay.randrange(0, 4)
        verify._random_monomial(replay, fock.SiteWindow(0, 3), max_degree=3)
        verify._random_monomial(replay, fock.SiteWindow(0, 3), max_degree=3)
    assert replay.random() == tail


def _nonzero(monos, window):
    return [t for t, m in enumerate(monos) if not build_matrix(m, window).is_zero()]


def test_a_negated_adjoint_block_fails_the_adjoint_check():
    for seed in range(10):
        monos, window, _, _ = verify._spot_checks(random.Random(seed), 4)
        live = _nonzero(monos, window)
        for t in (live[0], live[len(live) // 2], live[-1]):
            adjoints = [m.adjoint() for m in monos]
            adjoints[t] = FermionMonomial(-adjoints[t].coefficient, adjoints[t].factors)
            assert not verify._adjoint_is_transpose(monos, adjoints, window)


def _perturbed(triples, t, which):
    """``triples`` with factor ``which`` (1 for b, 2 for c) of triple ``t`` doubled."""
    out = list(triples)
    triple = list(out[t])
    x = triple[which]
    triple[which] = FermionMonomial(2 * x.coefficient, x.factors)
    out[t] = tuple(triple)
    return out


def test_a_perturbed_leibniz_factor_fails_the_leibniz_check():
    # lhs from the true triples against rhs from triples with b or c of one
    # triple perturbed: the rule's sides then differ in that block only
    for seed in range(10):
        _, _, triples, small = verify._spot_checks(random.Random(seed), 4)
        lhs, rhs = verify._leibniz_sides(triples, small)
        assert lhs == rhs
        live = [t for t, triple in enumerate(triples)
                if not leibniz_by_triple(*triple, small)[0].is_zero()]
        for t in (live[0], live[-1]):
            for which in (1, 2):
                _, wrong = verify._leibniz_sides(_perturbed(triples, t, which), small)
                assert lhs != wrong
                differs = [s for s in range(len(triples))
                           if _block(lhs, small, s) != _block(wrong, small, s)]
                assert differs == [t]


@pytest.mark.parametrize("n", range(1, 6))
def test_classification_matches_per_config_oracle(n):
    batched = verify.classification_suite(n)
    assert [c.to_json() for c in batched] == [c.to_json() for c in classification_by_config(n)]
    assert all(c.passed for c in batched)


def test_a_missing_ground_config_fails_the_classification(monkeypatch):
    words = verify._words
    monkeypatch.setattr(verify, "_words", lambda size: words(size)[1:])
    checks = verify.classification_suite(3)
    assert not checks[0].passed and checks[1].passed


def test_grouped_charge_checks_match_one_group(monkeypatch):
    # four blocks per wide matrix: groups of two sequences, each laid beside
    # its transposes; a corrupted sequence in any group fails both checks
    m = build_supercharge((0, 3), "open")
    union = enumerate_union(0, 3)
    corrupted = ConservationSequence.from_string(0, 2, "+----", check=False)
    assert verify_commutation(union, m) and verify_annihilation(union, m.window)
    monkeypatch.setattr(fock, "_max_blocks", lambda window: 4)
    stacks = _charge_stacks(union, m.window)
    assert len(stacks) == len(union) // 2
    assert verify_commutation(union, m, stacks) and verify_annihilation(union, m.window, stacks)
    for at in (0, 1, 17, len(union)):
        sequences = union[:at] + [corrupted] + union[at:]
        assert not verify_commutation(sequences, m)
        assert not verify_annihilation(sequences, m.window)


def test_charge_stacks_hold_each_charge_and_its_transpose():
    m = build_supercharge((0, 2), "open")
    union = enumerate_union(0, 2)
    ((s, st),) = _charge_stacks(union, m.window)
    size = m.window.size
    for t, f in enumerate(union):
        charge = build_matrix(charge_monomial(f), m.window)
        for (key, vals), expected in ((s, charge), (st, charge.transpose())):
            mine = key >> (2 * size) == t
            assert np.array_equal(key[mine] - (t << 2 * size), expected.key)
            assert np.array_equal(vals[mine], expected.vals)
