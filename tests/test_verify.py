"""The batched checks of the verify suites against their one-item-at-a-time
oracles, with planted faults that each batched check must catch."""

import dataclasses
import json
import random

import numpy as np
import pytest

from nicolai import charges, fock, verify
from nicolai.charges import (
    ConservationSequence,
    _charge_stack,
    charge_monomial,
    enumerate_union,
    verify_annihilation,
    verify_commutation,
)
from nicolai.cli import main
from nicolai.fock import FermionMonomial, IntegerSparseOperator, build_matrix
from nicolai.model import _build_supercharge_cached, build_supercharge
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


def test_leibniz_sides_take_ten_products(monkeypatch):
    # the gradings ride on signed copies of b and c, so the two sides take
    # 10 products; as diagonal sign operators they took 14
    calls = []
    pieces = fock._product_pieces

    def counted(*args):
        calls.append(1)
        return pieces(*args)

    monkeypatch.setattr(fock, "_product_pieces", counted)
    _, _, triples, small = verify._spot_checks(random.Random(0), 4)
    lhs, rhs = verify._leibniz_sides(triples, small)
    assert lhs == rhs
    assert len(calls) == 10


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


def test_h_check_catches_a_product_that_loses_a_term(monkeypatch):
    # H is built in closed form and checked against the one product path, so
    # a product that drops a term fails the check in both modes
    pieces = fock._product_pieces

    def lossy(a, b):
        dropped = False
        for key, vals in pieces(a, b):
            if not dropped and key.size:
                key, vals, dropped = key[1:], vals[1:], True
            yield key, vals

    monkeypatch.setattr(fock, "_product_pieces", lossy)
    _build_supercharge_cached.cache_clear()
    try:
        checks = [c for c in verify.algebra_suite(3) if c.name.startswith("H = ")]
    finally:
        _build_supercharge_cached.cache_clear()
    assert len(checks) == 2 and not any(c.passed for c in checks)


def test_charge_checks_refuse_a_stack_beyond_the_block_limit(monkeypatch, capsys):
    # a corrupted sequence anywhere in the one wide stack fails both checks;
    # a stack whose charges and transposes exceed the block limit is refused,
    # also on the command line, as a resource limit
    m = build_supercharge((0, 3), "open")
    union = enumerate_union(0, 3)
    corrupted = ConservationSequence.from_string(0, 2, "+----", check=False)
    assert verify_commutation(union, m) and verify_annihilation(union, m.window)
    for at in (0, 1, 17, len(union)):
        sequences = union[:at] + [corrupted] + union[at:]
        assert not verify_commutation(sequences, m)
        assert not verify_annihilation(sequences, m.window)
    monkeypatch.setattr(charges, "_max_blocks", lambda window: 2 * len(union) - 1)
    with pytest.raises(OverflowError):
        _charge_stack(union, m.window)
    assert _charge_stack(union[1:], m.window).nnz
    monkeypatch.setattr(charges, "_max_blocks", lambda window: 4)
    code, out = main(["verify", "charges", "--n", "2"]), capsys.readouterr().out
    doc = json.loads(out)
    assert code == 3 and doc["status"] == "failure"
    assert doc["payload"]["code"] == "resource-limit"


def test_charge_stack_holds_each_charge_and_its_transpose():
    m = build_supercharge((0, 2), "open")
    union = enumerate_union(0, 2)
    stack = _charge_stack(union, m.window)
    key, vals, size = stack.key, stack.vals, m.window.size
    assert (np.diff(key) > 0).all() and key[-1] >> (2 * size) == 2 * len(union) - 1
    for t, f in enumerate(union):
        charge = build_matrix(charge_monomial(f), m.window)
        for block, expected in ((t, charge), (len(union) + t, charge.transpose())):
            mine = key >> (2 * size) == block
            assert np.array_equal(key[mine] - (block << 2 * size), expected.key)
            assert np.array_equal(vals[mine], expected.vals)


def test_each_commutation_comparison_catches_its_family():
    # a one-entry diagonal added to H breaks only H S = (H Sᵀ)ᵀ; added to Q*
    # or Q, it breaks the two comparisons that read both supercharges
    m = build_supercharge((0, 3), "open")
    union = enumerate_union(0, 3)
    assert verify_commutation(union, m)
    d = IntegerSparseOperator.diagonal(m.window, [0, 1] + [0] * (m.window.dimension - 2))
    for field in ("H", "Qdag", "Q"):
        broken = dataclasses.replace(m, **{field: getattr(m, field) + d})
        assert not verify_commutation(union, broken), field
