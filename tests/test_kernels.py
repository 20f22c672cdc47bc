"""Correctness of the basis-action kernel."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nicolai import kernels
from nicolai.fock import (
    FermionMonomial,
    FockVector,
    OccupationConfig,
    SiteWindow,
    apply_monomial,
    build_matrix,
)
from nicolai.ground import _apply_closed_form


def _monomial_action_oracle(size, factors):
    """The earlier per-factor sweep of ``monomial_action``, kept as an oracle."""
    if size < 0 or size > 62:
        raise ValueError(f"window size {size} out of range")
    factors = [(int(p), bool(d)) for p, d in factors]
    if any(not 0 <= p < size for p, _ in factors):
        raise ValueError("factor bit position outside the window")
    dim = 1 << size
    cur = np.arange(dim, dtype=np.int64)
    sign = np.ones(dim, dtype=np.int64)
    alive = np.ones(dim, dtype=bool)
    for p, d in factors:
        bit = (cur >> p) & 1
        alive &= (bit == 0) if d else (bit == 1)
        below = (cur & ((1 << p) - 1)).astype(np.uint64)
        odd = (np.bitwise_count(below).astype(np.int64) & 1).astype(bool)
        sign = np.where(odd, -sign, sign)
        cur = np.where(alive, cur ^ (1 << p), cur)
    targets = np.where(alive, cur, -1)
    signs = np.where(alive, sign, 0)
    return targets, signs


@st.composite
def _factor_lists(draw):
    # repeated sites give zero monomials (c_s c_s) and number-like pairs
    size = draw(st.integers(1, 5))
    factors = draw(
        st.lists(st.tuples(st.integers(0, size - 1), st.booleans()), max_size=6)
    )
    return size, factors


@settings(max_examples=400, deadline=None)
@given(_factor_lists())
def test_closed_form_matches_per_factor_sweep(case):
    size, factors = case
    targets, signs = kernels.monomial_action(size, factors)
    expected_targets, expected_signs = _monomial_action_oracle(size, factors)
    assert targets.dtype == signs.dtype == np.int64
    assert np.array_equal(targets, expected_targets)
    assert np.array_equal(signs, expected_signs)


@st.composite
def _monomials_and_vectors(draw):
    # the closed form applied entry by entry, on vectors with several entries
    size = draw(st.integers(1, 6))
    lo = draw(st.integers(-3, 3))
    window = SiteWindow(lo, lo + size - 1)
    factors = draw(
        st.lists(st.tuples(st.integers(window.lo, window.hi), st.booleans()), max_size=6)
    )
    coefficient = draw(st.sampled_from([1, -1, 2, -2]))
    amplitudes = draw(
        st.dictionaries(st.integers(0, window.dimension - 1), st.integers(-3, 3), max_size=8)
    )
    return FermionMonomial(coefficient, factors), FockVector(window, amplitudes)


@settings(max_examples=400, deadline=None)
@given(_monomials_and_vectors())
def test_closed_form_on_a_vector_matches_ladder_walk(case):
    mono, vec = case
    assert _apply_closed_form([mono], vec) == apply_monomial(mono, vec)


def test_identity_monomial_action():
    targets, signs = kernels.monomial_action(4, [])
    assert np.array_equal(targets, np.arange(16))
    assert np.array_equal(signs, np.ones(16, dtype=np.int64))


def test_repeated_factor_annihilates_everything():
    targets, signs = kernels.monomial_action(3, [(1, True), (1, True)])
    assert (targets == -1).all()
    assert (signs == 0).all()


def test_kernel_matches_scalar_application():
    # The matrix pipeline (kernel) against the per-config ladder walk.
    rng = random.Random(3)
    window = SiteWindow(-2, 3)
    for _ in range(40):
        mono = FermionMonomial(
            rng.choice((1, -1, 2)),
            tuple((rng.randrange(window.lo, window.hi + 1), rng.random() < 0.5)
                  for _ in range(rng.randint(0, 4))),
        )
        mat = build_matrix(mono, window)
        for occ in range(window.dimension):
            vec = apply_monomial(mono, FockVector.from_config(OccupationConfig(window, occ)))
            column = {
                r: v for (r, c), v in mat.entries().items() if c == occ
            }
            assert column == vec.amplitudes


def test_position_outside_window_rejected():
    with pytest.raises(ValueError):
        kernels.monomial_action(3, [(3, True)])
