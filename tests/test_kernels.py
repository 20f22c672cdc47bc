"""Correctness of the basis-action kernel."""

import random

import numpy as np
import pytest

from nicolai import kernels
from nicolai.fock import (
    FermionMonomial,
    FockVector,
    OccupationConfig,
    SiteWindow,
    apply_monomial,
    build_matrix,
)


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
