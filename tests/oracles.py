"""Checks and helpers that no command uses, kept here as test oracles.

Each one is built from the library's public operators only, so it checks the
library from outside.
"""

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from nicolai.charges import charge_monomial, enumerate_union
from nicolai.fock import (
    FermionMonomial,
    FockVector,
    IntegerSparseOperator,
    OccupationConfig,
    OperatorSum,
    SiteWindow,
    anticommutator,
    build_matrix,
    commutator,
    number_operator,
    parity_operator,
)
from nicolai.ground import charge_action_on_config
from nicolai.intrank import integer_rank, rows_from_csr
from nicolai.model import ModelOperators, supercharge_term
from nicolai.verify import Check


def graded_commutator(
    a: IntegerSparseOperator,
    b: IntegerSparseOperator,
    parity_a: str,
    parity_b: str,
) -> IntegerSparseOperator:
    """Anticommutator when both operators are odd, commutator otherwise."""
    for p in (parity_a, parity_b):
        if p not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {p!r}")
    if parity_a == "odd" and parity_b == "odd":
        return anticommutator(a, b)
    return commutator(a, b)


def particle_hole_unitary(window: SiteWindow) -> IntegerSparseOperator:
    """Matrix of the increasing-order product of ``(c_s + c*_s)`` over the window.

    Conjugation by this unitary swaps ``c_s`` and ``c*_s`` up to a global sign
    that depends only on the window size (no residual sign on odd windows).
    """
    u = IntegerSparseOperator.identity(window)
    for s in window.sites:
        majorana = OperatorSum(
            (FermionMonomial(1, ((s, False),)), FermionMonomial(1, ((s, True),)))
        )
        u = u @ build_matrix(majorana, window)
    return u


def stacked_nullity(mats, cols: Optional[np.ndarray] = None) -> int:
    """Dimension of the joint kernel of the stacked matrices.

    ``mats`` is an iterable of matrices with ``.tocsr()`` and ``.shape``
    (such as scipy sparse matrices) sharing a column space; ``cols``
    optionally restricts that space to a subset of columns.  Returns
    ``n_cols - rank`` of the vertically stacked system, computed exactly.
    """
    rows: List[Dict[int, int]] = []
    n_cols = None
    for m in mats:
        if n_cols is None:
            n_cols = len(cols) if cols is not None else m.shape[1]
        rows.extend(rows_from_csr(m, cols))
    if n_cols is None:
        raise ValueError("no matrices given")
    return n_cols - integer_rank(rows)


# -- the Hamiltonian density in normal form -----------------------------------


def hamiltonian_density(i: int) -> List[FermionMonomial]:
    """The five-term normal-form summand of ``H`` attached to index ``i``.

    Equals ``{q(i), q*(i)} + {q(i), q*(i+1)} + {q(i+1), q*(i)}`` exactly; the
    remaining diagonal piece ``{q(i+1), q*(i+1)}`` belongs to index ``i+1``.
    """
    a, b, c, d, e = 2 * i - 1, 2 * i, 2 * i + 1, 2 * i + 2, 2 * i + 3
    return [
        FermionMonomial(1, ((b, True), (a, False), (d, False), (e, True))),
        FermionMonomial(1, ((a, True), (b, False), (e, False), (d, True))),
        FermionMonomial(1, ((b, True), (b, False), (c, False), (c, True))),
        FermionMonomial(1, ((a, True), (a, False), (b, False), (b, True))),
        FermionMonomial(-1, ((a, True), (a, False), (c, False), (c, True))),
    ]


def diagonal_density(i: int) -> List[FermionMonomial]:
    """Just the on-triplet part ``{q(i), q*(i)}`` in normal form."""
    return hamiltonian_density(i)[2:]


def bulk_term_crosscheck(i: int) -> bool:
    """Check the explicit normal-ordered expansion of the Hamiltonian density.

    Builds ``sum_{j,j' in {i,i+1}} {q(2j), q*(2j')}`` on an eight-site window
    and compares it, entry by entry, with the five displayed density terms at
    ``i`` plus the diagonal terms attributed to ``i+1``.  Also confirms that
    cross terms with index distance >= 2 vanish identically.
    """
    window = SiteWindow(2 * i - 2, 2 * i + 5)
    q_i = build_matrix(supercharge_term(i), window)
    q_n = build_matrix(supercharge_term(i + 1), window)
    lhs = (
        anticommutator(q_i, q_i.adjoint())
        + anticommutator(q_i, q_n.adjoint())
        + anticommutator(q_n, q_i.adjoint())
        + anticommutator(q_n, q_n.adjoint())
    )
    rhs = build_matrix(hamiltonian_density(i) + diagonal_density(i + 1), window)
    if lhs != rhs:
        return False
    far_window = SiteWindow(2 * i - 1, 2 * i + 5)
    q_far = build_matrix(supercharge_term(i + 2), far_window)
    q_lo = build_matrix(supercharge_term(i), far_window)
    return anticommutator(q_lo, q_far.adjoint()).is_zero() and anticommutator(
        q_far, q_lo.adjoint()
    ).is_zero()


@dataclass(frozen=True)
class SymmetryReport:
    """Exact symmetry booleans for a finite-interval Hamiltonian."""

    number_commutes: bool
    parity_commutes: bool
    particle_hole_invariant: bool  # reported, not asserted, on finite windows


def symmetry_report(m: ModelOperators) -> SymmetryReport:
    n_op = number_operator(m.window)
    p_op = parity_operator(m.window)
    u = particle_hole_unitary(m.window)
    conjugated = u @ m.H @ u.transpose()
    # (c_s + c*_s) squares to one, so the product over the window is orthogonal
    # and transposition inverts it.
    return SymmetryReport(
        number_commutes=commutator(m.H, n_op).is_zero(),
        parity_commutes=commutator(m.H, p_op).is_zero(),
        particle_hole_invariant=(conjugated == m.H),
    )


# -- config-level charge action against matrix application --------------------


def cross_oracle_suite(pairs: int = 500, seed: int = 0) -> List[Check]:
    """Config-level charge action versus full matrix application, with signs."""
    rng = random.Random(seed)
    pool = enumerate_union(0, 4)
    agree = True
    for _ in range(pairs):
        f = rng.choice(pool)
        window = SiteWindow(2 * f.k - rng.randint(0, 1), 2 * f.l + rng.randint(0, 1))
        cfg = OccupationConfig(window, rng.randrange(window.dimension))
        adjoint = rng.random() < 0.5
        mono = charge_monomial(f)
        if adjoint:
            mono = mono.adjoint()
        via_matrix = build_matrix(mono, window).apply(FockVector.from_config(cfg))
        via_config = charge_action_on_config(f, cfg, adjoint)
        if via_config is None:
            if not via_matrix.is_zero():
                agree = False
                break
        else:
            out, sign = via_config
            if via_matrix != FockVector.from_config(out, sign):
                agree = False
                break
    return [Check(f"charge action oracle agreement ({pairs} pairs, seed {seed})", agree)]
