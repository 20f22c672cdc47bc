"""Named exact-arithmetic verification suites.

Each suite returns a list of ``Check`` records (identity name + pass flag);
they back both the command-line ``verify`` subcommand and the acceptance
tests.  Every identity here is an integer matrix statement checked with zero
tolerance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .charges import (
    _charge_stack,
    _words,
    enumerate_sequences,
    enumerate_union,
    verify_annihilation,
    verify_commutation,
)
from .fixtures import CONFIG_TABLES, SEQUENCE_TABLES, load_fixture
from .fock import (
    FermionMonomial,
    IntegerSparseOperator,
    SiteWindow,
    _build_stack,
    anticommutator,
    commutator,
    number_operator,
    parity_operator,
)
from .ground import enumerate_upsilon_hat
from .model import ModelOperators, build_supercharge

__all__ = ["Check", "algebra_suite", "charges_suite", "classification_suite",
           "fixtures_suite", "SUITES", "run_suite"]


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed}


def _random_monomial(rng: random.Random, window: SiteWindow, max_degree: int = 4):
    degree = rng.randint(0, max_degree)
    factors = tuple(
        (rng.randrange(window.lo, window.hi + 1), rng.random() < 0.5) for _ in range(degree)
    )
    return FermionMonomial(rng.choice((1, -1)), factors)


def _adjoint_is_transpose(monos, adjoints, window: SiteWindow) -> bool:
    """Whether each ``adjoints[t]``'s matrix is the transpose of ``monos[t]``'s,
    by one comparison of two stacks (see ``fock._build_stack``)."""
    return _build_stack(adjoints, window) == _build_stack(monos, window).transpose()


def _block_diagonal(window: SiteWindow, small: SiteWindow, monos) -> IntegerSparseOperator:
    """The block-diagonal operator on ``window`` whose block ``t`` is
    ``monos[t]``'s matrix on ``small``, the low sites of ``window``: the high
    bits of a state index its block.  The stack's keys ascend by block, column
    and row, so the moved keys stay canonical."""
    stack = _build_stack(monos, small)
    size, mask = small.size, small.dimension - 1
    base = (stack.key >> (2 * size)) << size
    cols, rows = base | ((stack.key >> size) & mask), base | (stack.key & mask)
    return IntegerSparseOperator._wrap(window, (cols << window.size) | rows, stack.vals)


def _leibniz_sides(
    triples: Sequence[Tuple[FermionMonomial, FermionMonomial, FermionMonomial]],
    small: SiteWindow,
) -> Tuple[IntegerSparseOperator, IntegerSparseOperator]:
    """Both sides of the graded Leibniz rule for every triple ``(a, b, c)`` on
    ``small`` at once, ``a`` odd: ``[a, bc} = [a, b} c + (-1)^|b| b [a, c}``,
    where ``[a, x} = a x - (-1)^|x| x a``.

    Block ``t`` of each side holds triple ``t``: the operators are block
    diagonal on ``small`` plus enough high sites to index the triples (see
    ``_block_diagonal``).  Each grading rides on its operand: ``gb`` and
    ``gc`` hold the graded monomials ``(-1)^|x| x``, odd ones negated.
    """
    high = max(len(triples) - 1, 1).bit_length()
    window = SiteWindow(small.lo, small.hi + high)

    def graded(x: FermionMonomial) -> FermionMonomial:
        return FermionMonomial((-1) ** x.degree * x.coefficient, x.factors)

    columns = zip(*((a, b, c, graded(b), graded(c)) for a, b, c in triples))
    a, b, c, gb, gc = (_block_diagonal(window, small, xs) for xs in columns)
    lhs = a @ (b @ c) - (gb @ gc) @ a
    rhs = (a @ b - gb @ a) @ c + gb @ (a @ c - gc @ a)
    return lhs, rhs


def _spot_checks(rng: random.Random, n: int):
    """The seeded random draws of the algebra suite's spot checks: 50
    monomials for the adjoint check, with their window, then 25 Leibniz
    triples (the first factor odd), with theirs."""
    window = SiteWindow(-1, min(2 * n, 3) + 1)
    monos = [_random_monomial(rng, window) for _ in range(50)]
    small = SiteWindow(0, 3)
    triples = []
    for _ in range(25):
        a = _random_monomial(rng, small, max_degree=3)
        if a.degree % 2 == 0:
            a = FermionMonomial(a.coefficient, a.factors + ((rng.randrange(0, 4), True),))
        b = _random_monomial(rng, small, max_degree=3)
        c = _random_monomial(rng, small, max_degree=3)
        triples.append((a, b, c))
    return monos, window, triples, small


def algebra_suite(n: int, seed: int = 0) -> List[Check]:
    """Superalgebra identities on the interval (0, n), both edge modes."""
    checks: List[Check] = []
    for mode in ("open", "closed") if n >= 2 else ("open",):  # closed needs n >= 2
        m = build_supercharge((0, n), mode)
        parity = parity_operator(m.window)
        number = number_operator(m.window)
        tag = f"n={n},{mode}"
        checks.append(Check(f"Q^2 = 0 [{tag}]", (m.Q @ m.Q).is_zero()))
        checks.append(Check(f"Qdag^2 = 0 [{tag}]", (m.Qdag @ m.Qdag).is_zero()))
        checks.append(Check(f"H = Q Qdag + Qdag Q [{tag}]", m.H == anticommutator(m.Q, m.Qdag)))
        checks.append(Check(f"[H, Q] = 0 [{tag}]", commutator(m.H, m.Q).is_zero()))
        checks.append(Check(f"[H, Qdag] = 0 [{tag}]", commutator(m.H, m.Qdag).is_zero()))
        checks.append(
            Check(f"{{(-1)^N, Q}} = 0 [{tag}]", anticommutator(parity, m.Q).is_zero())
        )
        checks.append(Check(f"[H, N] = 0 [{tag}]", commutator(m.H, number).is_zero()))
    # Seeded spot checks: adjoint coherence and the graded Leibniz rule.
    monos, window, triples, small = _spot_checks(random.Random(seed), n)
    adjoint_ok = _adjoint_is_transpose(monos, [x.adjoint() for x in monos], window)
    checks.append(Check(f"adjoint = transpose (50 random monomials, seed {seed})", adjoint_ok))
    lhs, rhs = _leibniz_sides(triples, small)
    checks.append(
        Check(f"graded Leibniz rule for odd derivations (25 random triples, seed {seed})",
              lhs == rhs)
    )
    return checks


def charges_suite(n: int) -> List[Check]:
    """Conservation of every hidden charge of the interval (0, n)."""
    m = build_supercharge((0, n), "open")
    sequences = enumerate_union(0, n)
    # both checks take the same matrices, built once
    stack = _charge_stack(sequences, m.window)
    return [
        Check(
            f"[H, Q(f)] = [H, Q(f)*] = 0 and {{Q, Q(f)}} = {{Qdag, Q(f)}} = 0 "
            f"for all {len(sequences)} sequences [n={n}]",
            verify_commutation(sequences, m, stack),
        ),
        Check(
            f"Q(f) q(i) = q(i) Q(f) = Q(f) q*(i) = q*(i) Q(f) = 0 "
            f"for all sequences and centers [n={n}]",
            verify_annihilation(sequences, m.window, stack),
        ),
    ]


def _killed(m: ModelOperators) -> np.ndarray:
    """Which basis states of the model window ``Q`` and ``Q*`` both
    annihilate: the states whose columns are empty in both."""
    killed = np.ones(m.window.dimension, dtype=bool)
    killed[m.Q.cols] = False
    killed[m.Qdag.cols] = False
    return killed


def classification_suite(n: int) -> List[Check]:
    """Exhaustive classification sweep over all configurations of (0, n).

    A configuration is open-edge SUSY exactly when ``Q`` and ``Q*`` kill its
    four edge-dressed basis states, so one pass over the nonempty columns
    tests every configuration at once."""
    m = build_supercharge((0, n), "open")
    size = 2 * n + 1
    configs = np.arange(1 << size, dtype=np.int64)
    edges = np.array([0, 1, 2 << size, 1 | 2 << size], dtype=np.int64)
    open_susy = _killed(m)[(configs << 1)[:, None] | edges].all(axis=1)
    ground = np.zeros(configs.size, dtype=bool)
    ground[_words(size)] = True
    checks = [
        Check(
            f"open-edge SUSY <=> open-boundary ground config, "
            f"all {configs.size} configs [n={n}]",
            bool(np.array_equal(open_susy, ground)),
        )
    ]
    if n >= 2:
        close_susy = _killed(build_supercharge((0, n), "closed"))
        implication = not (open_susy & ~close_susy).any()
        checks.append(Check(f"open-edge SUSY => close-edge SUSY [n={n}]", implication))
    return checks


def fixtures_suite() -> List[Check]:
    """Enumeration reproduces every shipped golden table as a set."""
    checks: List[Check] = []
    for tables, enumerator, key in (
        (SEQUENCE_TABLES, enumerate_sequences, "sequences"),
        (CONFIG_TABLES, enumerate_upsilon_hat, "configs"),
    ):
        for name in tables:
            table = load_fixture(name)
            produced = {x.to_string() for x in enumerator(table["k"], table["l"])}
            expected = set(table[key])
            ok = produced == expected and len(table[key]) == len(expected)
            checks.append(Check(f"{name}: {len(expected)} {key} reproduced", ok))
    return checks


SUITES = ("algebra", "charges", "classification", "fixtures")


def run_suite(suite: str, n: Optional[int] = None, seed: int = 0) -> List[Check]:
    if suite == "fixtures":
        return fixtures_suite()
    if n is None:
        raise ValueError(f"suite {suite!r} requires n")
    if suite == "algebra":
        return algebra_suite(n, seed)
    if suite == "charges":
        return charges_suite(n)
    if suite == "classification":
        return classification_suite(n)
    raise ValueError(f"unknown suite {suite!r}")
