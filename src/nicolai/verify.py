"""Named exact-arithmetic verification suites.

Each suite returns a list of ``Check`` records (identity name + pass flag);
they back both the command-line ``verify`` subcommand and the acceptance
tests.  Every identity here is an integer matrix statement checked with zero
tolerance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from .charges import (
    enumerate_sequences,
    enumerate_union,
    verify_annihilation,
    verify_commutation,
)
from .fixtures import CONFIG_TABLES, SEQUENCE_TABLES, load_fixture
from .fock import (
    FermionMonomial,
    FockVector,
    OccupationConfig,
    SiteWindow,
    anticommutator,
    build_matrix,
    commutator,
    number_operator,
    parity_operator,
)
from .ground import (
    enumerate_upsilon_hat,
    is_open_edge_susy_vector,
    is_close_edge_susy_vector,
)
from .model import Interval, build_supercharge

__all__ = ["Check", "algebra_suite", "charges_suite", "classification_suite",
           "fixtures_suite", "SUITES", "run_suite"]


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed}


def _edge_modes(n: int):
    yield "open"
    if n >= 2:
        yield "closed"


def _random_monomial(rng: random.Random, window: SiteWindow, max_degree: int = 4):
    degree = rng.randint(0, max_degree)
    factors = tuple(
        (rng.randrange(window.lo, window.hi + 1), rng.random() < 0.5) for _ in range(degree)
    )
    return FermionMonomial(rng.choice((1, -1)), factors)


def algebra_suite(n: int, seed: int = 0) -> List[Check]:
    """Superalgebra identities on the interval (0, n), both edge modes."""
    checks: List[Check] = []
    for mode in _edge_modes(n):
        m = build_supercharge((0, n), mode)
        parity = parity_operator(m.window)
        number = number_operator(m.window)
        tag = f"n={n},{mode}"
        checks.append(Check(f"Q^2 = 0 [{tag}]", (m.Q @ m.Q).is_zero()))
        checks.append(Check(f"Qdag^2 = 0 [{tag}]", (m.Qdag @ m.Qdag).is_zero()))
        checks.append(
            Check(
                f"H = Q Qdag + Qdag Q [{tag}]",
                m.H == m.Q @ m.Qdag + m.Qdag @ m.Q,
            )
        )
        checks.append(Check(f"[H, Q] = 0 [{tag}]", commutator(m.H, m.Q).is_zero()))
        checks.append(Check(f"[H, Qdag] = 0 [{tag}]", commutator(m.H, m.Qdag).is_zero()))
        checks.append(
            Check(f"{{(-1)^N, Q}} = 0 [{tag}]", anticommutator(parity, m.Q).is_zero())
        )
        checks.append(Check(f"[H, N] = 0 [{tag}]", commutator(m.H, number).is_zero()))
    # Seeded spot checks: adjoint coherence and the graded Leibniz rule.
    rng = random.Random(seed)
    window = SiteWindow(-1, min(2 * n, 3) + 1)
    adjoint_ok = True
    for _ in range(50):
        mono = _random_monomial(rng, window)
        if build_matrix(mono.adjoint(), window) != build_matrix(mono, window).transpose():
            adjoint_ok = False
            break
    checks.append(Check(f"adjoint = transpose (50 random monomials, seed {seed})", adjoint_ok))
    small = SiteWindow(0, 3)
    leibniz_ok = True
    for _ in range(25):
        a = _random_monomial(rng, small, max_degree=3)
        if a.degree % 2 == 0:
            a = FermionMonomial(a.coefficient, a.factors + ((rng.randrange(0, 4), True),))
        b = _random_monomial(rng, small, max_degree=3)
        c = _random_monomial(rng, small, max_degree=3)
        am, bm, cm = (build_matrix(x, small) for x in (a, b, c))
        grade = lambda x, deg: anticommutator(am, x) if deg % 2 else commutator(am, x)
        lhs = grade(bm @ cm, b.degree + c.degree)
        rhs = grade(bm, b.degree) @ cm + (bm @ grade(cm, c.degree)).scaled(
            -1 if b.degree % 2 else 1
        )
        if lhs != rhs:
            leibniz_ok = False
            break
    checks.append(
        Check(f"graded Leibniz rule for odd derivations (25 random triples, seed {seed})",
              leibniz_ok)
    )
    return checks


def charges_suite(n: int) -> List[Check]:
    """Conservation of every hidden charge of the interval (0, n)."""
    m = build_supercharge((0, n), "open")
    checks: List[Check] = []
    sequences = enumerate_union(0, n)
    all_commute = verify_commutation(sequences, m)
    checks.append(
        Check(
            f"[H, Q(f)] = [H, Q(f)*] = 0 and {{Q, Q(f)}} = {{Qdag, Q(f)}} = 0 "
            f"for all {len(sequences)} sequences [n={n}]",
            all_commute,
        )
    )
    all_vanish = verify_annihilation(sequences, m.window)
    checks.append(
        Check(
            f"Q(f) q(i) = q(i) Q(f) = Q(f) q*(i) = q*(i) Q(f) = 0 "
            f"for all sequences and centers [n={n}]",
            all_vanish,
        )
    )
    return checks


def classification_suite(n: int) -> List[Check]:
    """Exhaustive classification sweep over all configurations of (0, n)."""
    window = Interval(0, n).inner
    members = {g.occ for g in enumerate_upsilon_hat(0, n)}
    equiv = True
    implication = True
    for occ in range(window.dimension):
        cfg = OccupationConfig(window, occ)
        vec = FockVector.from_config(cfg)
        open_susy = is_open_edge_susy_vector(vec, 0, n)
        if open_susy != (occ in members):
            equiv = False
        if n >= 2 and open_susy and not is_close_edge_susy_vector(vec, 0, n):
            implication = False
    checks = [
        Check(
            f"open-edge SUSY <=> open-boundary ground config, "
            f"all {window.dimension} configs [n={n}]",
            equiv,
        )
    ]
    if n >= 2:
        checks.append(Check(f"open-edge SUSY => close-edge SUSY [n={n}]", implication))
    return checks


def fixtures_suite() -> List[Check]:
    """Enumeration reproduces every shipped golden table as a set."""
    checks: List[Check] = []
    for name in SEQUENCE_TABLES:
        table = load_fixture(name)
        produced = {f.to_string() for f in enumerate_sequences(table["k"], table["l"])}
        expected = set(table["sequences"])
        ok = produced == expected and len(table["sequences"]) == len(expected)
        checks.append(Check(f"{name}: {len(expected)} sequences reproduced", ok))
    for name in CONFIG_TABLES:
        table = load_fixture(name)
        produced = {g.to_string() for g in enumerate_upsilon_hat(table["k"], table["l"])}
        expected = set(table["configs"])
        ok = produced == expected and len(table["configs"]) == len(expected)
        checks.append(Check(f"{name}: {len(expected)} configs reproduced", ok))
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
