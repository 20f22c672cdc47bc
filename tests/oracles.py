"""Checks and helpers that no command uses, kept here as test oracles.

Each one is built from the library's public operators only, so it checks the
library from outside.
"""

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from nicolai.charges import _STEPS, _words, charge_monomial, enumerate_union
from nicolai.fock import (
    FermionMonomial,
    FockVector,
    IntegerSparseOperator,
    OccupationConfig,
    SiteWindow,
    anticommutator,
    build_matrix,
    commutator,
    number_operator,
    parity_operator,
)
from nicolai.ground import (
    _start_config,
    charge_action_on_config,
    enumerate_upsilon_hat,
    is_close_edge_susy_vector,
    is_open_edge_susy_vector,
)
from nicolai.intrank import integer_rank, rows_from_csr
from nicolai.kernels import monomial_action
from nicolai.model import Interval, ModelOperators, supercharge_term
from nicolai.verify import Check


def words_in_one_array(size: int) -> np.ndarray:
    """The admissible words of odd ``size >= 3`` as ``charges._words`` grew
    them before it filled its array from ``_word_chunks``: every word so far
    grows into its three extensions, one pair at a time, in one array."""
    if size == 3:
        return np.array([0b000, 0b111], dtype=np.int64)
    choices = np.array([[b | c << 1 for b, c in steps] for steps in _STEPS], dtype=np.int64)
    words = np.array([0b00, 0b11], dtype=np.int64)
    for p in range(2, size - 1, 2):
        if p == size - 3:
            choices |= (choices & 0b10) << 1
        grown = np.take(choices << p, (words >> (p - 1)) & 1, axis=0)
        grown |= words[:, None]
        words = grown.ravel()
    return words


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


def matrix_by_basis_action(op, window: SiteWindow) -> IntegerSparseOperator:
    """The matrix of a monomial, or of a sum of monomials, from
    ``kernels.monomial_action`` over every basis state of the window, summed
    and sorted by the checked constructor."""
    terms = (op,) if isinstance(op, FermionMonomial) else tuple(op)
    keys, vals = [], []
    for term in terms:
        if term.coefficient == 0:
            continue
        application_order = [(window.bit(s), d) for s, d in reversed(term.factors)]
        targets, signs = monomial_action(window.size, application_order)
        cols = np.flatnonzero(targets >= 0)
        keys.append((cols << window.size) | targets[cols])
        vals.append(signs[cols] * np.int64(term.coefficient))
    if not keys:
        return IntegerSparseOperator.zero(window)
    return IntegerSparseOperator(window, np.concatenate(keys), np.concatenate(vals))


def particle_hole_unitary(window: SiteWindow) -> IntegerSparseOperator:
    """Matrix of the increasing-order product of ``(c_s + c*_s)`` over the window.

    Conjugation by this unitary swaps ``c_s`` and ``c*_s`` up to a global sign
    that depends only on the window size (no residual sign on odd windows).
    """
    u = IntegerSparseOperator.diagonal(window, np.ones(window.dimension, dtype=np.int64))
    for s in window.sites:
        majorana = (FermionMonomial(1, ((s, False),)), FermionMonomial(1, ((s, True),)))
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


def block_ranks(stack: np.ndarray) -> List[int]:
    """The exact rank of each block of a ``(d, s, s)`` integer stack, one
    ``integer_rank`` of dictionary rows per block: the kernel path of
    ``model.spectrum`` before its ranks were batched."""
    return [
        integer_rank([{c: v for c, v in enumerate(row) if v} for row in block])
        for block in stack.tolist()
    ]


def expanded_h(m: ModelOperators) -> IntegerSparseOperator:
    """``Q Q* + Q* Q`` expanded into monomials, every term times every adjoint
    term in both orders (not only the pairs that share a site), and built in
    closed form, with no matrix product."""
    adjoints = [t.adjoint() for t in m.terms]
    pairs = [(a, b) for x in m.terms for y in adjoints for a, b in ((x, y), (y, x))]
    return build_matrix(
        [FermionMonomial(a.coefficient * b.coefficient, a.factors + b.factors) for a, b in pairs],
        m.window,
    )


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


# -- the generation search with sorted-word membership -------------------------


def _member(ascending: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Which ``values`` occur in the non-empty ascending array ``ascending``."""
    return ascending[np.searchsorted(ascending, values).clip(max=ascending.size - 1)] == values


def footprint_search_tree(k: int, l: int, start: str) -> Dict[int, Optional[int]]:
    """The search tree of ``ground._reachability``, found by the same
    per-footprint breadth-first search with every membership test a
    ``searchsorted``: a footprint's bits against the sorted admissible words of
    its size, a move's image against the sorted reached set, and a fresh
    node's neighbour against the sorted frontier.  Ties go to the smallest
    parent.
    """
    footprints = []
    for m in range(1, l - k + 1):
        words, mask = np.sort(_words(2 * m + 1)), (1 << (2 * m + 1)) - 1
        footprints += [(2 * (lo - k), mask, words) for lo in range(k, l - m + 1)]
    start_occ = _start_config(start, Interval(k, l).inner).occ
    tree: Dict[int, Optional[int]] = {start_occ: None}
    reached = frontier = np.array([start_occ], dtype=np.int64)
    while frontier.size:
        dsts = []
        for shift, mask, words in footprints:
            dst = frontier[_member(words, (frontier >> shift) & mask)] ^ (mask << shift)
            dsts.append(dst[~_member(reached, dst)])
        fresh = np.unique(np.concatenate(dsts))
        parent = np.full(fresh.size, np.iinfo(np.int64).max)
        for shift, mask, words in footprints:
            node = fresh ^ (mask << shift)
            back = _member(words, (fresh >> shift) & mask) & _member(frontier, node)
            np.minimum(parent, node, out=parent, where=back)
        tree.update(zip(fresh.tolist(), parent.tolist()))
        reached = np.union1d(reached, fresh)
        frontier = fresh
    return tree


# -- the algebra and classification spot checks, one item at a time ------------


def adjoint_by_monomial(monos, window: SiteWindow) -> bool:
    """Whether every monomial's adjoint has the transposed matrix, one
    monomial at a time."""
    return all(build_matrix(m.adjoint(), window) == build_matrix(m, window).transpose()
               for m in monos)


def leibniz_by_triple(a, b, c, window: SiteWindow):
    """Both sides of the graded Leibniz rule ``[a, bc} = [a, b} c +
    (-1)^|b| b [a, c}`` for one triple with ``a`` odd, from its own matrices."""
    am, bm, cm = (build_matrix(x, window) for x in (a, b, c))
    grade = lambda x, deg: anticommutator(am, x) if deg % 2 else commutator(am, x)
    lhs = grade(bm @ cm, b.degree + c.degree)
    rhs = grade(bm, b.degree) @ cm + (bm @ grade(cm, c.degree)).scaled(
        -1 if b.degree % 2 else 1
    )
    return lhs, rhs


def leibniz_by_triples(triples, window: SiteWindow) -> bool:
    return all(lhs == rhs for lhs, rhs in (leibniz_by_triple(*t, window) for t in triples))


def classification_by_config(n: int) -> List[Check]:
    """The classification checks of ``verify.classification_suite``, one
    configuration vector at a time."""
    window = Interval(0, n).inner
    members = {g.occ for g in enumerate_upsilon_hat(0, n)}
    equiv = True
    implication = True
    for occ in range(window.dimension):
        vec = FockVector.from_config(OccupationConfig(window, occ))
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


def susy_by_matrix(m: ModelOperators, psi: FockVector) -> bool:
    """The vector tests of ``nicolai.ground`` from the whole-window matrices of
    ``m``: ``Q`` and ``Q*`` kill ``psi`` itself in closed edge mode, and each
    of its four edge-dressed lifts to the enlarged window in open edge mode."""
    if psi.window != m.interval.inner:
        raise ValueError("vector does not live on the inner interval window")
    lifts = [psi]
    if m.edge_mode == "open":
        top = psi.window.size + 1
        lifts = [
            FockVector(m.window, {left | idx << 1 | right << top: amp for idx, amp in psi.amplitudes.items()})
            for left in (0, 1)
            for right in (0, 1)
        ]
    return all(m.Q.apply(v).is_zero() and m.Qdag.apply(v).is_zero() for v in lifts)


# -- the forbidden-triplet rule, one triplet at a time --------------------------


def alternates(a: int, b: int, c: int) -> bool:
    """Whether a triplet alternates, for 0/1 bits and for -1/+1 values alike."""
    return a != b != c


def constraint_violation_by_loop(values: Tuple[int, ...]) -> Optional[str]:
    """Why ``values`` is no conservation sequence, or None, as
    ``charges._constraint_violation`` said it from a scan of the triplets."""
    n = len(values)
    if n < 3 or n % 2 == 0:
        return f"need an odd number >= 3 of values, got {n}"
    if any(v not in (-1, 1) for v in values):
        return "values must be -1 or +1"
    if values[0] != values[1]:
        return "left edge pair must be constant"
    if values[-2] != values[-1]:
        return "right edge pair must be constant"
    for p in range(2, n - 1, 2):
        if alternates(*values[p - 1 : p + 2]):
            return f"forbidden alternating triplet at offset {p}"
    return None


def is_ground_config_by_loop(g: OccupationConfig) -> bool:
    """``ground.is_ground_config`` as a scan of the even centres inside the window."""
    w = g.window
    return not any(
        alternates(g.bit(center - 1), g.bit(center), g.bit(center + 1))
        for center in range(w.lo + 1, w.hi)
        if center % 2 == 0
    )


def forbidden_centre_by_loop(fixed: Mapping[int, int]) -> Optional[int]:
    """The lowest even site whose triplet the partial assignment ``fixed``
    pins to an alternating pattern, or None: the pre-check that
    ``ground.extend_to_interval`` once ran."""
    for center in sorted(fixed):
        if center % 2 == 0 and center - 1 in fixed and center + 1 in fixed:
            if alternates(fixed[center - 1], fixed[center], fixed[center + 1]):
                return center
    return None
