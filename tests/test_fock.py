"""Ladder action, monomials, exact matrices and the graded structure."""

import random

import numpy as np
import pytest

from nicolai import fock
from nicolai.fock import (
    FermionMonomial,
    FockVector,
    IntegerSparseOperator,
    OccupationConfig,
    SiteWindow,
    anticommutator,
    apply_ladder,
    apply_monomial,
    build_matrix,
    commutator,
    number_operator,
    parity_operator,
)
from oracles import graded_commutator, matrix_by_basis_action, particle_hole_unitary
from sparse_oracle import csr


def _cfg(window, text):
    return OccupationConfig.from_string(window, text)


def _eye(window):
    return IntegerSparseOperator.diagonal(window, np.ones(window.dimension, dtype=np.int64))


def _rand_monomial(rng, window, max_degree=4):
    degree = rng.randint(0, max_degree)
    return FermionMonomial(
        rng.choice((1, -1, 2, -3)),
        tuple((rng.randrange(window.lo, window.hi + 1), rng.random() < 0.5)
              for _ in range(degree)),
    )


# -- windows and configs ------------------------------------------------------

def test_window_basics():
    w = SiteWindow(-1, 3)
    assert w.size == 5 and w.dimension == 32
    assert w.bit(-1) == 0 and w.bit(3) == 4
    with pytest.raises(ValueError):
        w.bit(4)
    with pytest.raises(ValueError):
        SiteWindow(2, 1)


def test_config_string_round_trip():
    w = SiteWindow(0, 4)
    c = _cfg(w, "00011")
    assert c.occ == 0b11000  # low site = low bit
    assert c.to_string() == "00011"
    assert c.bits == (0, 0, 0, 1, 1)
    assert OccupationConfig(w, c.occ ^ (w.dimension - 1)).to_string() == "11100"


@pytest.mark.parametrize("text", ["\uff11\u06611", "1\u06611", "00\uff10", "012", "0x1"])
def test_config_strings_hold_only_ascii_bits(text):
    # int() reads every Unicode decimal digit, such as the fullwidth one and
    # the Arabic-Indic one; a bitstring takes 0 and 1 only
    with pytest.raises(ValueError):
        OccupationConfig.from_string(SiteWindow(0, 2), text)


# -- ladder action ------------------------------------------------------------

def test_create_on_single_empty_site():
    w = SiteWindow(0, 0)
    out = apply_ladder(_cfg(w, "0"), 0, True)
    assert out == (_cfg(w, "1"), 1)


def test_annihilate_vacuum_is_none():
    w = SiteWindow(0, 0)
    assert apply_ladder(_cfg(w, "0"), 0, False) is None


def test_create_with_two_occupied_to_the_left():
    # two occupied sites below site 2: sign (-1)^2 = +1
    w = SiteWindow(0, 2)
    assert apply_ladder(_cfg(w, "110"), 2, True) == (_cfg(w, "111"), 1)
    # one occupied below site 1: sign -1
    assert apply_ladder(_cfg(w, "101"), 1, True) == (_cfg(w, "111"), -1)


def test_ladder_outside_window():
    w = SiteWindow(0, 2)
    with pytest.raises(ValueError):
        apply_ladder(_cfg(w, "000"), 5, True)


def test_sign_involution():
    # c_i c*_i on an empty site returns the config with net sign +1
    w = SiteWindow(0, 4)
    for occ in range(w.dimension):
        cfg = OccupationConfig(w, occ)
        for site in w.sites:
            if cfg.bit(site):
                continue
            up, s1 = apply_ladder(cfg, site, True)
            back, s2 = apply_ladder(up, site, False)
            assert back == cfg and s1 * s2 == 1


# -- monomial application -----------------------------------------------------

def test_increasing_product_on_vacuum_has_plus_sign():
    w = SiteWindow(0, 4)
    mono = FermionMonomial.increasing([(0, True), (1, True)])
    out = apply_monomial(mono, FockVector(w, {0: 1}))
    assert out == FockVector.from_config(_cfg(w, "11000"), 1)
    # and for every configuration of the window
    for occ in range(w.dimension):
        cfg = OccupationConfig(w, occ)
        factors = [(s, True) for s in w.sites if cfg.bit(s)]
        out = apply_monomial(FermionMonomial.increasing(factors), FockVector(w, {0: 1}))
        assert out == FockVector.from_config(cfg, 1)


def test_supercharge_term_kills_vacuum():
    w = SiteWindow(-1, 1)
    q0 = FermionMonomial(1, ((1, False), (0, True), (-1, False)))
    assert apply_monomial(q0, FockVector(w, {0: 1})).is_zero()


def test_identity_monomial():
    w = SiteWindow(0, 2)
    v = FockVector(w, {3: 2, 5: -1})
    assert apply_monomial(FermionMonomial(1, ()), v) == v


def test_increasing_requires_sorted_sites():
    with pytest.raises(ValueError):
        FermionMonomial.increasing([(1, True), (0, True)])


# -- adjoint ------------------------------------------------------------------

def test_adjoint_of_supercharge_term():
    q = FermionMonomial(1, ((3, False), (2, True), (1, False)))
    assert q.adjoint().factors == ((1, True), (2, False), (3, True))


def test_adjoint_of_identity():
    assert FermionMonomial(1, ()).adjoint() == FermionMonomial(1, ())


def test_adjoint_reverses_creation_string():
    m = FermionMonomial.increasing([(0, True), (1, True), (2, True)])
    assert m.adjoint().factors == ((2, False), (1, False), (0, False))
    w = SiteWindow(0, 2)
    assert build_matrix(m.adjoint(), w) == build_matrix(m, w).transpose()


def test_adjoint_is_transpose_randomized():
    rng = random.Random(11)
    for _ in range(200):
        lo = rng.randint(-3, 1)
        window = SiteWindow(lo, lo + rng.randint(0, 4))
        mono = _rand_monomial(rng, window)
        assert build_matrix(mono.adjoint(), window) == build_matrix(mono, window).transpose()


# -- matrices -----------------------------------------------------------------

def test_number_operator_single_site():
    w = SiteWindow(0, 0)
    assert number_operator(w).entries() == {(1, 1): 1}


def test_number_operator_two_sites():
    w = SiteWindow(3, 4)
    assert number_operator(w).entries() == {(1, 1): 1, (2, 2): 1, (3, 3): 2}


def test_parity_single_site():
    w = SiteWindow(0, 0)
    assert parity_operator(w).entries() == {(0, 0): 1, (1, 1): -1}


def test_parity_anticommutes_with_creation():
    w = SiteWindow(0, 2)
    create = build_matrix(FermionMonomial(1, ((0, True),)), w)
    assert anticommutator(parity_operator(w), create).is_zero()


def test_car_anticommutator_is_identity():
    w = SiteWindow(0, 1)
    create = build_matrix(FermionMonomial(1, ((0, True),)), w)
    annihilate = build_matrix(FermionMonomial(1, ((0, False),)), w)
    assert anticommutator(create, annihilate) == _eye(w)


def test_car_relations_exhaustive():
    # {c*_i, c_j} = delta_ij, {c_i, c_j} = 0, {c*_i, c*_j} = 0 on sizes 1..6
    for size in range(1, 7):
        w = SiteWindow(0, size - 1)
        cr = [build_matrix(FermionMonomial(1, ((s, True),)), w) for s in w.sites]
        an = [build_matrix(FermionMonomial(1, ((s, False),)), w) for s in w.sites]
        eye = _eye(w)
        for i in range(size):
            for j in range(size):
                ac = anticommutator(cr[i], an[j])
                assert ac == eye if i == j else ac.is_zero()
                assert anticommutator(an[i], an[j]).is_zero()
                assert anticommutator(cr[i], cr[j]).is_zero()


def test_supercharge_term_matrix_single_entry():
    # brute force over the 8 basis configs of [-1..1]
    w = SiteWindow(-1, 1)
    q0 = FermionMonomial(1, ((1, False), (0, True), (-1, False)))
    expected = {}
    for occ in range(w.dimension):
        out = apply_monomial(q0, FockVector.from_config(OccupationConfig(w, occ)))
        for row, amp in out.amplitudes.items():
            expected[(row, occ)] = amp
    mat = build_matrix(q0, w)
    assert mat.entries() == expected
    assert mat.nnz == 1
    assert set(mat.entries().values()) <= {-1, 1}
    assert mat.entries() == {(2, 5): -1}


def test_repeated_factor_matrix_is_zero():
    w = SiteWindow(0, 1)
    assert build_matrix(FermionMonomial(1, ((0, True), (0, True))), w).is_zero()


def test_operator_sum_matrix_is_sum_of_terms():
    rng = random.Random(5)
    w = SiteWindow(0, 3)
    terms = tuple(_rand_monomial(rng, w) for _ in range(5))
    total = build_matrix(terms, w)
    acc = IntegerSparseOperator.zero(w)
    for t in terms:
        acc = acc + build_matrix(t, w)
    assert total == acc


def test_build_matrix_rejects_outside_sites():
    with pytest.raises(ValueError):
        build_matrix(FermionMonomial(1, ((5, True),)), SiteWindow(0, 2))


# -- grading and graded commutator -------------------------------------------

def test_grading_of_random_monomials():
    rng = random.Random(13)
    w = SiteWindow(0, 3)
    theta = parity_operator(w)
    for _ in range(60):
        mono = _rand_monomial(rng, w)
        mat = build_matrix(mono, w)
        if mono.degree % 2:
            assert anticommutator(theta, mat).is_zero()
        else:
            assert commutator(theta, mat).is_zero()


def test_graded_commutator_dispatch():
    w = SiteWindow(0, 1)
    n = number_operator(w)
    assert graded_commutator(n, n, "even", "even").is_zero()
    c = build_matrix(FermionMonomial(1, ((0, True),)), w)
    a = build_matrix(FermionMonomial(1, ((0, False),)), w)
    assert graded_commutator(c, a, "odd", "odd") == _eye(w)
    with pytest.raises(ValueError):
        graded_commutator(n, n, "even", "sideways")


def test_graded_commutator_window_mismatch():
    a = number_operator(SiteWindow(0, 1))
    b = number_operator(SiteWindow(0, 2))
    with pytest.raises(ValueError):
        graded_commutator(a, b, "even", "even")


def test_graded_leibniz_rule():
    # [a, bc] = [a, b] c + (-1)^|b| b [a, c]   (graded brackets, a odd)
    rng = random.Random(17)
    w = SiteWindow(0, 3)

    def bracket(x, xdeg, y, ydeg):
        return anticommutator(x, y) if (xdeg % 2 and ydeg % 2) else commutator(x, y)

    for _ in range(50):
        a = _rand_monomial(rng, w, max_degree=3)
        if a.degree % 2 == 0:
            a = FermionMonomial(a.coefficient, a.factors + ((rng.randrange(0, 4), False),))
        b = _rand_monomial(rng, w)
        c = _rand_monomial(rng, w)
        am, bm, cm = (build_matrix(x, w) for x in (a, b, c))
        lhs = bracket(am, 1, bm @ cm, b.degree + c.degree)
        rhs = bracket(am, 1, bm, b.degree) @ cm + (
            bm @ bracket(am, 1, cm, c.degree)
        ).scaled(-1 if b.degree % 2 else 1)
        assert lhs == rhs


# -- exact arithmetic plumbing -----------------------------------------------

def test_matmul_raises_when_bound_uncertifiable():
    # entries of 2^31 on a 4-state window: the bound 4 * 2^31 * 2^31 fails
    w = SiteWindow(0, 1)
    big = 1 << 31
    a = IntegerSparseOperator.from_entries(w, {(i, i): big for i in range(4)})
    with pytest.raises(OverflowError):
        a @ a
    # one factor smaller and the same product is certified and exact
    b = IntegerSparseOperator.from_entries(w, {(i, i): 1 << 28 for i in range(4)})
    assert (a @ b).entries() == {(i, i): 1 << 59 for i in range(4)}


def test_oversized_entries_fail_loudly():
    w = SiteWindow(0, 0)
    with pytest.raises(OverflowError):
        IntegerSparseOperator.from_entries(w, {(0, 0): 1 << 80})
    with pytest.raises(OverflowError):
        IntegerSparseOperator.from_entries(w, {(0, 0): 1 << 40}).scaled(1 << 40)


def test_entries_at_the_int64_bound_are_refused():
    # -2^63 has no int64 magnitude (np.abs wraps it), so a + a once passed
    # certification and silently gave the zero operator
    w = SiteWindow(0, 0)
    for value in (-(1 << 63), 1 << 62, -(1 << 62)):
        with pytest.raises(OverflowError):
            IntegerSparseOperator(w, [0], [value])
        with pytest.raises(OverflowError):
            IntegerSparseOperator.from_entries(w, {(0, 0): value})
        with pytest.raises(OverflowError):
            IntegerSparseOperator.diagonal(w, [value, 1])
    top = IntegerSparseOperator(w, [0], [(1 << 62) - 1])
    assert top.entry_bound() == (1 << 62) - 1
    assert IntegerSparseOperator(w, [0], [1 - (1 << 62)]).entry_bound() == (1 << 62) - 1
    with pytest.raises(OverflowError):
        top + top
    # repeated keys are summed, so their sum must be certified too
    with pytest.raises(OverflowError):
        IntegerSparseOperator(w, [0, 0], [1 << 61, 1 << 61])
    assert IntegerSparseOperator(w, [0, 0], [1 << 60, 1 << 60]).entries() == {(0, 0): 1 << 61}
    # distinct keys are never summed, however large their values
    assert IntegerSparseOperator(w, [3, 0], [1 << 61, 1 << 61]).entry_bound() == 1 << 61


def test_non_integer_inputs_are_refused():
    # each of these once truncated silently: scaled(1.5) scaled by 1, the
    # diagonal stored 1, the entry read back as {(0, 0): 2} and the amplitude
    # as 1; a float coefficient failed deep inside numpy
    w = SiteWindow(0, 1)
    op = IntegerSparseOperator.diagonal(w, [1, 2, 3, 4])
    for act in (
        lambda: op.scaled(1.5),
        lambda: IntegerSparseOperator.diagonal(w, [1.5, 2, 3, 4]),
        lambda: IntegerSparseOperator.from_entries(w, {(0.5, 0): 2.7}),
        lambda: IntegerSparseOperator.from_entries(w, {(0, 0): 2.7}),
        lambda: IntegerSparseOperator(w, [0.9], [1]),
        lambda: FockVector(w, {0: 1.5}),
        lambda: FockVector(w, {0.5: 1}),
        lambda: FermionMonomial(1.5, ((0, True),)),
        lambda: FermionMonomial(1, ((0.5, True),)),
    ):
        with pytest.raises(TypeError):
            act()
    # integers beyond int64 still overflow, whatever their container
    for act in (
        lambda: IntegerSparseOperator.diagonal(w, [1 << 70, 0, 0, 0]),
        lambda: IntegerSparseOperator.from_entries(w, {(0, 0): 1 << 70}),
        lambda: IntegerSparseOperator.diagonal(w, np.array([(1 << 64) - 1, 0, 0, 0], np.uint64)),
    ):
        with pytest.raises(OverflowError):
            act()
    # numpy integers and Python integers are the same values
    assert op.scaled(np.int64(-2)) == op.scaled(-2)
    assert IntegerSparseOperator.diagonal(w, np.arange(1, 5, dtype=np.uint8)) == op
    assert FermionMonomial(np.int64(2), ((np.int64(1), True),)) == FermionMonomial(2, ((1, True),))


def test_positions_outside_the_window_are_refused():
    # on a 2-site window (dim 4) these once packed into wrong in-range entries:
    # row 4 of col 0 read back as (0, 1), key -1 as (3, -1), a fifth diagonal
    # entry landed at (0, 5)
    w = SiteWindow(0, 1)
    for entries in ({(4, 0): 1}, {(0, 4): 1}, {(-1, 0): 1}, {(0, -1): 1}):
        with pytest.raises(ValueError):
            IntegerSparseOperator.from_entries(w, entries)
    for key in (-1, 16, 1 << 40):
        with pytest.raises(ValueError):
            IntegerSparseOperator(w, [0, key], [1, 1])
    for diag in ([1, 2, 3, 4, 5], [1, 2, 3]):
        with pytest.raises(ValueError):
            IntegerSparseOperator.diagonal(w, diag)
    corner = IntegerSparseOperator.from_entries(w, {(3, 3): 1, (0, 3): 2})
    assert IntegerSparseOperator(w, [15, 12], [1, 2]) == corner
    assert corner.entries() == {(0, 3): 2, (3, 3): 1}


def test_wide_operators_are_right_factors_only():
    # as a left factor or in apply, a wide operator would be read as its
    # first block
    w = SiteWindow(0, 2)
    wide = fock._build_stack([FermionMonomial(1, ()), FermionMonomial(1, ((1, True),))], w)
    square = _eye(w)
    assert square @ wide == wide
    for act in (lambda: wide @ square, lambda: wide @ wide,
                lambda: wide.apply(FockVector.from_config(_cfg(w, "000")))):
        with pytest.raises(ValueError):
            act()
    # a square operator acts as before; the zero operator is square
    assert square.apply(FockVector.from_config(_cfg(w, "010"))).amplitudes == {2: 1}
    zero = IntegerSparseOperator.zero(w)
    assert (zero @ wide).is_zero() and zero.apply(FockVector.zero(w)).is_zero()


def test_apply_matches_matmul_on_basis():
    rng = random.Random(29)
    w = SiteWindow(0, 3)
    op = build_matrix(_rand_monomial(rng, w), w) + build_matrix(_rand_monomial(rng, w), w)
    for occ in range(w.dimension):
        applied = op.apply(FockVector.from_config(OccupationConfig(w, occ)))
        column = {r: v for (r, c), v in op.entries().items() if c == occ}
        assert applied.amplitudes == column


def test_particle_hole_unitary_is_orthogonal():
    for size in (1, 2, 3, 5):
        w = SiteWindow(0, size - 1)
        u = particle_hole_unitary(w)
        assert u @ u.transpose() == _eye(w)


def test_supercharge_term_in_increasing_notation():
    # increasing-order notation flips the outer pair: one reordering sign
    q0 = FermionMonomial(1, ((1, False), (0, True), (-1, False)))
    w = SiteWindow(-1, 1)
    increasing = FermionMonomial.increasing([(-1, False), (0, True), (1, False)])
    assert build_matrix(q0, w) == -build_matrix(increasing, w)
    assert build_matrix(q0, w) == build_matrix(FermionMonomial(-1, increasing.factors), w)


def test_zero_vector_is_explicit():
    w = SiteWindow(0, 1)
    v = FockVector(w, {0: 1})
    out = apply_monomial(FermionMonomial(1, ((0, False),)), v)
    assert out.is_zero() and out == FockVector.zero(w)


# -- scipy as an oracle for the packed-array operators -------------------------

def _rand_sum(rng, window, terms=4):
    return tuple(_rand_monomial(rng, window) for _ in range(rng.randint(0, terms)))


def _same(op, mat):
    return np.array_equal(csr(op).toarray(), mat.toarray())


@pytest.mark.parametrize("chunk", [None, 3])
def test_operator_arithmetic_matches_scipy(monkeypatch, chunk):
    # chunk=3 splits every sum and product into many pieces
    if chunk is not None:
        monkeypatch.setattr(fock, "_CHUNK", chunk)
    rng = random.Random(37)
    for _ in range(60):
        size = rng.randint(1, 6)
        lo = rng.randint(-3, 3)
        w = SiteWindow(lo, lo + size - 1)
        a = build_matrix(_rand_sum(rng, w), w)
        b = build_matrix(_rand_sum(rng, w), w)
        sa, sb = csr(a), csr(b)
        c = rng.choice((-3, -1, 0, 2, 5))
        assert _same(a @ b, sa @ sb)
        assert _same(a + b, sa + sb)
        assert _same(a - b, sa - sb)
        assert _same(a.scaled(c), sa * c)
        assert _same(a.transpose(), sa.transpose())
        assert (a == b) == ((sa != sb).nnz == 0)
        assert a == (a + b) - b
        amps = {i: rng.randint(-5, 5) for i in rng.sample(range(w.dimension), min(3, w.dimension))}
        vec = np.zeros(w.dimension, dtype=np.int64)
        vec[list(amps)] = list(amps.values())
        applied = a.apply(FockVector(w, amps))
        expected = sa @ vec
        assert applied.amplitudes == {int(i): int(expected[i]) for i in np.flatnonzero(expected)}
        # canonical storage: strictly increasing keys, no zeros
        for op in (a, b, a @ b, a + b):
            assert np.all(op.key[1:] > op.key[:-1]) and np.all(op.vals != 0)


def test_uncertified_product_raises_though_entries_fit():
    # signed permutation matrices with entries up to 2^31: every true entry
    # fits int64, but the bound 16 * 2^31 * 2^31 is not certified, so the
    # product raises rather than trusting int64
    rng = random.Random(41)
    w = SiteWindow(0, 3)
    for _ in range(10):
        ops = []
        for _ in range(2):
            perm = rng.sample(range(w.dimension), w.dimension)
            entries = {(r, c): rng.choice((1, -1)) * rng.randint(1 << 30, 1 << 31)
                       for c, r in enumerate(perm) if rng.random() < 0.7}
            entries[(perm[0], 0)] = 1 << 31
            ops.append(IntegerSparseOperator.from_entries(w, entries))
        a, b = ops
        with pytest.raises(OverflowError):
            a @ b
        # scaled down below the bound, the product agrees with scipy
        small = [IntegerSparseOperator(w, op.key, op.vals >> 3) for op in ops]
        assert _same(small[0] @ small[1], csr(small[0]) @ csr(small[1]))


def test_packed_keys_refuse_oversized_windows():
    # col * dim + row must fit int64: at most 31 sites; a wider window is a
    # size limit, refused before anything is allocated
    assert IntegerSparseOperator.zero(SiteWindow(0, 30)).is_zero()
    with pytest.raises(OverflowError, match="window of 32 sites is too large for packed keys"):
        IntegerSparseOperator.zero(SiteWindow(0, 31))
    with pytest.raises(OverflowError, match="window of 32 sites is too large for packed keys"):
        build_matrix(FermionMonomial.increasing([(0, True)]), SiteWindow(0, 31))


# -- batched products ------------------------------------------------------------

def _canonical_form(op):
    return bool(np.all(op.key[1:] > op.key[:-1]) and np.all(op.vals != 0))


def _blocks(w, count, wide):
    """The ``count`` operators laid side by side in the wide operator ``wide``,
    after checking that it is canonical."""
    key, vals = wide.key, wide.vals
    assert wide.window == w and np.all(key[1:] > key[:-1]) and np.all(vals != 0)
    block, low = key >> (2 * w.size), key & ((1 << (2 * w.size)) - 1)
    return [IntegerSparseOperator(w, low[block == t], vals[block == t]) for t in range(count)]


def _stack(w, ops):
    """The wide operator ``[op_0 | op_1 | ...]`` of built operators: block
    ``t`` holds ``op_t``'s keys plus ``t << 2 * size``."""
    assert all(op.window == w for op in ops) and len(ops) <= fock._max_blocks(w)
    key = np.concatenate([op.key for op in ops])
    blocks = np.arange(len(ops), dtype=np.int64) << (2 * w.size)
    key |= np.repeat(blocks, [op.nnz for op in ops])
    return IntegerSparseOperator._wrap(w, key, np.concatenate([op.vals for op in ops]))


def _wide_products(a, bs):
    """``[a @ b]`` and ``[b @ a]`` for every ``b`` in ``bs``, from one wide
    product each: the second as ``(aᵀ bᵀ)ᵀ``, block by block."""
    stack = _stack(a.window, bs)
    left = _blocks(a.window, len(bs), a @ stack)
    return left, _blocks(a.window, len(bs), (a.transpose() @ stack.transpose()).transpose())


def _rand_stack(rng, w):
    bs = [build_matrix(_rand_sum(rng, w), w) for _ in range(rng.randint(0, 6))]
    bs.insert(rng.randint(0, len(bs)), IntegerSparseOperator.zero(w))
    return bs


@pytest.mark.parametrize("chunk", [None, 3])
def test_batched_products_match_single_products_and_scipy(monkeypatch, chunk):
    # chunk=3 splits the wide expansion inside and between the blocks
    if chunk is not None:
        monkeypatch.setattr(fock, "_CHUNK", chunk)
    rng = random.Random(43)
    for trial in range(40):
        size = rng.randint(1, 6)
        lo = rng.randint(-3, 3)
        w = SiteWindow(lo, lo + size - 1)
        a = IntegerSparseOperator.zero(w) if trial == 0 else build_matrix(_rand_sum(rng, w), w)
        bs = _rand_stack(rng, w)
        for b, ab, ba in zip(bs, *_wide_products(a, bs)):
            assert ab == a @ b and _same(ab, csr(a) @ csr(b)) and _canonical_form(a @ b)
            assert ba == b @ a and _same(ba, csr(b) @ csr(a)) and _canonical_form(b @ a)


def test_transpose_blocks_transposes_every_block():
    rng = random.Random(53)
    for _ in range(20):
        size = rng.randint(1, 5)
        w = SiteWindow(0, size - 1)
        bs = _rand_stack(rng, w)
        stack = _stack(w, bs)
        flipped = stack.transpose()
        for b, bt in zip(bs, _blocks(w, len(bs), flipped)):
            assert bt == b.transpose() and _same(bt, csr(b).T)
        assert flipped.transpose() == stack and flipped.adjoint() == stack


def test_batched_products_raise_when_bound_uncertifiable():
    # one item with entries of 2^31 fails the stack's int64 bound, so the
    # whole wide product raises, from either side
    rng = random.Random(47)
    w = SiteWindow(0, 2)
    a = IntegerSparseOperator.diagonal(w, [1 << 31] * w.dimension)
    bs = [build_matrix(_rand_sum(rng, w), w) for _ in range(4)]
    for b, ab, ba in zip(bs, *_wide_products(a, bs)):
        assert _same(ab, csr(a) @ csr(b)) and _same(ba, csr(b) @ csr(a))
    bs.insert(2, IntegerSparseOperator.diagonal(w, [-(1 << 31)] * w.dimension))
    stack = _stack(w, bs)
    with pytest.raises(OverflowError):
        a @ stack
    with pytest.raises(OverflowError):
        a.transpose() @ stack.transpose()


def test_batched_products_refuse_window_mismatch():
    # a stack is built on one window: a site outside it is refused
    w, other = SiteWindow(0, 2), SiteWindow(1, 3)
    inside, outside = FermionMonomial(1, ((2, True),)), FermionMonomial(1, ((3, True),))
    assert fock._build_stack([inside], w).nnz == 4
    with pytest.raises(ValueError):
        fock._build_stack([inside, outside], w)
    with pytest.raises(ValueError):
        _eye(w) @ _eye(other)


def _full_monomial(w):
    """A monomial touching every site of ``w``: one nonzero entry."""
    return FermionMonomial(1, tuple((s, True) for s in w.sites))


def test_batched_products_split_when_block_keys_would_overflow():
    # a 31-site window leaves key bits for one block only: no stack of two
    w = SiteWindow(0, 30)
    monos = [_full_monomial(w)] * 3
    one = fock._build_stack(monos[:1], w)
    assert one.key.tolist() == [w.dimension - 1] and one.vals.tolist() == [1]
    with pytest.raises(OverflowError):
        fock._build_stack(monos[:2], w)
    # a 30-site window holds four blocks, and its keys stay in int64
    w = SiteWindow(0, 29)
    monos = [_full_monomial(w)] * 5
    four = fock._build_stack(monos[:4], w)
    assert four.key.tolist() == [(t << 60) + w.dimension - 1 for t in range(4)]
    with pytest.raises(OverflowError):
        fock._build_stack(monos, w)


# -- operators built from closed forms ---------------------------------------------

def _special_monomials(w):
    """Monomials with the edge cases of the closed form on ``w``."""
    lo, hi = w.lo, w.hi
    return [
        FermionMonomial(1, ()),  # the identity
        FermionMonomial(-2, ()),
        FermionMonomial(1, ((lo, True), (lo, True))),  # a zero product
        FermionMonomial(3, ((hi, False), (lo, True), (hi, True))),  # a repeated site
        FermionMonomial(1, ((hi, True), (hi, False), (hi, True), (hi, False))),
        FermionMonomial(0, ((lo, True),)),  # a zero coefficient
        FermionMonomial(0, ((hi + 5, True),)),  # not built, so its site is never read
        _full_monomial(w),
    ]


def test_stack_blocks_match_basis_action_and_single_builds():
    rng = random.Random(61)
    for trial in range(60):
        size = rng.randint(1, 7)
        lo = rng.randint(-4, 2)
        w = SiteWindow(lo, lo + size - 1)
        monos = [_rand_monomial(rng, w, max_degree=6) for _ in range(rng.randint(0, 8))]
        if trial % 3 == 0:
            monos += _special_monomials(w)
            rng.shuffle(monos)
        for m, block in zip(monos, _blocks(w, len(monos), fock._build_stack(monos, w))):
            assert block == matrix_by_basis_action(m, w) == build_matrix(m, w), m
            assert _canonical_form(build_matrix(m, w))
        assert build_matrix(monos, w) == matrix_by_basis_action(monos, w)


def test_stack_and_builds_sort_nothing(monkeypatch):
    # each block comes out of its closed form in key order
    def refuse(*args, **kwargs):
        raise AssertionError("sorted")

    rng = random.Random(67)
    cases = []
    for _ in range(20):
        w = SiteWindow(-2, rng.randint(-2, 5))
        cases.append((w, [_rand_monomial(rng, w, max_degree=6) for _ in range(6)]
                      + _special_monomials(w)))
    for name in ("sort", "argsort", "lexsort", "unique"):
        monkeypatch.setattr(np, name, refuse)
    for w, monos in cases:
        stack = fock._build_stack(monos, w)
        assert np.all(stack.key[1:] > stack.key[:-1]) and np.all(stack.vals != 0)
        for m in monos:
            op = build_matrix(m, w)
            assert np.all(op.key[1:] > op.key[:-1])


def test_stack_refuses_uncertified_coefficients():
    w = SiteWindow(-1, 1)
    for c in (1 << 62, -(1 << 62), 1 << 70):
        big = FermionMonomial(c, ((0, True),))
        with pytest.raises(OverflowError):
            fock._build_stack([FermionMonomial(1, ()), big], w)
        with pytest.raises(OverflowError):
            build_matrix(big, w)
    edge = FermionMonomial((1 << 62) - 1, ((0, True),))
    assert fock._build_stack([edge], w).vals.tolist() == [(1 << 62) - 1, -((1 << 62) - 1)] * 2
    assert build_matrix(edge, w) == matrix_by_basis_action(edge, w)


def test_free_states_list_every_value_of_the_mask_in_order():
    for free in (0, 1, 0b1010, 0b110111, 0b1000001, (1 << 12) - 1):
        expected = [x for x in range(free + 1) if x & ~free == 0]
        assert fock._free_states(free).tolist() == expected
