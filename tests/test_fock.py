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
    OperatorSum,
    SiteWindow,
    _matmul_bigint,
    anticommutator,
    apply_ladder,
    apply_monomial,
    build_matrix,
    commutator,
    number_operator,
    parity_operator,
)
from oracles import graded_commutator, particle_hole_unitary
from sparse_oracle import csr


def _cfg(window, text):
    return OccupationConfig.from_string(window, text)


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
    out = apply_monomial(mono, FockVector.vacuum(w))
    assert out == FockVector.from_config(_cfg(w, "11000"), 1)
    # and for every configuration of the window
    for occ in range(w.dimension):
        cfg = OccupationConfig(w, occ)
        factors = [(s, True) for s in w.sites if cfg.bit(s)]
        out = apply_monomial(FermionMonomial.increasing(factors), FockVector.vacuum(w))
        assert out == FockVector.from_config(cfg, 1)


def test_supercharge_term_kills_vacuum():
    w = SiteWindow(-1, 1)
    q0 = FermionMonomial(1, ((1, False), (0, True), (-1, False)))
    assert apply_monomial(q0, FockVector.vacuum(w)).is_zero()


def test_identity_monomial():
    w = SiteWindow(0, 2)
    v = FockVector(w, {3: 2, 5: -1})
    assert apply_monomial(FermionMonomial.identity(), v) == v


def test_increasing_requires_sorted_sites():
    with pytest.raises(ValueError):
        FermionMonomial.increasing([(1, True), (0, True)])


# -- adjoint ------------------------------------------------------------------

def test_adjoint_of_supercharge_term():
    q = FermionMonomial(1, ((3, False), (2, True), (1, False)))
    assert q.adjoint().factors == ((1, True), (2, False), (3, True))


def test_adjoint_of_identity():
    assert FermionMonomial.identity().adjoint() == FermionMonomial.identity()


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
    assert anticommutator(create, annihilate) == IntegerSparseOperator.identity(w)


def test_car_relations_exhaustive():
    # {c*_i, c_j} = delta_ij, {c_i, c_j} = 0, {c*_i, c*_j} = 0 on sizes 1..6
    for size in range(1, 7):
        w = SiteWindow(0, size - 1)
        cr = [build_matrix(FermionMonomial(1, ((s, True),)), w) for s in w.sites]
        an = [build_matrix(FermionMonomial(1, ((s, False),)), w) for s in w.sites]
        eye = IntegerSparseOperator.identity(w)
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
    total = build_matrix(OperatorSum(terms), w)
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
    assert graded_commutator(c, a, "odd", "odd") == IntegerSparseOperator.identity(w)
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

def test_matmul_falls_back_when_bound_uncertifiable():
    # entries of 2^31 make the a-priori product bound hit the int64 guard,
    # routing the product through the big-integer path; result stays exact
    w = SiteWindow(0, 1)
    big = 1 << 31
    a = IntegerSparseOperator.from_entries(w, {(i, i): big for i in range(4)})
    assert (a @ a).entries() == {(i, i): big * big for i in range(4)}


def test_oversized_entries_fail_loudly():
    w = SiteWindow(0, 0)
    with pytest.raises(OverflowError):
        IntegerSparseOperator.from_entries(w, {(0, 0): 1 << 80})
    with pytest.raises(OverflowError):
        IntegerSparseOperator.from_entries(w, {(0, 0): 1 << 40}).scaled(1 << 40)


def test_bigint_fallback_agrees_with_csr():
    rng = random.Random(23)
    w = SiteWindow(0, 2)
    for _ in range(20):
        a = build_matrix(_rand_monomial(rng, w), w) + build_matrix(_rand_monomial(rng, w), w)
        b = build_matrix(_rand_monomial(rng, w), w) + build_matrix(_rand_monomial(rng, w), w)
        direct = (a @ b).entries()
        assert _matmul_bigint(a.entries(), b.entries()) == direct


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
        assert u @ u.transpose() == IntegerSparseOperator.identity(w)


def test_monomial_json_round_trip():
    q0 = FermionMonomial(1, ((1, False), (0, True), (-1, False)))
    doc = q0.to_json()
    # increasing-order notation flips the outer pair: one reordering sign
    assert doc["coefficient"] == -1
    assert [f["site"] for f in doc["factors"]] == [-1, 0, 1]
    back = FermionMonomial.from_json(doc)
    w = SiteWindow(-1, 1)
    assert build_matrix(back, w) == build_matrix(q0, w)


def test_zero_vector_is_explicit():
    w = SiteWindow(0, 1)
    v = FockVector(w, {0: 1})
    out = apply_monomial(FermionMonomial(1, ((0, False),)), v)
    assert out.is_zero() and out == FockVector.zero(w)


# -- scipy as an oracle for the packed-array operators -------------------------

def _rand_sum(rng, window, terms=4):
    return OperatorSum(tuple(_rand_monomial(rng, window) for _ in range(rng.randint(0, terms))))


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


def test_bigint_product_matches_scipy(monkeypatch):
    # signed permutation matrices with entries up to 2^31: the bound 2^62 is
    # not certified, yet every true entry fits int64, so scipy is exact
    calls = []

    def counted(a_entries, b_entries):
        calls.append(1)
        return _matmul_bigint(a_entries, b_entries)

    monkeypatch.setattr(fock, "_matmul_bigint", counted)
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
        assert _same(a @ b, csr(a) @ csr(b))
    assert len(calls) == 10


def test_packed_keys_refuse_oversized_windows():
    # col * dim + row must fit int64: at most 31 sites
    assert IntegerSparseOperator.zero(SiteWindow(0, 30)).is_zero()
    with pytest.raises(ValueError):
        IntegerSparseOperator.zero(SiteWindow(0, 31))


# -- batched products ------------------------------------------------------------

def _canonical_form(op):
    return bool(np.all(op.key[1:] > op.key[:-1]) and np.all(op.vals != 0))


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
        bs = [build_matrix(_rand_sum(rng, w), w) for _ in range(rng.randint(0, 6))]
        bs.insert(rng.randint(0, len(bs)), IntegerSparseOperator.zero(w))
        left, right = fock._products(a, bs), fock._products_right(bs, a)
        assert len(left) == len(right) == len(bs)
        for b, ab, ba in zip(bs, left, right):
            assert ab == a @ b and _same(ab, csr(a) @ csr(b)) and _canonical_form(ab)
            assert ba == b @ a and _same(ba, csr(b) @ csr(a)) and _canonical_form(ba)
    assert fock._products(a, []) == [] and fock._products_right([], a) == []


def test_batched_products_fall_back_item_by_item(monkeypatch):
    # one item with entries of 2^31 fails the batch's int64 bound, so every
    # item takes the big-integer path, with the same results
    calls = []

    def counted(a_entries, b_entries):
        calls.append(1)
        return _matmul_bigint(a_entries, b_entries)

    monkeypatch.setattr(fock, "_matmul_bigint", counted)
    rng = random.Random(47)
    w = SiteWindow(0, 2)
    a = IntegerSparseOperator.diagonal(w, [1 << 31] * w.dimension)
    bs = [build_matrix(_rand_sum(rng, w), w) for _ in range(4)]
    bs.insert(2, IntegerSparseOperator.diagonal(w, [-(1 << 31)] * w.dimension))
    left, right = fock._products(a, bs), fock._products_right(bs, a)
    assert len(calls) == 2 * len(bs)
    for b, ab, ba in zip(bs, left, right):
        assert _same(ab, csr(a) @ csr(b)) and _same(ba, csr(b) @ csr(a))
    assert left[2].entries() == {(i, i): -(1 << 62) for i in range(w.dimension)}


def test_batched_products_refuse_window_mismatch():
    w, other = SiteWindow(0, 2), SiteWindow(1, 3)
    a = IntegerSparseOperator.identity(w)
    bs = [IntegerSparseOperator.identity(w), IntegerSparseOperator.identity(other)]
    with pytest.raises(ValueError):
        fock._products(a, bs)
    with pytest.raises(ValueError):
        fock._products_right(bs, a)


def test_batched_products_split_when_block_keys_would_overflow():
    # a 31-site window leaves no key bits for a block index: one block per product
    w = SiteWindow(0, 30)
    zero = IntegerSparseOperator.zero(w)
    products = fock._products(zero, [zero] * 3)
    assert len(products) == 3 and all(p.is_zero() for p in products)
    assert len(fock._products_right([zero] * 3, zero)) == 3
