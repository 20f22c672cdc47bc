"""Finite-interval supercharges, Hamiltonians, symmetries and spectra."""

import json
import math

import numpy as np
import pytest

from nicolai.fock import (
    FermionMonomial,
    IntegerSparseOperator,
    SiteWindow,
    anticommutator,
    build_matrix,
    commutator,
    number_operator,
    parity_operator,
)
from nicolai.intrank import integer_rank, rows_from_csr
from nicolai.model import (
    Interval,
    SpectrumReport,
    build_supercharge,
    spectrum,
    supercharge_term,
)
from nicolai import intrank
from nicolai.intrank import _psd_ranks
from nicolai.model import _block_labels, _distinct_blocks
from oracles import (
    block_ranks,
    bulk_term_crosscheck,
    diagonal_density,
    expanded_h,
    graded_commutator,
    hamiltonian_density,
    stacked_nullity,
    symmetry_report,
)
from sparse_oracle import csr


def test_interval_windows():
    iv = Interval(0, 2)
    assert iv.inner == SiteWindow(0, 4)
    assert iv.enlarged == SiteWindow(-1, 5)
    assert Interval(1, 3).inner.size == 5
    assert Interval(1, 3).enlarged.size == 7
    with pytest.raises(ValueError):
        Interval(2, 2)


def test_supercharge_term_form():
    q0 = supercharge_term(0)
    assert q0.factors == ((1, False), (0, True), (-1, False))
    # increasing-order form carries the reordering sign
    w = SiteWindow(-1, 1)
    increasing = FermionMonomial.increasing([(-1, False), (0, True), (1, False)], -1)
    assert build_matrix(q0, w) == build_matrix(increasing, w)
    assert build_matrix(q0, w) != build_matrix(FermionMonomial(1, increasing.factors), w)
    # adjoint is the increasing-order product c*_{2i-1} c_{2i} c*_{2i+1}
    assert q0.adjoint().factors == ((-1, True), (0, False), (1, True))


def test_supercharge_term_squares_to_zero():
    w = SiteWindow(-1, 1)
    q = build_matrix(supercharge_term(0), w)
    assert (q @ q).is_zero()


def test_open_mode_construction():
    m = build_supercharge((0, 1), "open")
    assert m.window == SiteWindow(-1, 3)
    assert len(m.terms) == 2
    assert (m.Q @ m.Q).is_zero()


def test_closed_mode_single_term():
    m = build_supercharge((0, 2), "closed")
    assert m.window == SiteWindow(0, 4)
    assert m.terms == (supercharge_term(1),)


def test_closed_mode_requires_interior():
    with pytest.raises(ValueError):
        build_supercharge((0, 1), "closed")


def test_unknown_edge_mode():
    with pytest.raises(ValueError):
        build_supercharge((0, 2), "periodic")


@pytest.mark.parametrize("k,l", [(0, 1), (-1, 1), (0, 2), (1, 3), (0, 3), (0, 4)])
@pytest.mark.parametrize("mode", ["open", "closed"])
def test_susy_algebra_identities(k, l, mode):
    if mode == "closed" and k + 1 >= l:
        pytest.skip("closed mode undefined")
    m = build_supercharge((k, l), mode)
    parity = parity_operator(m.window)
    number = number_operator(m.window)
    assert (m.Q @ m.Q).is_zero()
    assert (m.Qdag @ m.Qdag).is_zero()
    assert m.H == m.Q @ m.Qdag + m.Qdag @ m.Q
    assert anticommutator(parity, m.Q).is_zero()
    assert commutator(m.H, m.Q).is_zero()
    assert commutator(m.H, m.Qdag).is_zero()
    assert commutator(m.H, number).is_zero()


@pytest.mark.parametrize(
    "mode,n", [("open", n) for n in range(1, 9)] + [("closed", n) for n in range(2, 9)]
)
def test_hamiltonian_entries_are_small(mode, n):
    # |Q| = 1 and |H| = n + 1 (open) or n - 1 (closed): every product a command
    # makes certifies its int64 bound with a wide margin, even on 31 sites
    m = build_supercharge((0, n), mode)
    assert m.Q.entry_bound() == 1
    assert m.H.entry_bound() == (n + 1 if mode == "open" else n - 1)
    assert m.window.dimension * m.H.entry_bound() ** 2 < 1 << 40


def test_graded_commutator_on_supercharge():
    m = build_supercharge((0, 2), "open")
    assert graded_commutator(m.Q, m.Q, "odd", "odd").is_zero()  # 2 Q^2
    assert graded_commutator(m.H, m.Q, "even", "odd").is_zero()
    # with {P, Q} = 0 the even-odd bracket [P, Q] collapses to -2 Q P
    parity = parity_operator(m.window)
    assert graded_commutator(parity, m.Q, "even", "odd") == (m.Q @ parity).scaled(-2)


def test_single_monomial_entries_are_units():
    # any +/-1-coefficient ladder monomial has matrix entries in {-1, 0, +1}
    from nicolai.charges import charge_monomial, enumerate_union

    w = SiteWindow(-1, 5)
    for i in (0, 1, 2):
        assert build_matrix(supercharge_term(i), w).entry_bound() <= 1
    for f in enumerate_union(0, 2):
        assert build_matrix(charge_monomial(f), w).entry_bound() <= 1


def test_shift_two_covariance():
    # window-relative matrices are identical under k -> k+1, l -> l+1
    for mode in ("open", "closed"):
        a = build_supercharge((0, 2), mode)
        b = build_supercharge((1, 3), mode)
        assert a.Q.entries() == b.Q.entries()
        assert a.H.entries() == b.H.entries()


@pytest.mark.parametrize("i", [-1, 0, 2])
def test_bulk_term_crosscheck(i):
    assert bulk_term_crosscheck(i)


def test_density_encoding_is_rigid():
    # flipping the sign of the last displayed term must break the identity
    i = 0
    window = SiteWindow(2 * i - 2, 2 * i + 5)
    q_i = build_matrix(supercharge_term(i), window)
    q_n = build_matrix(supercharge_term(i + 1), window)
    lhs = (
        anticommutator(q_i, q_i.adjoint())
        + anticommutator(q_i, q_n.adjoint())
        + anticommutator(q_n, q_i.adjoint())
        + anticommutator(q_n, q_n.adjoint())
    )
    terms = hamiltonian_density(i) + diagonal_density(i + 1)
    assert lhs == build_matrix(terms, window)
    tampered = [FermionMonomial(-t.coefficient, t.factors) if t.coefficient < 0 else t
                for t in terms]
    assert lhs != build_matrix(tampered, window)
    # the cross hopping term enters with coefficient +1
    hop = hamiltonian_density(i)[0]
    assert hop.coefficient == 1
    assert hop.factors == ((0, True), (-1, False), (2, False), (3, True))
    # the cross number-number term enters with coefficient -1
    assert hamiltonian_density(i)[4].coefficient == -1


def test_symmetry_report():
    m = build_supercharge((0, 1), "open")
    rep = symmetry_report(m)
    assert rep.number_commutes
    assert rep.parity_commutes
    # reported, not asserted; record the observed value for the finite window
    assert isinstance(rep.particle_hole_invariant, bool)


def test_spectrum_positive_and_paired():
    for n in (1, 2):
        m = build_supercharge((0, n), "open")
        rep = spectrum(m, "all")
        evals = np.array(rep.eigenvalues)
        assert evals.min() >= -1e-9
        # nonzero spectra of QQ* and Q*Q agree as multisets
        qqd = csr(m.Q @ m.Qdag).toarray()
        qdq = csr(m.Qdag @ m.Q).toarray()
        rank_q = integer_rank(rows_from_csr(csr(m.Q)))
        a = np.sort(np.linalg.eigvalsh(qqd))[m.window.dimension - rank_q :]
        b = np.sort(np.linalg.eigvalsh(qdq))[m.window.dimension - rank_q :]
        assert np.allclose(a, b, atol=1e-9)


def test_kernel_dimension_exact_vs_float():
    # exact nullity equals the count of numerically zero eigenvalues
    for n, mode in ((1, "open"), (2, "open"), (3, "open"), (3, "closed"), (4, "open")):
        if mode == "closed" and n < 2:
            continue
        m = build_supercharge((0, n), mode)
        rep = spectrum(m, "all")
        float_zeros = int((np.abs(np.array(rep.eigenvalues)) < 1e-8).sum())
        assert rep.kernel_dimension == float_zeros


def test_kernel_contains_classical_zero_modes():
    m = build_supercharge((0, 1), "open")
    rep = spectrum(m, "all")
    assert rep.kernel_dimension >= 2


def test_sector_spectrum_merging():
    m = build_supercharge((0, 1), "open")
    merged = np.array(spectrum(m, "all").eigenvalues)
    direct = np.linalg.eigvalsh(csr(m.H).toarray())
    assert np.allclose(np.sort(merged), np.sort(direct), atol=1e-9)
    # a single sector and sanity of the report payload
    rep = spectrum(m, 3)
    assert rep.sector == 3
    assert len(rep.eigenvalues) == 10  # C(5, 3)
    payload = rep.to_json()
    assert payload["interval"] == [0, 1] and payload["edge_mode"] == "open"
    with pytest.raises(ValueError):
        spectrum(m, 99)


@pytest.mark.parametrize("values", [
    [-0.0, 0.0, 0.0],
    [0.0, -0.0, 0.0, -0.0, -0.0],
    [5e-324, 5e-324, 1e16, 1e16, 1e16, 0.1 + 0.2, 0.1 + 0.2, -5e-324, -1e-300],
    [2.5],
    [],
])
def test_eigenvalue_text_is_json_dumps_and_str(values):
    # one text per run of a bit pattern, repeated, must write every value
    # exactly as json.dumps and str do; -0.0 keeps its sign
    rep = SpectrumReport((0, 1), "open", "all", tuple(values), 0)
    text = rep.eigenvalues_json()
    assert text == json.dumps(values, separators=(",", ":"))
    assert text[1:-1] == ",".join(map(str, values))
    rows = [("index", "eigenvalue")] + rep.to_csv_rows()
    assert rep.csv_text() == "\n".join(",".join(str(x) for x in row) for row in rows) + "\n"


def test_report_holds_one_read_only_array():
    m = build_supercharge((0, 1), "open")
    rep = spectrum(m, "all")
    assert rep.eigenvalues.dtype == np.float64 and not rep.eigenvalues.flags.writeable
    assert np.all(np.diff(rep.eigenvalues) >= 0)
    assert rep.to_json()["eigenvalues"] == rep.eigenvalues.tolist()
    assert json.loads(rep.eigenvalues_json()) == rep.to_json()["eigenvalues"]
    # equality compares the arrays; a given sequence becomes the same array
    copy = SpectrumReport((0, 1), "open", "all", rep.eigenvalues.tolist(), rep.kernel_dimension)
    assert copy == rep and not copy.eigenvalues.flags.writeable
    bumped = rep.eigenvalues.copy()
    bumped[-1] += 1
    assert SpectrumReport((0, 1), "open", "all", bumped, rep.kernel_dimension) != rep
    assert SpectrumReport((0, 1), "open", 3, rep.eigenvalues, rep.kernel_dimension) != rep
    assert bumped.flags.writeable  # the report freezes its view, not the caller's array


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_eigenvalue_text_refuses_non_finite_values(bad):
    rep = SpectrumReport((0, 1), "open", "all", (0.0, bad), 0)
    for write in (rep.eigenvalues_json, rep.csv_text):
        with pytest.raises(ValueError):
            write()


def _dense_sector_oracle(m, sector):
    """The earlier spectrum path, kept as an oracle: a dense ``eigvalsh`` of the
    whole particle-number sector and the exact nullity of ``[Q; Q*]`` on it."""
    states = np.arange(m.window.dimension, dtype=np.uint64)
    cols = np.flatnonzero(np.bitwise_count(states) == sector)
    block = csr(m.H)[cols][:, cols].toarray().astype(float)
    return np.linalg.eigvalsh(block), stacked_nullity([csr(m.Q), csr(m.Qdag)], cols)


@pytest.mark.parametrize(
    "mode,n", [("open", n) for n in (1, 2, 3, 4)] + [("closed", n) for n in (2, 3, 4, 5)]
)
def test_block_spectrum_matches_dense_sector_oracle(mode, n):
    m = build_supercharge((0, n), mode)
    merged, merged_kernel = [], 0
    for sector in range(m.window.size + 1):
        expected, kernel = _dense_sector_oracle(m, sector)
        rep = spectrum(m, sector)
        assert rep.kernel_dimension == kernel
        assert len(rep.eigenvalues) == expected.size
        assert np.max(np.abs(np.array(rep.eigenvalues) - np.sort(expected))) <= 1e-12
        merged.append(expected)
        merged_kernel += kernel
    rep = spectrum(m, "all")
    expected = np.sort(np.concatenate(merged))
    assert rep.kernel_dimension == merged_kernel
    assert len(rep.eigenvalues) == expected.size == m.window.dimension
    assert np.max(np.abs(np.array(rep.eigenvalues) - expected)) <= 1e-12


# Exact kernel dimensions of spectrum(..., "all") on [0..2n]: open n = 1..7 and
# closed n = 2..8.
OPEN_KERNELS = (20, 64, 208, 672, 2176, 7040, 22784)
CLOSED_KERNELS = (24, 80, 256, 832, 2688, 8704, 28160)


def _fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_kernel_dimension_closed_forms_observed():
    # observed on the pinned sizes, not proven: 2^(n+1) F(n+4) for the open
    # window and 2^(n+1) F(n+2) for the closed one
    assert OPEN_KERNELS == tuple(2 ** (n + 1) * _fibonacci(n + 4) for n in range(1, 8))
    assert CLOSED_KERNELS == tuple(2 ** (n + 1) * _fibonacci(n + 2) for n in range(2, 9))


@pytest.mark.parametrize(
    "mode,n,kernel",
    [("open", n, d) for n, d in zip(range(1, 8), OPEN_KERNELS)]
    + [("closed", n, d) for n, d in zip(range(2, 9), CLOSED_KERNELS)],
)
def test_kernel_dimension_table(mode, n, kernel):
    assert spectrum(build_supercharge((0, n), mode), "all").kernel_dimension == kernel


# Exact kernel dimension of spectrum(m, k) for each sector k = 0..size, as
# computed by the per-block integer_rank path before the batched ranks.
SECTOR_KERNELS = {
    ("open", 1): [1, 3, 6, 6, 3, 1],
    ("open", 2): [1, 4, 11, 16, 16, 11, 4, 1],
    ("open", 3): [1, 5, 17, 33, 48, 48, 33, 17, 5, 1],
    ("open", 4): [1, 6, 24, 58, 107, 140, 140, 107, 58, 24, 6, 1],
    ("open", 5): [1, 7, 32, 92, 203, 329, 424, 424, 329, 203, 92, 32, 7, 1],
    ("open", 6): [1, 8, 41, 136, 347, 668, 1039, 1280, 1280, 1039, 668, 347, 136, 41, 8, 1],
    ("closed", 2): [1, 4, 7, 7, 4, 1],
    ("closed", 3): [1, 5, 13, 21, 21, 13, 5, 1],
    ("closed", 4): [1, 6, 20, 42, 59, 59, 42, 20, 6, 1],
    ("closed", 5): [1, 7, 28, 72, 131, 177, 177, 131, 72, 28, 7, 1],
    ("closed", 6): [1, 8, 37, 112, 247, 412, 527, 527, 412, 247, 112, 37, 8, 1],
    ("closed", 7): [1, 9, 47, 163, 419, 827, 1285, 1601, 1601, 1285, 827, 419, 163, 47, 9, 1],
}


@pytest.mark.parametrize("mode,n", sorted(SECTOR_KERNELS))
def test_sector_kernel_tables_pinned(mode, n):
    m = build_supercharge((0, n), mode)
    table = [spectrum(m, k).kernel_dimension for k in range(m.window.size + 1)]
    assert table == SECTOR_KERNELS[mode, n]
    # sectors k and size - k agree, and the Witten index sum (-1)^k d_k is 0
    assert table == table[::-1]
    assert sum((-1) ** k * d for k, d in enumerate(table)) == 0
    total = OPEN_KERNELS[n - 1] if mode == "open" else CLOSED_KERNELS[n - 2]
    assert sum(table) == total


# Open n <= 7 and closed n <= 8: windows of up to 17 sites.
UP_TO_17_SITES = [("open", n) for n in range(1, 8)] + [("closed", n) for n in range(2, 9)]


@pytest.mark.parametrize("mode,n", UP_TO_17_SITES)
def test_batched_ranks_match_per_block_oracle(mode, n):
    m = build_supercharge((0, n), mode)
    for size, distinct, _ in _distinct_blocks(m.H, list(range(m.window.size + 1))):
        assert _psd_ranks(distinct).tolist() == block_ranks(distinct), size


@pytest.mark.parametrize("mode,n", UP_TO_17_SITES)
def test_h_matches_product_path_and_all_pairs_expansion(mode, n):
    # H is built from the term pairs that share a site; the pairs left out
    # cancel, as both the product path and the full expansion show
    m = build_supercharge((0, n), mode)
    assert m.H == anticommutator(m.Q, m.Qdag)
    assert m.H == expanded_h(m)


def test_spectrum_takes_no_row_elimination(monkeypatch):
    def refuse(rows):
        raise AssertionError("integer_rank called")

    monkeypatch.setattr(intrank, "integer_rank", refuse)
    rep = spectrum(build_supercharge((0, 3), "open"), "all")
    assert rep.kernel_dimension == OPEN_KERNELS[2]


def _assert_blocks_match_csgraph(op):
    from scipy.sparse.csgraph import connected_components

    dim = op.window.dimension
    count, components = connected_components(csr(op), directed=False)
    # both partitions, each block named by its lowest state
    lowest = np.full(count, dim)
    np.minimum.at(lowest, components, np.arange(dim))
    assert np.array_equal(_block_labels(op), lowest[components])


@pytest.mark.parametrize(
    "mode,n", [("open", n) for n in range(1, 7)] + [("closed", n) for n in range(2, 8)]
)
def test_block_labels_match_csgraph(mode, n):
    _assert_blocks_match_csgraph(build_supercharge((0, n), mode).H)


def test_block_labels_of_shuffled_paths_match_csgraph():
    # long paths through randomly ordered states need several hooking rounds
    rng = np.random.default_rng(5)
    window = SiteWindow(0, 7)
    for _ in range(20):
        order = rng.permutation(window.dimension)
        cuts = np.flatnonzero(rng.random(window.dimension - 1) < 0.02)
        links = np.setdiff1d(np.arange(window.dimension - 1), cuts)
        entries = {(int(order[i]), int(order[i + 1])): 1 for i in links}
        _assert_blocks_match_csgraph(IntegerSparseOperator.from_entries(window, entries))
