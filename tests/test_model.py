"""Finite-interval supercharges, Hamiltonians, symmetries and spectra."""

import numpy as np
import pytest

from nicolai.fock import (
    IntegerSparseOperator,
    SiteWindow,
    anticommutator,
    build_matrix,
    commutator,
    number_operator,
    parity_operator,
)
from nicolai.intrank import integer_rank, rows_from_csr
from nicolai.model import Interval, build_supercharge, spectrum, supercharge_term
from nicolai.model import _block_labels
from oracles import (
    bulk_term_crosscheck,
    diagonal_density,
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
    doc = q0.to_json()
    assert doc["coefficient"] == -1
    assert [(f["site"], f["dagger"]) for f in doc["factors"]] == [
        (-1, False), (0, True), (1, False)
    ]
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
    tampered = [t.scaled(-1) if t.coefficient < 0 else t for t in terms]
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
