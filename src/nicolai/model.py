"""Supercharges, Hamiltonians and spectra for the Nicolai chain.

The chain's supercharge density sits on triplets centered at even sites:
``q(i) = c_{2i+1} c*_{2i} c_{2i-1}``.  On the interval ``I(k,l) = [2k..2l]``
two finite truncations are used:

* ``open`` edge mode: ``Q = sum_{i=k..l} q(i)`` on the enlarged window
  ``J(k,l) = [2k-1..2l+1]``,
* ``closed`` edge mode: ``Q = sum_{i=k+1..l-1} q(i)`` on ``I(k,l)`` itself
  (defined only when ``k+1 < l``).

Either way ``H = Q Q* + Q* Q`` closes the N=2 algebra exactly on the finite
window: ``Q`` is nilpotent, odd under ``(-1)**N``, and ``H`` commutes with
``Q``, ``Q*``, ``N`` and ``(-1)**N`` as integer matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Sequence, Tuple, Union

import numpy as np

from .fock import (
    FermionMonomial,
    IntegerSparseOperator,
    OperatorSum,
    SiteWindow,
    anticommutator,
    build_matrix,
)
from .intrank import integer_rank

__all__ = [
    "Interval",
    "ModelOperators",
    "SpectrumReport",
    "supercharge_term",
    "build_supercharge",
    "spectrum",
]


@dataclass(frozen=True, order=True)
class Interval:
    """Index pair ``k < l`` labelling the even-edged interval ``[2k..2l]``."""

    k: int
    l: int

    def __post_init__(self):
        if self.k >= self.l:
            raise ValueError(f"interval requires k < l, got ({self.k}, {self.l})")

    @property
    def inner(self) -> SiteWindow:
        """``I(k,l) = [2k..2l]``, 2(l-k)+1 sites."""
        return SiteWindow(2 * self.k, 2 * self.l)

    @property
    def enlarged(self) -> SiteWindow:
        """``J(k,l) = [2k-1..2l+1]``, the inner window plus one odd site per edge."""
        return SiteWindow(2 * self.k - 1, 2 * self.l + 1)


def supercharge_term(i: int) -> FermionMonomial:
    """The local supercharge ``q(i) = c_{2i+1} c*_{2i} c_{2i-1}``."""
    return FermionMonomial(1, ((2 * i + 1, False), (2 * i, True), (2 * i - 1, False)))


@dataclass(frozen=True)
class ModelOperators:
    """Supercharge pair and Hamiltonian built on a working window."""

    interval: Interval
    edge_mode: str
    window: SiteWindow
    terms: Tuple[FermionMonomial, ...]
    Q: IntegerSparseOperator
    Qdag: IntegerSparseOperator
    H: IntegerSparseOperator


@lru_cache(maxsize=None)
def _build_supercharge_cached(k: int, l: int, edge_mode: str) -> ModelOperators:
    interval = Interval(k, l)
    if edge_mode == "open":
        window = interval.enlarged
        indices = range(k, l + 1)
    elif edge_mode == "closed":
        if k + 1 >= l:
            raise ValueError("closed edge mode requires k + 1 < l")
        window = interval.inner
        indices = range(k + 1, l)
    else:
        raise ValueError(f"edge_mode must be 'open' or 'closed', got {edge_mode!r}")
    terms = tuple(supercharge_term(i) for i in indices)
    q = build_matrix(OperatorSum(terms), window)
    qdag = q.adjoint()
    h = anticommutator(q, qdag)
    return ModelOperators(interval, edge_mode, window, terms, q, qdag, h)


def build_supercharge(interval: Union[Interval, Tuple[int, int]], edge_mode: str) -> ModelOperators:
    """Construct (and memoize) the finite-interval supercharges and Hamiltonian."""
    if not isinstance(interval, Interval):
        interval = Interval(*interval)
    return _build_supercharge_cached(interval.k, interval.l, edge_mode)


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues and exact kernel dimension of a sector (or the whole space)."""

    interval: Tuple[int, int]
    edge_mode: str
    sector: Union[int, str]
    eigenvalues: Tuple[float, ...]
    kernel_dimension: int

    def to_json(self) -> dict:
        return {
            "interval": list(self.interval),
            "edge_mode": self.edge_mode,
            "sector": self.sector,
            "eigenvalues": list(self.eigenvalues),
            "kernel_dimension": self.kernel_dimension,
        }

    def to_csv_rows(self) -> List[Tuple[int, float]]:
        return list(enumerate(self.eigenvalues))


def _block_labels(h: IntegerSparseOperator) -> np.ndarray:
    """Label each basis state with the lowest state of its connected block.

    The blocks are the connected components of the nonzero pattern of ``h``,
    read as an undirected graph.  Each round hooks every edge's two root
    labels onto the smaller one, then jumps pointers until each label is a
    root.  Labels only decrease and stay inside their block, so the fixed
    point, where every edge joins equal labels, gives each block its lowest
    state.
    """
    labels = np.arange(h.window.dimension, dtype=np.int64)
    rows, cols = h.rows, h.cols
    while True:
        lr, lc = labels[rows], labels[cols]
        low = np.minimum(lr, lc)
        hooked = labels.copy()
        np.minimum.at(hooked, lr, low)
        np.minimum.at(hooked, lc, low)
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        if np.array_equal(hooked, labels):
            return labels
        labels = hooked


def _distinct_blocks(
    h: IntegerSparseOperator, sectors: Sequence[int]
) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
    """The connected blocks of ``H`` inside ``sectors``, grouped by size.

    Yields ``(size, distinct, counts)``: the distinct integer blocks of that
    size, stacked as ``(d, size, size)`` int64 with each block's states in
    ascending order, and how many blocks equal each one.  ``H`` conserves
    particle number, so every block lies inside one sector.
    """
    lowest, labels = np.unique(_block_labels(h), return_inverse=True)
    n_blocks, dim = lowest.size, labels.size
    sizes = np.bincount(labels, minlength=n_blocks)
    order = np.argsort(labels, kind="stable")  # states by block, ascending within
    starts = np.cumsum(sizes) - sizes
    pos = np.empty(dim, dtype=np.int64)
    pos[order] = np.arange(dim) - starts[labels[order]]
    wanted = np.isin(np.bitwise_count(lowest), sectors)
    rows, cols = h.rows, h.cols
    entry_block = labels[rows]
    entry_size = np.where(wanted[entry_block], sizes[entry_block], 0)
    for size in np.unique(sizes[wanted]).tolist():
        members = np.flatnonzero(wanted & (sizes == size))
        slot = np.empty(n_blocks, dtype=np.int64)
        slot[members] = np.arange(members.size)
        keep = np.flatnonzero(entry_size == size)
        stack = np.zeros((members.size, size, size), dtype=np.int64)
        stack[slot[entry_block[keep]], pos[rows[keep]], pos[cols[keep]]] = h.vals[keep]
        # one opaque key per block: a byte sort, not a structured-row sort
        keys = stack.reshape(members.size, -1).view(np.dtype((np.void, stack[0].nbytes)))
        distinct, counts = np.unique(keys.ravel(), return_counts=True)
        yield size, distinct.view(np.int64).reshape(-1, size, size), counts


def spectrum(m: ModelOperators, sector: Union[int, str] = "all") -> SpectrumReport:
    """Eigenvalues (dense, per distinct connected block) plus exact kernel dimension.

    ``H`` splits into many small connected blocks, most of them repeated, so
    each distinct block is diagonalized once (batched by size) and its
    eigenvalues are repeated by multiplicity.  ``H`` is positive semidefinite,
    so its kernel is the joint kernel of ``Q`` and ``Q*``; the kernel
    dimension sums ``size - rank`` of each distinct integer block, with the
    rank computed exactly.
    """
    size = m.window.size
    if sector == "all":
        sectors = range(size + 1)
    else:
        sector = int(sector)
        if not 0 <= sector <= size:
            raise ValueError(f"sector {sector} exceeds window size {size}")
        sectors = [sector]
    eigs = []
    kdim = 0
    for block_size, distinct, counts in _distinct_blocks(m.H, list(sectors)):
        values = np.linalg.eigvalsh(distinct.astype(float))
        eigs.append(np.repeat(values, counts, axis=0).ravel())
        for block, count in zip(distinct.tolist(), counts.tolist()):
            rows = [{c: v for c, v in enumerate(row) if v} for row in block]
            kdim += count * (block_size - integer_rank(rows))
    label: Union[int, str] = "all" if sector == "all" else int(sector)
    return SpectrumReport(
        interval=(m.interval.k, m.interval.l),
        edge_mode=m.edge_mode,
        sector=label,
        eigenvalues=tuple(np.sort(np.concatenate(eigs)).tolist()),
        kernel_dimension=kdim,
    )
