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
    SiteWindow,
    build_matrix,
)
from .intrank import _psd_ranks

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
    q = build_matrix(terms, window)
    # q(i) and q(j)* act on disjoint sites when |i - j| >= 2, so they
    # anticommute and cancel in H = {Q, Q*}: only pairs sharing a site remain
    near = [(x, y.adjoint()) for s, x in enumerate(terms) for y in terms[max(s - 1, 0) : s + 2]]
    h = build_matrix([FermionMonomial(a.coefficient * b.coefficient, a.factors + b.factors)
                      for x, y in near for a, b in ((x, y), (y, x))], window)
    return ModelOperators(interval, edge_mode, window, terms, q, q.adjoint(), h)


def build_supercharge(interval: Union[Interval, Tuple[int, int]], edge_mode: str) -> ModelOperators:
    """Construct (and memoize) the finite-interval supercharges and Hamiltonian."""
    if not isinstance(interval, Interval):
        interval = Interval(*interval)
    return _build_supercharge_cached(interval.k, interval.l, edge_mode)


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues and exact kernel dimension of a sector (or the whole space);
    ``eigenvalues`` is kept as one read-only float64 array, sorted by ``spectrum``."""

    interval: Tuple[int, int]
    edge_mode: str
    sector: Union[int, str]
    eigenvalues: np.ndarray
    kernel_dimension: int

    def __post_init__(self):
        values = np.asarray(self.eigenvalues, dtype=np.float64).view()
        values.flags.writeable = False
        object.__setattr__(self, "eigenvalues", values)

    def __eq__(self, other):
        if not isinstance(other, SpectrumReport):
            return NotImplemented
        # the same layout, with the eigenvalue arrays compared apart
        same_layout = self.to_json(()) == other.to_json(())
        return same_layout and np.array_equal(self.eigenvalues, other.eigenvalues)

    def to_json(self, eigenvalues=None) -> dict:
        """The report as a JSON object; ``eigenvalues`` stands in for their list."""
        return {
            "interval": list(self.interval),
            "edge_mode": self.edge_mode,
            "sector": self.sector,
            "eigenvalues": self.eigenvalues.tolist() if eigenvalues is None else eigenvalues,
            "kernel_dimension": self.kernel_dimension,
        }

    def to_csv_rows(self) -> List[Tuple[int, float]]:
        return list(enumerate(self.eigenvalues.tolist()))

    def eigenvalues_json(self) -> str:
        """The compact JSON array of the eigenvalues, as ``json.dumps`` writes
        it, formatting each distinct value once."""
        texts, lengths = _float_runs(self.eigenvalues)
        return "[" + "".join((t + ",") * k for t, k in zip(texts, lengths))[:-1] + "]"

    def csv_text(self) -> str:
        """The ``index,eigenvalue`` table of ``to_csv_rows`` as CSV text,
        header first, formatting each distinct value once."""
        parts, start = ["index,eigenvalue\n"], 0
        for text, k in zip(*_float_runs(self.eigenvalues)):
            sep = f",{text}\n"  # each row of a run ends in its value
            parts.append(sep.join(map(str, range(start, start + k))) + sep)
            start += k
        return "".join(parts)


def _float_runs(a: np.ndarray) -> Tuple[List[str], List[int]]:
    """Split the finite float64 array ``a`` into runs of one bit pattern: each
    run's text and its length.

    Runs compare bits, not values, so ``-0.0`` and ``0.0`` never merge.  The
    text is ``repr``, which is also what ``json.dumps`` and ``str`` write for
    a finite float.
    """
    bits = a.view(np.int64)
    new = np.empty(a.size, dtype=bool)
    new[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    firsts = a[starts]
    if not np.isfinite(firsts).all():
        raise ValueError("eigenvalues must be finite")
    lengths = np.diff(starts, append=a.size)
    return list(map(repr, firsts.tolist())), lengths.tolist()


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
    for size in np.flatnonzero(np.bincount(sizes[wanted])).tolist():
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
        kdim += int(counts @ (block_size - _psd_ranks(distinct)))
    return SpectrumReport(
        interval=(m.interval.k, m.interval.l),
        edge_mode=m.edge_mode,
        sector=sector,
        eigenvalues=np.sort(np.concatenate(eigs)),
        kernel_dimension=kdim,
    )
