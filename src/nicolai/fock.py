"""Exact fermion Fock-space algebra on a finite window of lattice sites.

Conventions, fixed once and used everywhere:

* A window ``[lo..hi]`` has ``size = hi - lo + 1`` sites; site ``lo + p`` maps
  to bit position ``p`` and a basis configuration packs to the integer
  ``sum(bit_p << p)``.  Configuration strings read left-to-right from the
  lowest site, so ``"00011"`` occupies the two highest sites of a five-site
  window.
* A ladder operator at site ``s`` acting on a configuration picks up the
  Jordan-Wigner sign ``(-1)**(number of occupied sites with index < s inside
  the window)``.  With this choice the increasing-order product of creation
  operators over any configuration maps the Fock vacuum to that basis vector
  with sign ``+1``.
* Monomial factors are stored in operator-product order: ``factors[0]`` is the
  leftmost factor and therefore acts *last*; application walks the tuple from
  the right.  ``FermionMonomial.increasing`` accepts the natural left-to-right
  increasing-site notation and records it faithfully.
* All matrix algebra is exact integer arithmetic.  Matrices are stored as
  sorted int64 arrays of packed positions and values.  Every operation, and
  every construction from given entries, certifies an a-priori magnitude
  bound below ``2**62`` first and raises ``OverflowError`` when the bound
  fails, so no operation ever overflows silently.

Zero results (annihilated vectors, empty matrices) are ordinary values, never
errors.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Tuple

import numpy as np

from .kernels import closed_form

__all__ = [
    "SiteWindow",
    "OccupationConfig",
    "FermionMonomial",
    "FockVector",
    "IntegerSparseOperator",
    "apply_ladder",
    "apply_monomial",
    "build_matrix",
    "anticommutator",
    "commutator",
    "number_operator",
    "parity_operator",
]

# int64 arithmetic is exact below this bound; an operation that cannot certify
# it raises OverflowError.
_INT64_SAFE = 1 << 62
# The packed key ``col * dim + row`` must fit in int64 (else OverflowError).
_MAX_SIZE = 31
# Entries sorted at once by a sum, and products expanded at once by a product.
_CHUNK = 1 << 18


@dataclass(frozen=True, order=True)
class SiteWindow:
    """A contiguous block of lattice sites ``[lo..hi]`` (inclusive)."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty window [{self.lo}..{self.hi}]")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    @property
    def dimension(self) -> int:
        return 1 << self.size

    @property
    def sites(self) -> range:
        return range(self.lo, self.hi + 1)

    def contains(self, site: int) -> bool:
        return self.lo <= site <= self.hi

    def bit(self, site: int) -> int:
        """Bit position of ``site``; raises if the site is outside."""
        if not self.contains(site):
            raise ValueError(f"site {site} outside window [{self.lo}..{self.hi}]")
        return site - self.lo


@dataclass(frozen=True)
class OccupationConfig:
    """A {0,1} assignment on a window, packed into the integer ``occ``."""

    window: SiteWindow
    occ: int

    def __post_init__(self):
        object.__setattr__(self, "occ", operator.index(self.occ))
        if not 0 <= self.occ < self.window.dimension:
            raise ValueError(f"occupation {self.occ} outside window dimension")

    @classmethod
    def from_bits(cls, window: SiteWindow, bits: Iterable[int]) -> "OccupationConfig":
        bits = tuple(bits)
        if len(bits) != window.size:
            raise ValueError("one bit per site required")
        occ = 0
        for p, b in enumerate(bits):
            if b not in (0, 1):
                raise ValueError("bits must be 0 or 1")
            occ |= b << p
        return cls(window, occ)

    @classmethod
    def from_string(cls, window: SiteWindow, text: str) -> "OccupationConfig":
        if not text.isascii():  # int() reads every Unicode decimal digit
            raise ValueError("bits must be 0 or 1")
        return cls.from_bits(window, (int(ch) for ch in text))

    @property
    def bits(self) -> Tuple[int, ...]:
        return tuple((self.occ >> p) & 1 for p in range(self.window.size))

    def bit(self, site: int) -> int:
        return (self.occ >> self.window.bit(site)) & 1

    def to_string(self) -> str:
        return "".join(str(b) for b in self.bits)


def apply_ladder(config: OccupationConfig, site: int, dagger: bool):
    """Act with ``c*_site`` (``dagger=True``) or ``c_site`` on a configuration.

    Returns ``(new_config, sign)`` or ``None`` when the state is annihilated
    (creating on an occupied site / annihilating an empty one).
    """
    p = config.window.bit(site)
    occupied = (config.occ >> p) & 1
    if dagger == bool(occupied):
        return None
    below = config.occ & ((1 << p) - 1)
    sign = -1 if below.bit_count() & 1 else 1
    return OccupationConfig(config.window, config.occ ^ (1 << p)), sign


@dataclass(frozen=True)
class FermionMonomial:
    """Integer multiple of an ordered product of ladder operators.

    ``factors`` holds ``(site, dagger)`` pairs in operator-product order;
    duplicates are allowed in storage (such a monomial is simply the zero
    matrix).  The empty tuple is the identity.
    """

    coefficient: int
    factors: Tuple[Tuple[int, bool], ...]

    def __post_init__(self):
        factors = tuple((operator.index(s), bool(d)) for s, d in self.factors)
        object.__setattr__(self, "coefficient", operator.index(self.coefficient))
        object.__setattr__(self, "factors", factors)

    @classmethod
    def increasing(cls, factors, coefficient: int = 1) -> "FermionMonomial":
        """Product written left-to-right in strictly increasing site order.

        This is the natural notation for configuration and charge products;
        the rightmost (highest-site) factor acts first.
        """
        factors = tuple(factors)
        sites = [s for s, _ in factors]
        if any(a >= b for a, b in zip(sites, sites[1:])):
            raise ValueError("sites must be strictly increasing")
        return cls(coefficient, factors)

    @property
    def degree(self) -> int:
        return len(self.factors)

    def adjoint(self) -> "FermionMonomial":
        """Conjugate transpose: reversed factor order with daggers toggled."""
        return FermionMonomial(
            self.coefficient, tuple((s, not d) for s, d in reversed(self.factors))
        )


@dataclass(frozen=True)
class FockVector:
    """Exact integer-amplitude vector on the Fock space of a window.

    ``amplitudes`` maps basis index to a nonzero integer; the zero vector is
    the empty map.
    """

    window: SiteWindow
    amplitudes: Mapping[int, int]

    def __post_init__(self):
        amplitudes = {operator.index(i): operator.index(a) for i, a in self.amplitudes.items() if a}
        object.__setattr__(self, "amplitudes", amplitudes)

    @classmethod
    def zero(cls, window: SiteWindow) -> "FockVector":
        return cls(window, {})

    @classmethod
    def from_config(cls, config: OccupationConfig, amplitude: int = 1) -> "FockVector":
        return cls(config.window, {config.occ: amplitude})

    def is_zero(self) -> bool:
        return not self.amplitudes

    def classical_config(self) -> Optional[Tuple[OccupationConfig, int]]:
        """If the vector is ``sign * |config>``, return ``(config, sign)``."""
        if len(self.amplitudes) != 1:
            return None
        ((idx, amp),) = self.amplitudes.items()
        if amp not in (1, -1):
            return None
        return OccupationConfig(self.window, idx), amp


def apply_monomial(m: FermionMonomial, v: FockVector) -> FockVector:
    """Apply a ladder monomial to a vector; factors act right to left."""
    out: dict = {}
    for idx, amp in v.amplitudes.items():
        cfg = OccupationConfig(v.window, idx)
        sign = 1
        for site, dagger in reversed(m.factors):
            step = apply_ladder(cfg, site, dagger)
            if step is None:
                sign = 0
                break
            cfg, s = step
            sign *= s
        if sign:
            out[cfg.occ] = out.get(cfg.occ, 0) + m.coefficient * sign * amp
    return FockVector(v.window, out)


class IntegerSparseOperator:
    """Exact integer matrix of an operator on the Fock space of a window.

    Columns follow the basis packing of the window: column ``j`` is the image
    of basis configuration ``j``.  The nonzero entries are two int64 arrays in
    canonical form: ``key = col * dim + row``, strictly increasing (so sorted
    by column, then row), and ``vals``, with no zeros.  Equal operators
    therefore have equal arrays.  Every operation certifies a sound int64
    magnitude bound on its result, or raises ``OverflowError``.
    """

    __slots__ = ("window", "key", "vals")

    def __init__(self, window: SiteWindow, key, vals):
        """Operator with entries ``vals`` at packed positions ``key``.

        Keys may come in any order and repeat: repeated keys are summed and
        zero entries dropped.  Every key must lie in ``[0, dim**2)``, and every
        entry, and with repeated keys every sum, must be certified below
        ``_INT64_SAFE`` in magnitude.
        """
        if window.size > _MAX_SIZE:
            raise OverflowError(f"window of {window.size} sites is too large for packed keys")
        key, vals = _int64(key), _int64(vals)
        if (key >> (2 * window.size)).any():
            raise ValueError("operator position outside the window")
        bound = _bound(vals)
        if bound >= _INT64_SAFE or (
            bound * vals.size >= _INT64_SAFE and not np.diff(np.sort(key)).all()
        ):
            raise OverflowError("operator entries exceed the certified int64 range")
        self.window = window
        self.key, self.vals = _canonical(key, vals)

    @classmethod
    def _wrap(cls, window: SiteWindow, key: np.ndarray, vals: np.ndarray):
        """Operator from arrays already in canonical form, possibly wide."""
        op = cls.__new__(cls)
        op.window, op.key, op.vals = window, key, vals
        return op

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, window: SiteWindow) -> "IntegerSparseOperator":
        return cls(window, (), ())

    @classmethod
    def diagonal(cls, window: SiteWindow, diag) -> "IntegerSparseOperator":
        diag = _int64(diag)
        if diag.size != window.dimension:
            raise ValueError(f"a diagonal on this window has {window.dimension} entries")
        return cls(window, np.arange(diag.size, dtype=np.int64) * (window.dimension + 1), diag)

    @classmethod
    def from_entries(cls, window: SiteWindow, entries: Mapping[Tuple[int, int], int]):
        rows, cols = _int64([r for r, _ in entries]), _int64([c for _, c in entries])
        vals = _int64(list(entries.values()))
        # checked apart, as row dim of col 0 would pack to the in-range key dim
        if ((rows | cols) >> window.size).any():
            raise ValueError("operator position outside the window")
        return cls(window, (cols << window.size) | rows, vals)

    # -- inspection ----------------------------------------------------------

    @property
    def rows(self) -> np.ndarray:
        return self.key & (self.window.dimension - 1)

    @property
    def cols(self) -> np.ndarray:
        return self.key >> self.window.size

    @property
    def nnz(self) -> int:
        return self.key.size

    def entry_bound(self) -> int:
        return _bound(self.vals)

    def entries(self) -> dict:
        return dict(zip(zip(self.rows.tolist(), self.cols.tolist()), self.vals.tolist()))

    def is_zero(self) -> bool:
        return self.key.size == 0

    def __eq__(self, other):
        if not isinstance(other, IntegerSparseOperator):
            return NotImplemented
        return (
            self.window == other.window
            and np.array_equal(self.key, other.key)
            and np.array_equal(self.vals, other.vals)
        )

    # -- exact arithmetic ----------------------------------------------------

    def _check_window(self, other: "IntegerSparseOperator"):
        if self.window != other.window:
            raise ValueError("window mismatch")

    def __add__(self, other: "IntegerSparseOperator") -> "IntegerSparseOperator":
        self._check_window(other)
        if self.entry_bound() + other.entry_bound() >= _INT64_SAFE:
            raise OverflowError("operator sum exceeds the certified int64 range")
        key, vals = _assemble(_sum_pieces(self, other))
        return IntegerSparseOperator._wrap(self.window, key, vals)

    def __sub__(self, other: "IntegerSparseOperator") -> "IntegerSparseOperator":
        return self + other.scaled(-1)

    def __neg__(self) -> "IntegerSparseOperator":
        return self.scaled(-1)

    def scaled(self, c: int) -> "IntegerSparseOperator":
        c = operator.index(c)
        # a unit multiple keeps every entry's magnitude, which is certified
        if abs(c) > 1 and abs(c) * max(self.entry_bound(), 1) >= _INT64_SAFE:
            raise OverflowError("scalar multiple exceeds the certified int64 range")
        if c == 0:
            return IntegerSparseOperator.zero(self.window)
        return IntegerSparseOperator._wrap(self.window, self.key, self.vals * np.int64(c))

    def transpose(self) -> "IntegerSparseOperator":
        """The transpose; a wide operator (see ``_build_stack``) has each of
        its blocks transposed in place."""
        size, mask, key = self.window.size, self.window.dimension - 1, self.key
        flipped = (key >> (2 * size) << (2 * size)) | (key & mask) << size | (key >> size) & mask
        return IntegerSparseOperator._wrap(self.window, *_canonical(flipped, self.vals))

    # Entries are integers, so the adjoint is the transpose.
    adjoint = transpose

    def __matmul__(self, other: "IntegerSparseOperator") -> "IntegerSparseOperator":
        """The exact product; ``other`` may be wide (see ``_build_stack``), and
        ``a @ [b_0 | b_1 | ...]`` is ``[a b_0 | a b_1 | ...]``; a wide ``a``
        raises ``ValueError``.

        Raises ``OverflowError`` unless int64 holds every entry and partial
        sum: an entry sums at most ``dim`` terms, so ``dim * |a| * max |b|``
        must lie below ``_INT64_SAFE``.
        """
        self._check_window(other)
        if self.key.size and self.key[-1] >> (2 * self.window.size):
            raise ValueError("a wide operator is only a right factor")
        if self.window.dimension * self.entry_bound() * other.entry_bound() >= _INT64_SAFE:
            raise OverflowError("operator product exceeds the certified int64 range")
        key, vals = _assemble(_product_pieces(self, other))
        return IntegerSparseOperator._wrap(self.window, key, vals)

    def apply(self, v: FockVector) -> FockVector:
        """Exact matrix-vector product (big-integer arithmetic); a wide operator
        raises ``ValueError``."""
        if v.window != self.window:
            raise ValueError("window mismatch")
        if self.key.size and self.key[-1] >> (2 * self.window.size):
            raise ValueError("a wide operator acts on no vector")
        size = self.window.size
        cols = np.fromiter(v.amplitudes, dtype=np.int64, count=len(v.amplitudes))
        lo = np.searchsorted(self.key, cols << size).tolist()
        hi = np.searchsorted(self.key, (cols + 1) << size).tolist()
        mask = self.window.dimension - 1
        out: dict = {}
        for amp, a, b in zip(v.amplitudes.values(), lo, hi):
            for i, x in zip((self.key[a:b] & mask).tolist(), self.vals[a:b].tolist()):
                out[i] = out.get(i, 0) + x * amp
        return FockVector(self.window, out)


def _int64(values) -> np.ndarray:
    """``values`` as an int64 array.  A value that is not an integer raises
    ``TypeError``, where a conversion would truncate it, and an integer
    beyond int64 raises ``OverflowError``."""
    array = np.asarray(values)
    if array.dtype.kind == "O":  # Python integers beyond int64, or other objects
        array = np.frompyfunc(operator.index, 1, 1)(array)
    elif array.size and array.dtype.kind not in "iub":
        raise TypeError(f"integer entries required, got {array.dtype}")
    elif array.dtype.kind == "u" and array.size and array.max() > np.iinfo(np.int64).max:
        raise OverflowError("integer entries beyond int64")
    return np.asarray(array, dtype=np.int64)


def _bound(vals: np.ndarray) -> int:
    """The largest magnitude in ``vals`` (0 when empty), read from its extremes,
    since ``np.abs`` wraps ``-2**63``."""
    return max(-int(vals.min()), int(vals.max())) if vals.size else 0


def _canonical(key: np.ndarray, vals: np.ndarray):
    """Sort packed keys, sum the values of repeated keys and drop zeros."""
    if key.size > 1 and not (key[1:] > key[:-1]).all():
        order = np.argsort(key, kind="stable")
        key, vals = key[order], vals[order]
        first = np.empty(key.size, dtype=bool)
        first[0] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        key, vals = key[starts], np.add.reduceat(vals, starts)
    keep = vals != 0
    if keep.all():
        return key, vals
    return key[keep], vals[keep]


def _assemble(pieces):
    """Canonical ``(key, vals)`` of pieces whose key ranges are disjoint and
    ascending; each piece is made canonical before the next one is drawn."""
    keys, vals = [], []
    for key, val in pieces:
        key, val = _canonical(key, val)
        keys.append(key)
        vals.append(val)
    if len(keys) == 1:
        return keys[0], vals[0]
    return np.concatenate(keys), np.concatenate(vals)


def _sum_pieces(a: IntegerSparseOperator, b: IntegerSparseOperator):
    """The entries of ``a`` and ``b`` in key ranges of about ``_CHUNK`` entries of ``a``."""
    a_cuts = list(range(_CHUNK, a.nnz, _CHUNK))
    b_cuts = np.searchsorted(b.key, a.key[a_cuts]).tolist()
    a_edges, b_edges = [0, *a_cuts, a.nnz], [0, *b_cuts, b.nnz]
    for a0, a1, b0, b1 in zip(a_edges, a_edges[1:], b_edges, b_edges[1:]):
        yield (
            np.concatenate((a.key[a0:a1], b.key[b0:b1])),
            np.concatenate((a.vals[a0:a1], b.vals[b0:b1])),
        )


def _max_blocks(window: SiteWindow) -> int:
    """How many blocks a wide matrix on ``window`` holds: block ``t`` adds
    ``t << 2 * size`` to its packed keys, which must stay below ``2**62``."""
    return 1 << (62 - 2 * window.size)


def _product_pieces(a: IntegerSparseOperator, b: IntegerSparseOperator):
    """The terms of ``a @ b`` as packed keys and int64 values, for a square
    ``a`` and a possibly wide ``b``.

    Every entry ``(k, j)`` of ``b`` pairs with the whole column ``k`` of ``a``,
    a contiguous run of ``a.key``.  ``b``'s columns are expanded in chunks of
    about ``_CHUNK`` products, so memory stays bounded; a chunk holds whole
    columns of the result, so the chunks' key ranges are disjoint and
    ascending.
    """
    if b.nnz == 0:
        yield b.key, b.vals
        return
    size = a.window.size
    b_rows, b_cols, b_vals = b.rows, b.cols, b.vals
    a_col_nnz = np.bincount(a.cols, minlength=a.window.dimension)
    counts = a_col_nnz[b_rows]
    lo = np.cumsum(a_col_nnz)[b_rows] - counts  # where column b_rows of a starts
    ahead = np.cumsum(counts) - counts  # products ahead of each entry of b
    total = int(ahead[-1] + counts[-1])
    edges = [0, b_cols.size]
    if total > _CHUNK:
        col_starts = np.flatnonzero(np.diff(b_cols, prepend=-1))
        marks = np.arange(_CHUNK, total, _CHUNK)
        cuts = col_starts[np.searchsorted(ahead[col_starts], marks, side="right") - 1]
        cuts = cuts[cuts > 0]  # ascending, as the marks are
        edges = [0, *cuts[np.diff(cuts, prepend=0) > 0].tolist(), b_cols.size]
    a_rows = a.rows
    for s, e in zip(edges, edges[1:]):
        n = counts[s:e]
        # index into a of each product: the start of its column plus its offset
        first = int(ahead[s])
        idx = np.arange(first, first + int(n.sum())) + np.repeat(lo[s:e] - ahead[s:e], n)
        yield (
            np.repeat(b_cols[s:e] << size, n) | a_rows[idx],
            a.vals[idx] * np.repeat(b_vals[s:e], n),
        )


def _free_states(free: int) -> np.ndarray:
    """Every integer whose set bits all lie in the mask ``free``, ascending.

    Each run of adjacent free bits lies above the runs before it, so taking
    its values as the high part keeps the order.
    """
    states = np.zeros(1, dtype=np.int64)
    while free:
        low = (free & -free).bit_length() - 1
        run = ((free >> low) + 1 & ~(free >> low)).bit_length() - 1
        states = ((np.arange(1 << run, dtype=np.int64) << low)[:, None] | states).ravel()
        free &= ~(((1 << run) - 1) << low)
    return states


def _closed_form_entries(monomials, window: SiteWindow):
    """The entries of each monomial's matrix on ``window``, block after block,
    as ``(key, vals, counts)``: packed keys ``col * dim + row``, ascending
    inside each block, and the number of entries of each block.

    By its ``kernels.closed_form``, a monomial keeps exactly the columns whose
    support bits equal ``required``: ``required`` plus every value of the free
    bits, which ``_free_states`` lists in ascending order.  Each column has one
    entry, so a block costs its nonzeros, never the whole window.  Zero
    products and zero coefficients give empty blocks.
    """
    size = window.size
    if size > _MAX_SIZE:
        raise OverflowError(f"window of {size} sites is too large for packed keys")
    if any(abs(m.coefficient) >= _INT64_SAFE for m in monomials):
        raise OverflowError("operator coefficients exceed the certified int64 range")
    frees: dict = {}
    counts, columns, forms = [], [], []
    for m in monomials:
        form = None
        if m.coefficient:
            form = closed_form([(window.bit(s), d) for s, d in reversed(m.factors)])
        if form is None:
            counts.append(0)
            continue
        support, required, flip, const, parity = form
        free = (window.dimension - 1) & ~support
        if free not in frees:
            frees[free] = _free_states(free)
        columns.append(frees[free])
        counts.append(columns[-1].size)
        forms.append((required, flip, parity, const * m.coefficient))
    if not forms:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, counts
    live = [c for c in counts if c]
    required, flip, parity, scale = (np.repeat(x, live) for x in np.array(forms).T)
    cols = np.concatenate(columns) | required
    odd = (np.bitwise_count(cols & parity) & 1).astype(np.int64)
    return cols << size | cols ^ flip, scale * (1 - 2 * odd), counts


def _build_stack(monomials, window: SiteWindow) -> IntegerSparseOperator:
    """The wide operator ``[m_0 | m_1 | ...]`` of the monomials' matrices on
    ``window``.

    Block ``t`` holds ``m_t``'s packed keys plus ``t << 2 * size``: its columns
    are ``t * dim`` on, and the blocks follow each other in key order.  Each
    block comes out of its closed form already sorted, so nothing is sorted.
    More blocks than ``_max_blocks`` raise ``OverflowError``, as does a
    coefficient that is not certified.
    """
    if len(monomials) > _max_blocks(window):
        raise OverflowError(f"{len(monomials)} blocks do not fit a window of {window.size} sites")
    key, vals, counts = _closed_form_entries(monomials, window)
    blocks = np.arange(len(monomials), dtype=np.int64) << (2 * window.size)
    return IntegerSparseOperator._wrap(window, key | np.repeat(blocks, counts), vals)


def build_matrix(op, window: SiteWindow) -> IntegerSparseOperator:
    """Exact matrix of a monomial, or of the sum of an iterable of monomials,
    on a window.

    Column ``j`` holds the image of basis configuration ``j``.  The checked
    constructor folds the terms' blocks of ``_closed_form_entries`` into one
    matrix; a single block is already canonical, so nothing is sorted.
    """
    terms = (op,) if isinstance(op, FermionMonomial) else tuple(op)
    if sum(abs(t.coefficient) for t in terms) >= _INT64_SAFE:
        raise OverflowError("operator coefficients exceed the certified int64 range")
    key, vals, _ = _closed_form_entries(terms, window)
    return IntegerSparseOperator(window, key, vals)


def commutator(a: IntegerSparseOperator, b: IntegerSparseOperator) -> IntegerSparseOperator:
    return a @ b - b @ a


def anticommutator(a: IntegerSparseOperator, b: IntegerSparseOperator) -> IntegerSparseOperator:
    return a @ b + b @ a


def _popcounts(window: SiteWindow) -> np.ndarray:
    states = np.arange(window.dimension, dtype=np.uint64)
    return np.bitwise_count(states).astype(np.int64)


def number_operator(window: SiteWindow) -> IntegerSparseOperator:
    """Diagonal total-fermion-number matrix of the window."""
    return IntegerSparseOperator.diagonal(window, _popcounts(window))


def parity_operator(window: SiteWindow) -> IntegerSparseOperator:
    """Diagonal (-1)**N matrix of the window."""
    return IntegerSparseOperator.diagonal(window, 1 - 2 * (_popcounts(window) & 1))

