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
  sorted int64 arrays of packed positions and values.  Every operation
  certifies an a-priori magnitude bound first.  A product whose bound fails
  is computed with Python integers instead, and sums, multiples and results
  that do not fit int64 raise ``OverflowError``, so no operation ever
  overflows silently.

Zero results (annihilated vectors, empty matrices) are ordinary values, never
errors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Tuple

import numpy as np

from .kernels import monomial_action

__all__ = [
    "SiteWindow",
    "OccupationConfig",
    "FermionMonomial",
    "OperatorSum",
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

# int64 products are exact below this; anything bigger takes the bigint path.
_INT64_SAFE = 1 << 62
# The packed key ``col * dim + row`` must fit in int64.
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
        object.__setattr__(self, "factors", tuple((int(s), bool(d)) for s, d in self.factors))

    @classmethod
    def identity(cls, coefficient: int = 1) -> "FermionMonomial":
        return cls(coefficient, ())

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

    def scaled(self, c: int) -> "FermionMonomial":
        return FermionMonomial(c * self.coefficient, self.factors)

    def to_json(self) -> dict:
        """Serialize in increasing-order notation (requires distinct sites)."""
        factors = list(self.factors)
        sites = [s for s, _ in factors]
        if len(set(sites)) != len(sites):
            raise ValueError("serialization requires factors at distinct sites")
        # Bubble into increasing order; every adjacent swap of distinct-site
        # ladder factors flips the sign.
        coeff = self.coefficient
        for i in range(len(factors)):
            for j in range(len(factors) - 1 - i):
                if factors[j][0] > factors[j + 1][0]:
                    factors[j], factors[j + 1] = factors[j + 1], factors[j]
                    coeff = -coeff
        return {
            "coefficient": coeff,
            "factors": [{"site": s, "dagger": d} for s, d in factors],
        }

    @classmethod
    def from_json(cls, payload) -> "FermionMonomial":
        if isinstance(payload, str):
            payload = json.loads(payload)
        return cls.increasing(
            [(f["site"], bool(f["dagger"])) for f in payload["factors"]],
            coefficient=int(payload["coefficient"]),
        )


@dataclass(frozen=True)
class OperatorSum:
    """A finite integer-linear combination of ladder monomials."""

    terms: Tuple[FermionMonomial, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True)
class FockVector:
    """Exact integer-amplitude vector on the Fock space of a window.

    ``amplitudes`` maps basis index to a nonzero integer; the zero vector is
    the empty map.
    """

    window: SiteWindow
    amplitudes: Mapping[int, int]

    def __post_init__(self):
        object.__setattr__(
            self, "amplitudes", {int(i): int(a) for i, a in self.amplitudes.items() if a}
        )

    @classmethod
    def zero(cls, window: SiteWindow) -> "FockVector":
        return cls(window, {})

    @classmethod
    def from_config(cls, config: OccupationConfig, amplitude: int = 1) -> "FockVector":
        return cls(config.window, {config.occ: amplitude})

    @classmethod
    def vacuum(cls, window: SiteWindow) -> "FockVector":
        return cls(window, {0: 1})

    @classmethod
    def occupied(cls, window: SiteWindow) -> "FockVector":
        return cls(window, {window.dimension - 1: 1})

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

    def scaled(self, c: int) -> "FockVector":
        return FockVector(self.window, {i: c * a for i, a in self.amplitudes.items()})

    def __add__(self, other: "FockVector") -> "FockVector":
        if other.window != self.window:
            raise ValueError("window mismatch")
        out = dict(self.amplitudes)
        for i, a in other.amplitudes.items():
            out[i] = out.get(i, 0) + a
        return FockVector(self.window, out)


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
    therefore have equal arrays.  Arithmetic stays in int64 whenever a sound
    magnitude bound certifies exactness; products switch to Python big
    integers otherwise, and the other operations raise ``OverflowError``.
    """

    __slots__ = ("window", "key", "vals")

    def __init__(self, window: SiteWindow, key, vals):
        """Operator with entries ``vals`` at packed positions ``key``.

        Keys may come in any order and repeat: repeated keys are summed and
        zero entries dropped.
        """
        if window.size > _MAX_SIZE:
            raise ValueError(f"window of {window.size} sites is too large for packed keys")
        self.window = window
        self.key, self.vals = _canonical(
            np.asarray(key, dtype=np.int64), np.asarray(vals, dtype=np.int64)
        )

    @classmethod
    def _wrap(cls, window: SiteWindow, key: np.ndarray, vals: np.ndarray):
        """Operator from arrays already in canonical form."""
        op = cls.__new__(cls)
        op.window, op.key, op.vals = window, key, vals
        return op

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, window: SiteWindow) -> "IntegerSparseOperator":
        return cls(window, (), ())

    @classmethod
    def identity(cls, window: SiteWindow) -> "IntegerSparseOperator":
        return cls.diagonal(window, np.ones(window.dimension, dtype=np.int64))

    @classmethod
    def diagonal(cls, window: SiteWindow, diag) -> "IntegerSparseOperator":
        diag = np.asarray(diag, dtype=np.int64)
        return cls(window, np.arange(diag.size, dtype=np.int64) * (window.dimension + 1), diag)

    @classmethod
    def from_entries(cls, window: SiteWindow, entries: Mapping[Tuple[int, int], int]):
        rows = np.fromiter((r for r, _ in entries), dtype=np.int64, count=len(entries))
        cols = np.fromiter((c for _, c in entries), dtype=np.int64, count=len(entries))
        vals = np.fromiter(entries.values(), dtype=np.int64, count=len(entries))
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
        return int(np.abs(self.vals).max()) if self.vals.size else 0

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

    def __hash__(self):
        raise TypeError("IntegerSparseOperator is not hashable")

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
        if abs(c) * max(self.entry_bound(), 1) >= _INT64_SAFE:
            raise OverflowError("scalar multiple exceeds the certified int64 range")
        if c == 0:
            return IntegerSparseOperator.zero(self.window)
        return IntegerSparseOperator._wrap(self.window, self.key, self.vals * np.int64(c))

    def transpose(self) -> "IntegerSparseOperator":
        key, vals = _transpose_blocks(self.window, self.key, self.vals)
        return IntegerSparseOperator._wrap(self.window, key, vals)

    # Entries are integers, so the adjoint is the transpose.
    adjoint = transpose

    def __matmul__(self, other: "IntegerSparseOperator") -> "IntegerSparseOperator":
        return _products(self, [other])[0]

    def apply(self, v: FockVector) -> FockVector:
        """Exact matrix-vector product (big-integer arithmetic)."""
        if v.window != self.window:
            raise ValueError("window mismatch")
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


def _products(a: IntegerSparseOperator, bs) -> list:
    """``[a @ b for b in bs]``, from one product of ``a`` with the wide matrix
    ``[b_0 | b_1 | ...]`` (see ``_stack``).

    The int64 bound of a single product is certified once for the whole
    batch, ``min(row nnz of a, largest column nnz of the b's) * |a| * max |b|``;
    a batch that fails it is computed item by item with Python integers.
    """
    out = []
    for group in _batches(a, bs):
        key, vals = _stack(a.window, group)
        if _certified(a, key, vals):
            out += _unstack(a.window, len(group), *_assemble(_product_pieces(a, key, vals)))
        else:
            out += [_bigint_product(a, b) for b in group]
    return out


def _products_right(bs, a: IntegerSparseOperator) -> list:
    """``[b @ a for b in bs]``, as ``(aᵀ @ bᵀ)ᵀ``: the same wide product, with
    every block transposed before and after it."""
    window, at = a.window, a.transpose()
    out = []
    for group in _batches(a, bs):
        key, vals = _transpose_blocks(window, *_stack(window, group))
        if _certified(at, key, vals):
            key, vals = _assemble(_product_pieces(at, key, vals))
            out += _unstack(window, len(group), *_transpose_blocks(window, key, vals))
        else:
            out += [_bigint_product(b, a) for b in group]
    return out


def _batches(a: IntegerSparseOperator, bs) -> list:
    """``bs``, checked to share ``a``'s window, in groups small enough that
    a block index fits above the packed keys in int64."""
    for b in bs:
        a._check_window(b)
    per = 1 << (62 - 2 * a.window.size)
    return [bs[i : i + per] for i in range(0, len(bs), per)]


def _stack(window: SiteWindow, ops):
    """The wide matrix ``[op_0 | op_1 | ...]`` as one canonical ``(key, vals)``.

    Block ``t`` holds ``op_t``'s packed keys plus ``t << 2 * size``: its
    columns are ``t * dim`` on, and the blocks follow each other in key order.
    """
    if len(ops) == 1:
        return ops[0].key, ops[0].vals
    key = np.concatenate([op.key for op in ops])
    blocks = np.arange(len(ops), dtype=np.int64) << (2 * window.size)
    key |= np.repeat(blocks, [op.nnz for op in ops])
    return key, np.concatenate([op.vals for op in ops])


def _unstack(window: SiteWindow, count: int, key: np.ndarray, vals: np.ndarray) -> list:
    """The ``count`` operators whose wide matrix is ``(key, vals)``."""
    if count == 1:
        return [IntegerSparseOperator._wrap(window, key, vals)]
    shift = 2 * window.size
    edges = np.searchsorted(key, np.arange(count + 1, dtype=np.int64) << shift).tolist()
    low = (1 << shift) - 1
    return [
        IntegerSparseOperator._wrap(window, key[s:e] & low, vals[s:e])
        for s, e in zip(edges, edges[1:])
    ]


def _transpose_blocks(window: SiteWindow, key: np.ndarray, vals: np.ndarray):
    """A wide matrix with every block transposed (one block: the plain transpose)."""
    size, mask = window.size, window.dimension - 1
    blocks = key >> (2 * size) << (2 * size)
    return _canonical(blocks | ((key & mask) << size) | ((key >> size) & mask), vals)


def _certified(a: IntegerSparseOperator, key: np.ndarray, vals: np.ndarray) -> bool:
    """Whether int64 holds every entry and partial sum of ``a`` times a wide
    matrix: ``min(row nnz of a, largest column nnz) * |a| * max |b|`` is
    below ``_INT64_SAFE``."""
    if a.is_zero() or key.size == 0:
        return True
    scale = a.entry_bound() * int(np.abs(vals).max())
    if a.window.dimension * scale < _INT64_SAFE:  # no row has more than dim entries
        return True
    row_nnz = int(np.bincount(a.rows).max())
    # keys are sorted, so each column of the wide matrix is one run of keys
    cols = key >> a.window.size
    edges = np.empty(cols.size + 1, dtype=bool)
    edges[0] = edges[-1] = True
    np.not_equal(cols[1:], cols[:-1], out=edges[1:-1])
    col_nnz = int(np.diff(np.flatnonzero(edges)).max())
    return min(row_nnz, col_nnz) * scale < _INT64_SAFE


def _product_pieces(a: IntegerSparseOperator, b_key: np.ndarray, b_vals: np.ndarray):
    """The terms of ``a @ b`` as packed keys and int64 values, for ``b`` given
    by its canonical, possibly wide, ``(b_key, b_vals)``.

    Every entry ``(k, j)`` of ``b`` pairs with the whole column ``k`` of ``a``,
    a contiguous run of ``a.key``.  ``b``'s columns are expanded in chunks of
    about ``_CHUNK`` products, so memory stays bounded; a chunk holds whole
    columns of the result, so the chunks' key ranges are disjoint and
    ascending.
    """
    if b_key.size == 0:
        yield b_key, b_vals
        return
    size = a.window.size
    b_rows, b_cols = b_key & (a.window.dimension - 1), b_key >> size
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
        edges = [0, *np.unique(cuts[cuts > 0]).tolist(), b_cols.size]
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


def _bigint_product(a: IntegerSparseOperator, b: IntegerSparseOperator) -> IntegerSparseOperator:
    return IntegerSparseOperator.from_entries(a.window, _matmul_bigint(a.entries(), b.entries()))


def _matmul_bigint(a_entries: dict, b_entries: dict) -> dict:
    """Arbitrary-precision fallback product for uncertifiable int64 bounds."""
    a_by_col: dict = {}
    for (i, k), v in a_entries.items():
        a_by_col.setdefault(k, []).append((i, v))
    out: dict = {}
    for (k, j), bv in b_entries.items():
        for i, av in a_by_col.get(k, ()):
            key = (i, j)
            out[key] = out.get(key, 0) + av * bv
    return {k: v for k, v in out.items() if v}


def build_matrix(op, window: SiteWindow) -> IntegerSparseOperator:
    """Exact matrix of a monomial or operator sum on a window.

    Column ``j`` holds the image of basis configuration ``j``; each term's
    column images come from :func:`nicolai.kernels.monomial_action`.
    """
    if isinstance(op, FermionMonomial):
        terms = (op,)
    elif isinstance(op, OperatorSum):
        terms = op.terms
    else:
        terms = tuple(op)
    keys, vals = [], []
    coeff_total = sum(abs(t.coefficient) for t in terms)
    if coeff_total >= _INT64_SAFE:
        raise OverflowError("operator coefficients exceed the certified int64 range")
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

