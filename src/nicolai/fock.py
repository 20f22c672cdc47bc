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
  int64 CSR; every product certifies an a-priori magnitude bound and falls
  back to arbitrary-precision Python integers when the bound cannot be
  certified, so no operation ever overflows silently.

Zero results (annihilated vectors, empty matrices) are ordinary values, never
errors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Tuple

import numpy as np
import scipy.sparse as sps

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
    "monomial_adjoint",
    "build_matrix",
    "graded_commutator",
    "anticommutator",
    "commutator",
    "number_operator",
    "parity_operator",
    "particle_hole_unitary",
]

# int64 products are exact below this; anything bigger takes the bigint path.
_INT64_SAFE = 1 << 62


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

    def covers(self, other: "SiteWindow") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

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

    def popcount(self) -> int:
        return int(self.occ).bit_count()

    def complement(self) -> "OccupationConfig":
        return OccupationConfig(self.window, self.occ ^ (self.window.dimension - 1))

    def restrict(self, window: SiteWindow) -> "OccupationConfig":
        if not self.window.covers(window):
            raise ValueError("restriction window is not contained in the config window")
        shifted = self.occ >> (window.lo - self.window.lo)
        return OccupationConfig(window, shifted & (window.dimension - 1))


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

    @property
    def parity(self) -> str:
        return "odd" if len(self.factors) & 1 else "even"

    def support(self):
        return {s for s, _ in self.factors}

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


def monomial_adjoint(m: FermionMonomial) -> FermionMonomial:
    return m.adjoint()


@dataclass(frozen=True)
class OperatorSum:
    """A finite integer-linear combination of ladder monomials."""

    terms: Tuple[FermionMonomial, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def adjoint(self) -> "OperatorSum":
        return OperatorSum(tuple(t.adjoint() for t in self.terms))

    def __add__(self, other: "OperatorSum") -> "OperatorSum":
        return OperatorSum(self.terms + other.terms)

    def support(self):
        out = set()
        for t in self.terms:
            out |= t.support()
        return out


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
    of basis configuration ``j``.  Arithmetic stays in int64 whenever a sound
    magnitude bound certifies exactness and switches to Python big integers
    otherwise, so results are exact in all cases.
    """

    __slots__ = ("window", "mat", "_csc")

    def __init__(self, window: SiteWindow, mat):
        mat = sps.csr_matrix(mat, shape=(window.dimension, window.dimension), dtype=np.int64)
        mat.sum_duplicates()
        mat.eliminate_zeros()
        self.window = window
        self.mat = mat
        self._csc = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, window: SiteWindow) -> "IntegerSparseOperator":
        return cls(window, sps.csr_matrix((window.dimension, window.dimension), dtype=np.int64))

    @classmethod
    def identity(cls, window: SiteWindow) -> "IntegerSparseOperator":
        return cls(window, sps.identity(window.dimension, dtype=np.int64, format="csr"))

    @classmethod
    def diagonal(cls, window: SiteWindow, diag) -> "IntegerSparseOperator":
        return cls(
            window, sps.diags(np.asarray(diag, dtype=np.int64), format="csr", dtype=np.int64)
        )

    @classmethod
    def from_entries(cls, window: SiteWindow, entries: Mapping[Tuple[int, int], int]):
        rows = np.fromiter((r for r, _ in entries), dtype=np.int64, count=len(entries))
        cols = np.fromiter((c for _, c in entries), dtype=np.int64, count=len(entries))
        vals = np.fromiter(entries.values(), dtype=np.int64, count=len(entries))
        dim = window.dimension
        return cls(window, sps.coo_matrix((vals, (rows, cols)), shape=(dim, dim)))

    # -- inspection ----------------------------------------------------------

    @property
    def nnz(self) -> int:
        return self.mat.nnz

    def entry_bound(self) -> int:
        return int(np.abs(self.mat.data).max()) if self.mat.nnz else 0

    def entries(self) -> dict:
        coo = self.mat.tocoo()
        return {(int(r), int(c)): int(v) for r, c, v in zip(coo.row, coo.col, coo.data)}

    def is_zero(self) -> bool:
        return self.mat.nnz == 0

    def __eq__(self, other):
        if not isinstance(other, IntegerSparseOperator):
            return NotImplemented
        return self.window == other.window and (self - other).is_zero()

    def __hash__(self):
        raise TypeError("IntegerSparseOperator is not hashable")

    def to_dense(self, dtype=float) -> np.ndarray:
        return self.mat.toarray().astype(dtype)

    # -- exact arithmetic ----------------------------------------------------

    def _check_window(self, other: "IntegerSparseOperator"):
        if self.window != other.window:
            raise ValueError("window mismatch")

    def __add__(self, other: "IntegerSparseOperator") -> "IntegerSparseOperator":
        self._check_window(other)
        if self.entry_bound() + other.entry_bound() >= _INT64_SAFE:
            raise OverflowError("operator sum exceeds the certified int64 range")
        return IntegerSparseOperator(self.window, self.mat + other.mat)

    def __sub__(self, other: "IntegerSparseOperator") -> "IntegerSparseOperator":
        return self + other.scaled(-1)

    def __neg__(self) -> "IntegerSparseOperator":
        return self.scaled(-1)

    def scaled(self, c: int) -> "IntegerSparseOperator":
        if abs(c) * max(self.entry_bound(), 1) >= _INT64_SAFE:
            raise OverflowError("scalar multiple exceeds the certified int64 range")
        return IntegerSparseOperator(self.window, self.mat * np.int64(c))

    def transpose(self) -> "IntegerSparseOperator":
        return IntegerSparseOperator(self.window, self.mat.transpose())

    # Entries are integers, so the adjoint is the transpose.
    adjoint = transpose

    def __matmul__(self, other: "IntegerSparseOperator") -> "IntegerSparseOperator":
        self._check_window(other)
        a, b = self.mat, other.mat
        if a.nnz == 0 or b.nnz == 0:
            return IntegerSparseOperator.zero(self.window)
        row_nnz = int(np.diff(a.indptr).max())
        col_nnz = int(np.bincount(b.indices, minlength=b.shape[1]).max())
        terms = min(row_nnz, col_nnz)
        if terms * self.entry_bound() * other.entry_bound() < _INT64_SAFE:
            return IntegerSparseOperator(self.window, a @ b)
        return IntegerSparseOperator.from_entries(
            self.window, _matmul_bigint(self.entries(), other.entries())
        )

    def apply(self, v: FockVector) -> FockVector:
        """Exact matrix-vector product (big-integer arithmetic)."""
        if v.window != self.window:
            raise ValueError("window mismatch")
        if self._csc is None:
            self._csc = self.mat.tocsc()
        csc = self._csc
        out: dict = {}
        for j, amp in v.amplitudes.items():
            for k in range(csc.indptr[j], csc.indptr[j + 1]):
                i = int(csc.indices[k])
                out[i] = out.get(i, 0) + int(csc.data[k]) * amp
        return FockVector(self.window, out)


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

    Column ``j`` holds the image of basis configuration ``j``; assembly runs
    through the kernel backend (see :mod:`nicolai.kernels`).
    """
    if isinstance(op, FermionMonomial):
        terms = (op,)
    elif isinstance(op, OperatorSum):
        terms = op.terms
    else:
        terms = tuple(op)
    dim = window.dimension
    cols_list, rows_list, vals_list = [], [], []
    coeff_total = sum(abs(t.coefficient) for t in terms)
    if coeff_total >= _INT64_SAFE:
        raise OverflowError("operator coefficients exceed the certified int64 range")
    for term in terms:
        if term.coefficient == 0:
            continue
        application_order = [(window.bit(s), d) for s, d in reversed(term.factors)]
        targets, signs = monomial_action(window.size, application_order)
        alive = targets >= 0
        cols_list.append(np.nonzero(alive)[0].astype(np.int64))
        rows_list.append(targets[alive])
        vals_list.append(signs[alive] * np.int64(term.coefficient))
    if not cols_list:
        return IntegerSparseOperator.zero(window)
    rows = np.concatenate(rows_list)
    cols = np.concatenate(cols_list)
    vals = np.concatenate(vals_list)
    return IntegerSparseOperator(
        window, sps.coo_matrix((vals, (rows, cols)), shape=(dim, dim))
    )


def commutator(a: IntegerSparseOperator, b: IntegerSparseOperator) -> IntegerSparseOperator:
    return a @ b - b @ a

def anticommutator(a: IntegerSparseOperator, b: IntegerSparseOperator) -> IntegerSparseOperator:
    return a @ b + b @ a


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


def _popcounts(window: SiteWindow) -> np.ndarray:
    states = np.arange(window.dimension, dtype=np.uint64)
    return np.bitwise_count(states).astype(np.int64)


def number_operator(window: SiteWindow) -> IntegerSparseOperator:
    """Diagonal total-fermion-number matrix of the window."""
    return IntegerSparseOperator.diagonal(window, _popcounts(window))


def parity_operator(window: SiteWindow) -> IntegerSparseOperator:
    """Diagonal (-1)**N matrix of the window."""
    return IntegerSparseOperator.diagonal(window, 1 - 2 * (_popcounts(window) & 1))


def particle_hole_unitary(window: SiteWindow) -> IntegerSparseOperator:
    """Matrix of the increasing-order product of ``(c_s + c*_s)`` over the window.

    Conjugation by this unitary swaps ``c_s`` and ``c*_s`` up to a global sign
    that depends only on the window size (no residual sign on odd windows).
    """
    u = IntegerSparseOperator.identity(window)
    for s in window.sites:
        majorana = OperatorSum(
            (FermionMonomial(1, ((s, False),)), FermionMonomial(1, ((s, True),)))
        )
        u = u @ build_matrix(majorana, window)
    return u
