"""Independent checks of the documents the nicolai command line prints.

Every expected answer here is recomputed from the model's definition with code
of this directory's own: bit operations on basis-state integers, its own
Jordan-Wigner signs, its own forbidden-triplet test and closed-form counts.
Nothing imports ``nicolai`` and nothing compares with a stored copy of an
earlier output.  A check returns ``None`` on success and raises
``CheckFailure`` with a reason otherwise.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

EIGENVALUE_TOL = 1e-9
ZERO_MODE_TOL = 1e-6  # nonzero eigenvalues of these small integer blocks are >= ~0.1
TRACE_TOL = 1e-6


class CheckFailure(Exception):
    """A command's output disagrees with the independent computation."""


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailure(reason)


def ground_count(n: int) -> int:
    """Open-boundary ground configurations (or conservation sequences) on [0..2n]."""
    return 2 * 3 ** (n - 1)


# -- the chain, rebuilt from q(i) = c_{2i+1} c*_{2i} c_{2i-1} --------------------


def _window(n: int, edge: str) -> Tuple[int, int, range]:
    """Lowest site, highest site and supercharge centers of a spectrum window."""
    if edge == "open":
        return -1, 2 * n + 1, range(0, n + 1)
    if edge == "closed":
        return 0, 2 * n, range(1, n)
    raise ValueError(f"unknown edge mode {edge!r}")


def supercharge(n: int, edge: str):
    """Sparse ``Q`` on the window of ``spectrum --n n --edge edge``, and its term count.

    A ladder operator at bit ``p`` carries the sign ``(-1)**popcount(state &
    (2**p - 1))``; the rightmost factor ``c_{2i-1}`` acts first.
    """
    lo, hi, centers = _window(n, edge)
    size = hi - lo + 1
    states = np.arange(1 << size, dtype=np.int64)
    rows, cols, vals = [], [], []
    for i in centers:
        cur = states.copy()
        sign = np.ones(states.size, dtype=np.int64)
        alive = np.ones(states.size, dtype=bool)
        for site, create in ((2 * i - 1, False), (2 * i, True), (2 * i + 1, False)):
            p = site - lo
            occupied = ((cur >> p) & 1).astype(bool)
            alive &= occupied != create
            below = np.bitwise_count(cur & ((1 << p) - 1))
            sign *= 1 - 2 * (below.astype(np.int64) & 1)
            cur = cur ^ (1 << p)
        rows.append(cur[alive])
        cols.append(states[alive])
        vals.append(sign[alive])
    dim = states.size
    q = coo_matrix(
        (np.concatenate(vals).astype(float), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    ).tocsr()
    return q, len(centers), size


@dataclass(frozen=True)
class ReferenceSpectrum:
    eigenvalues: np.ndarray  # ascending
    kernel_dimension: int
    trace: int  # 2 * terms * 2**(sites - 3), exactly


def reference_spectrum(n: int, edge: str) -> ReferenceSpectrum:
    """Spectrum of ``H = Q Q* + Q* Q`` from its connected blocks.

    ``H`` splits into many small blocks, so each block is diagonalized alone
    (batched by block size) instead of the whole sector at once.
    """
    q, terms, sites = supercharge(n, edge)
    h = (q @ q.T + q.T @ q).tocoo()
    dim = h.shape[0]
    n_blocks, labels = connected_components(h, directed=False)
    sizes = np.bincount(labels, minlength=n_blocks)
    order = np.argsort(labels, kind="stable")
    first = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    pos = np.empty(dim, dtype=np.int64)
    pos[order] = np.arange(dim) - first[labels[order]]
    eigs = []
    for size in np.unique(sizes):
        members = np.nonzero(sizes == size)[0]
        slot = np.full(n_blocks, -1, dtype=np.int64)
        slot[members] = np.arange(members.size)
        entry_slot = slot[labels[h.row]]
        keep = entry_slot >= 0
        blocks = np.zeros((members.size, size, size))
        blocks[entry_slot[keep], pos[h.row[keep]], pos[h.col[keep]]] = h.data[keep]
        eigs.append(np.linalg.eigvalsh(blocks).ravel())
    eigenvalues = np.sort(np.concatenate(eigs))
    trace = 2 * terms * 2 ** (sites - 3)
    _require(abs(math.fsum(eigenvalues) - trace) <= TRACE_TOL, "reference trace is wrong")
    kernel = int(np.count_nonzero(np.abs(eigenvalues) < ZERO_MODE_TOL))
    return ReferenceSpectrum(eigenvalues, kernel, trace)


# -- per-command checks ------------------------------------------------------------


def check_spectrum(payload: dict, n: int, edge: str, ref: ReferenceSpectrum) -> None:
    _require(payload["interval"] == [0, n] and payload["edge_mode"] == edge, "wrong window")
    _require(payload["sector"] == "all", "wrong sector")
    eig = np.asarray(payload["eigenvalues"], dtype=float)
    _require(eig.shape == ref.eigenvalues.shape, f"{eig.size} eigenvalues, expected {ref.eigenvalues.size}")
    worst = float(np.max(np.abs(eig - ref.eigenvalues)))
    _require(worst <= EIGENVALUE_TOL, f"eigenvalue off by {worst:.3g}")
    _require(
        payload["kernel_dimension"] == ref.kernel_dimension,
        f"kernel dimension {payload['kernel_dimension']}, expected {ref.kernel_dimension}",
    )
    total = math.fsum(payload["eigenvalues"])
    _require(abs(total - ref.trace) <= TRACE_TOL, f"trace {total}, expected {ref.trace}")


def check_count(payload: dict, n: int) -> None:
    expected = ground_count(n)
    _require(payload["n"] == n and payload["count"] == expected, f"count {payload['count']}, expected {expected}")
    _require(all(v == expected for v in payload["methods"].values()), "counting methods disagree")


def sequence_violation(values: str) -> str:
    """Why a '+'/'-' string is not a conservation sequence ('' when it is one)."""
    if len(values) < 3 or len(values) % 2 == 0 or set(values) - {"+", "-"}:
        return "not an odd-length +/- string of length >= 3"
    if values[0] != values[1] or values[-2] != values[-1]:
        return "edge pair not constant"
    for center in range(2, len(values) - 1, 2):
        if values[center - 1 : center + 2] in ("+-+", "-+-"):
            return f"alternating triplet centered at offset {center}"
    return ""


def check_sequences(payload: dict, n: int) -> None:
    items = payload["items"]
    expected = ground_count(n)
    _require(payload["count"] == len(items) == expected, f"{len(items)} sequences, expected {expected}")
    seen = set()
    for item in items:
        _require(item["k"] == 0 and item["l"] == n, f"sequence on the wrong interval: {item}")
        problem = sequence_violation(item["values"])
        _require(not problem, f"{item['values']}: {problem}")
        _require(len(item["values"]) == 2 * n + 1, f"{item['values']}: wrong length")
        seen.add(item["values"])
    _require(len(seen) == len(items), "duplicate sequences")


def ground_configs(n: int) -> List[str]:
    """Every open-boundary ground configuration on [0..2n] as a bit string."""
    size = 2 * n + 1
    states = np.arange(1 << size, dtype=np.int64)
    bit = [(states >> p) & 1 for p in range(size)]
    ok = (bit[0] == bit[1]) & (bit[size - 2] == bit[size - 1])
    for center in range(2, size - 1, 2):
        a, b, c = bit[center - 1], bit[center], bit[center + 1]
        ok &= ~((a == c) & (a != b))
    return ["".join(str((s >> p) & 1) for p in range(size)) for s in states[ok].tolist()]


def replay_on_bits(word: dict) -> Tuple[str, int]:
    """Apply a generation word's charge monomials to bit strings; returns (config, sign).

    ``Q(f)`` is the increasing-site product of ``c*`` ('+') and ``c`` ('-');
    its highest-site factor acts first.  The adjoint reverses the order and
    swaps creation with annihilation.
    """
    size = 2 * word["l"] - 2 * word["k"] + 1
    bits = [0 if word["start"] == "fock" else 1] * size
    base = 2 * word["k"]
    sign = 1
    for step in word["steps"]:
        lo = 2 * step["k"] - base
        factors = [(lo + p, v == "+") for p, v in enumerate(step["values"])]
        if step["adjoint"]:
            factors = [(p, not create) for p, create in factors]
        else:
            factors.reverse()
        for p, create in factors:
            _require(bits[p] != create, "word annihilates the state")
            if sum(bits[:p]) % 2:
                sign = -sign
            bits[p] = 1 - bits[p]
    return "".join(map(str, bits)), sign


def check_word(payload: dict, n: int, start: str, target: str) -> None:
    _require(
        (payload["k"], payload["l"], payload["start"], payload["target"]) == (0, n, start, target),
        "word for the wrong request",
    )
    _require(payload["replay_verified"] is True, "word not marked as replay-verified")
    _require(payload["predicted_sign"] in (1, -1), "sign is not +-1")
    for step in payload["steps"]:
        _require(0 <= step["k"] < step["l"] <= n, f"step outside the interval: {step}")
        _require(not sequence_violation(step["values"]), f"step is no conservation sequence: {step}")
    reached = replay_on_bits(payload)
    _require(reached == (target, payload["predicted_sign"]), f"word reaches {reached}")


def check_replay(payload: dict, word: dict) -> None:
    expected = {
        "target": word["target"],
        "predicted_sign": word["predicted_sign"],
        "steps": len(word["steps"]),
        "consistent": True,
    }
    _require(payload == expected, f"replay reports {payload}, expected {expected}")


def union_sequence_count(n: int) -> int:
    """Conservation sequences over every subinterval 0 <= k < l <= n."""
    return sum(ground_count(l - k) for k in range(n) for l in range(k + 1, n + 1))


ALGEBRA_IDENTITIES_PER_EDGE = 7
ALGEBRA_SPOT_CHECKS = 2


def check_verify(payload: dict, suite: str, n: int) -> None:
    checks: Sequence[dict] = payload["checks"]
    _require(payload["suite"] == suite and payload["n"] == n, "wrong suite")
    _require(payload["passed"] is True and all(c["passed"] for c in checks), "a check failed")
    if suite == "charges":
        _require(len(checks) == 2, f"{len(checks)} checks, expected 2")
        counts = [int(x) for c in checks for x in re.findall(r"for all (\d+) sequences", c["name"])]
        expected = union_sequence_count(n)
        _require(counts == [expected], f"reports {counts} sequences, expected {expected}")
    elif suite == "algebra":
        edges = 2 if n >= 2 else 1
        expected = edges * ALGEBRA_IDENTITIES_PER_EDGE + ALGEBRA_SPOT_CHECKS
        _require(len(checks) == expected, f"{len(checks)} checks, expected {expected}")
