"""Per-layer spans around the public functions of the nicolai modules.

``Tracer.install`` wraps each function named in ``LAYERS`` and puts the
wrapper in place of the original wherever a ``nicolai`` module holds it.  The
modules import these names with ``from .x import y``, so patching only the
home module would silently lose every call made through another module's
copy of the name.

A span's self time is its duration minus the time its child spans cover.
Counts are summed; ``max_dim`` is a maximum.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


def _nnz(args, kwargs, result):
    return {"nnz": result.nnz}


def _items(args, kwargs, result):
    return {"items": len(result)}


def _states(args, kwargs, result):
    return {"states": 1 << args[0]}


def _eig_dims(args, kwargs, result):
    d = args[0].shape[-1]
    return {"max_dim": d, "flops": d**3}


def _rank(args, kwargs, result):
    rows = args[0]
    return {"rows": len(rows) if hasattr(rows, "__len__") else 0, "rank": result}


# (metric prefix, module, attribute, counter); numpy.linalg.eigvalsh is wrapped
# in numpy itself because nicolai.model calls it as ``np.linalg.eigvalsh``.
LAYERS = (
    ("kernels.monomial_action", "nicolai.kernels", "monomial_action", _states),
    ("fock.build_matrix", "nicolai.fock", "build_matrix", _nnz),
    ("fock.matmul", "nicolai.fock", "IntegerSparseOperator.__matmul__", _nnz),
    ("fock.apply", "nicolai.fock", "IntegerSparseOperator.apply", None),
    ("model.build_supercharge", "nicolai.model", "build_supercharge", None),
    ("model.spectrum", "nicolai.model", "spectrum", None),
    ("model.eigvalsh", "numpy.linalg", "eigvalsh", _eig_dims),
    ("intrank.rows_from_csr", "nicolai.intrank", "rows_from_csr", None),
    ("intrank.integer_rank", "nicolai.intrank", "integer_rank", _rank),
    ("charges.enumerate_sequences", "nicolai.charges", "enumerate_sequences", _items),
    ("charges.verify_commutation", "nicolai.charges", "verify_commutation", None),
    ("charges.verify_annihilation", "nicolai.charges", "verify_annihilation", None),
    ("ground.enumerate_upsilon_hat", "nicolai.ground", "enumerate_upsilon_hat", _items),
    ("ground.generate_word", "nicolai.ground", "generate_word", None),
    ("ground.replay_word_matrix", "nicolai.ground", "replay_word_matrix", None),
    ("verify.run_suite", "nicolai.verify", "run_suite", None),
)

# The per-layer metrics the benchmark reports, with their units.  cli.main is
# the span the launcher puts around nicolai.cli.main itself.
PER_LAYER = (
    ("cli.main.self_s", "s"),
    ("kernels.monomial_action.calls", "count"),
    ("kernels.monomial_action.self_s", "s"),
    ("kernels.monomial_action.states", "states"),
    ("fock.build_matrix.calls", "count"),
    ("fock.build_matrix.self_s", "s"),
    ("fock.build_matrix.nnz", "count"),
    ("fock.matmul.calls", "count"),
    ("fock.matmul.self_s", "s"),
    ("fock.matmul.nnz", "count"),
    ("fock.apply.calls", "count"),
    ("fock.apply.self_s", "s"),
    ("model.build_supercharge.self_s", "s"),
    ("model.spectrum.self_s", "s"),
    ("model.eigvalsh.calls", "count"),
    ("model.eigvalsh.self_s", "s"),
    ("model.eigvalsh.max_dim", "dim"),
    ("model.eigvalsh.flops", "flop"),
    ("intrank.rows_from_csr.self_s", "s"),
    ("intrank.integer_rank.calls", "count"),
    ("intrank.integer_rank.self_s", "s"),
    ("intrank.integer_rank.rows", "count"),
    ("intrank.integer_rank.rank", "count"),
    ("charges.enumerate_sequences.self_s", "s"),
    ("charges.enumerate_sequences.items", "count"),
    ("charges.verify_commutation.calls", "count"),
    ("charges.verify_commutation.self_s", "s"),
    ("charges.verify_annihilation.calls", "count"),
    ("charges.verify_annihilation.self_s", "s"),
    ("ground.enumerate_upsilon_hat.self_s", "s"),
    ("ground.enumerate_upsilon_hat.items", "count"),
    ("ground.generate_word.calls", "count"),
    ("ground.generate_word.self_s", "s"),
    ("ground.replay_word_matrix.self_s", "s"),
    ("verify.run_suite.self_s", "s"),
)


def is_maximum(metric: str) -> bool:
    return metric.endswith(".max_dim")


def is_time(metric: str) -> bool:
    return metric.endswith("_s")


def merge(total: dict, part: dict) -> None:
    """Add one command's (or cycle's) layer figures into ``total``."""
    for metric, value in part.items():
        if is_maximum(metric):
            total[metric] = max(total.get(metric, 0), value)
        else:
            total[metric] = total.get(metric, 0) + value


class Tracer:
    def __init__(self):
        self.totals = defaultdict(int)
        self._open = []  # child time accumulated by each open span

    def span(self, name, fn, counter=None):
        totals, open_spans = self.totals, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                totals[name + ".self_s"] += elapsed - children
                totals[name + ".calls"] += 1
            if counter is not None:
                merge(totals, {f"{name}.{q}": v for q, v in counter(args, kwargs, result).items()})
            return result

        return wrapper

    def install(self) -> None:
        holders = [m for name, m in sys.modules.items() if name.split(".")[0] == "nicolai"]
        for prefix, module_name, attribute, counter in LAYERS:
            owner = importlib.import_module(module_name)
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
            wrapper = self.span(prefix, original, counter)
            setattr(owner, name, wrapper)
            for module in holders:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
