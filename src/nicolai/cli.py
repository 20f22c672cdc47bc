"""Command-line front end: enumerate, count, verify, spectrum, generate, replay.

Every command prints a single result document to stdout:

    {"command": ..., "params": ..., "payload": ..., "status": ..., "elapsed_ms": ...}

(or CSV for tabular payloads with ``--format csv``).  Exit codes: 0 ok,
1 verification/replay failure, 2 usage error, 3 resource limit exceeded.
A command line the parser rejects gives a usage-error document too, with the
raw ``argv`` as its params and ``command`` null; only ``--help`` prints text.
Payloads are deterministic for identical inputs; only ``elapsed_ms`` varies.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional

from .charges import _spell, _words
from .fock import FockVector, OccupationConfig
from .ground import (
    GenerationError,
    GenerationWord,
    count_transfer,
    generate_word,
    replay_word_matrix,
)
from .model import Interval, build_supercharge, spectrum
from .verify import SUITES, run_suite

_EXIT_OK = 0
_EXIT_FAILURE = 1
_EXIT_USAGE = 2
_EXIT_RESOURCE = 3

_ENUMERATE_CAP = 12  # direct enumeration bound for enumerate and count


_REASON_CODES = {
    _EXIT_FAILURE: "verification-failure",
    _EXIT_USAGE: "usage-error",
    _EXIT_RESOURCE: "resource-limit",
}


class _CommandFailure(Exception):
    def __init__(self, code: int, reason: str):
        super().__init__(reason)
        self.code = code
        self.reason = reason


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports bad input as a usage-error document.

    ``--help`` still prints the usage text and exits 0.  Subparsers inherit
    this class, so a bad subcommand argument is caught the same way.
    """

    def error(self, message):
        raise _CommandFailure(_EXIT_USAGE, f"{self.prog}: {message}")


def _emit(args, command: str, params: dict, payload, started: float, csv_rows=None) -> int:
    elapsed_ms = round(1000.0 * (time.perf_counter() - started), 3)
    if args.format == "csv" and csv_rows is not None:
        text = "\n".join(",".join(str(x) for x in row) for row in csv_rows) + "\n"
    else:
        doc = {
            "command": command,
            "params": params,
            "payload": payload,
            "status": "ok",
            "elapsed_ms": elapsed_ms,
        }
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    out_path = getattr(args, "output", None) or os.environ.get("NICOLAI_OUTPUT_DIR")
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    elif out_path:
        target = os.path.join(out_path, f"{command}.{args.format}")
        with open(target, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return _EXIT_OK


def _emit_failure(
    command: Optional[str], params: dict, reason: str, code: int, started: float
) -> int:
    doc = {
        "command": command,
        "params": params,
        "payload": {"code": _REASON_CODES.get(code, "error"), "reason": reason},
        "status": "failure",
        "elapsed_ms": round(1000.0 * (time.perf_counter() - started), 3),
    }
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    return code


def _guard_dimension(size: int, max_dim: int):
    if (1 << size) > max_dim:
        raise _CommandFailure(
            _EXIT_RESOURCE,
            f"window of {size} sites has dimension {1 << size} > --max-dim {max_dim}",
        )


def _guard_enumeration(n: int):
    if n > _ENUMERATE_CAP:
        raise _CommandFailure(_EXIT_RESOURCE, f"enumeration capped at n <= {_ENUMERATE_CAP}")


def _admissible_words(n: int):
    """The packed admissible words on ``[0..2n]``: the ground configurations,
    and the conservation sequences with bit 1 for ``+1``."""
    _guard_enumeration(n)
    if n < 1:
        raise ValueError("k < l required")
    return _words(2 * n + 1)


def _cmd_enumerate(args) -> tuple:
    n = args.n
    words = _admissible_words(n)
    if args.kind == "ground-configs":
        items = _spell(words, 2 * n + 1, "01")
        rows = [("config",)] + [(s,) for s in items]
    else:
        values = _spell(words, 2 * n + 1, "-+")
        items = [{"k": 0, "l": n, "values": v} for v in values]
        rows = [("k", "l", "values")] + [(0, n, v) for v in values]
    payload = {"k": 0, "l": n, "kind": args.kind, "count": len(items), "items": items}
    return payload, rows


def _cmd_count(args) -> tuple:
    n = args.n
    methods = {}
    if args.method in ("transfer", "both"):
        methods["transfer"] = count_transfer(n)
    if args.method in ("enumerate", "both"):
        methods["enumerate"] = len(_admissible_words(n))
    counts = set(methods.values())
    if len(counts) != 1:
        raise _CommandFailure(_EXIT_FAILURE, f"counting methods disagree: {methods}")
    payload = {"n": n, "count": counts.pop(), "methods": methods}
    rows = [("method", "count")] + [(k, v) for k, v in sorted(methods.items())]
    return payload, rows


def _cmd_verify(args) -> tuple:
    if args.suite != "fixtures" and args.n is None:
        raise _CommandFailure(_EXIT_USAGE, f"suite {args.suite!r} requires --n")
    if args.suite in ("algebra", "charges", "classification") and args.n is not None:
        if not 1 <= args.n <= 4:
            raise _CommandFailure(_EXIT_USAGE, "matrix suites accept 1 <= n <= 4")
        window = Interval(0, args.n).enlarged
        _guard_dimension(window.size, args.max_dim)
    checks = run_suite(args.suite, args.n, seed=args.seed)
    payload = {
        "suite": args.suite,
        "n": args.n,
        "checks": [c.to_json() for c in checks],
        "passed": all(c.passed for c in checks),
    }
    rows = [("check", "passed")] + [(c.name, c.passed) for c in checks]
    if not payload["passed"]:
        raise _CommandFailure(_EXIT_FAILURE, "verification failed: " + json.dumps(payload))
    return payload, rows


def _cmd_spectrum(args) -> tuple:
    interval = Interval(0, args.n)
    window = interval.enlarged if args.edge == "open" else interval.inner
    if args.edge == "closed" and args.n < 2:
        raise _CommandFailure(_EXIT_USAGE, "closed edge mode requires n >= 2")
    _guard_dimension(window.size, args.max_dim)
    m = build_supercharge(interval, args.edge)
    sector = "all" if args.sector == "all" else int(args.sector)
    if sector != "all" and not 0 <= sector <= window.size:
        raise _CommandFailure(_EXIT_USAGE, f"sector must lie in [0, {window.size}]")
    report = spectrum(m, sector)
    rows = [("index", "eigenvalue")] + report.to_csv_rows()
    return report.to_json(), rows


def _cmd_generate(args) -> tuple:
    n = args.n
    window = Interval(0, n).inner
    _guard_dimension(window.size, args.max_dim)
    try:
        target = OccupationConfig.from_string(window, args.target)
    except ValueError as exc:
        raise _CommandFailure(_EXIT_USAGE, f"bad target bitstring: {exc}")
    try:
        word = generate_word(target, args.start, 0, n)
    except ValueError as exc:
        raise _CommandFailure(_EXIT_USAGE, str(exc))
    replayed = replay_word_matrix(word)
    confirmed = replayed == FockVector.from_config(target, word.predicted_sign)
    if not confirmed:
        raise _CommandFailure(_EXIT_FAILURE, "generated word failed its vector replay")
    payload = word.to_json()
    payload["replay_verified"] = True
    rows = [("step", "k", "l", "values", "adjoint")] + [
        (i, f.k, f.l, f.to_string(), adj) for i, (f, adj) in enumerate(word.steps)
    ]
    return payload, rows


def _cmd_replay(args) -> tuple:
    if args.word == "-":
        raw = sys.stdin.read()
    else:
        with open(args.word) as fh:
            raw = fh.read()
    doc = json.loads(raw)
    if isinstance(doc, dict) and "payload" in doc and "steps" not in doc:
        doc = doc["payload"]
    word = GenerationWord.from_json(doc)
    _guard_dimension(word.target.window.size, args.max_dim)
    replayed = replay_word_matrix(word)
    expected = FockVector.from_config(word.target, word.predicted_sign)
    if replayed != expected:
        raise _CommandFailure(
            _EXIT_FAILURE, "replay mismatch: word does not reproduce its target"
        )
    payload = {
        "target": word.target.to_string(),
        "predicted_sign": word.predicted_sign,
        "steps": len(word.steps),
        "consistent": True,
    }
    rows = [("target", "predicted_sign", "steps", "consistent")] + [
        (word.target.to_string(), word.predicted_sign, len(word.steps), True)
    ]
    return payload, rows


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nicolai",
        description="Exact finite-interval computations for the Nicolai fermion chain.",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    parser.add_argument(
        "--max-dim", type=int, default=1 << 19, help="largest allowed matrix dimension"
    )
    parser.add_argument("--output", help="write the result document to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list ground configs or conservation sequences")
    p.add_argument("kind", choices=("ground-configs", "charges"))
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("count", help="count open-boundary ground configurations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("transfer", "enumerate", "both"), default="both")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("verify", help="run an exact verification suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--n", type=int)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("spectrum", help="eigenvalues and exact kernel dimension")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--edge", choices=("open", "closed"), default="open")
    p.add_argument("--sector", default="all")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("generate", help="find a charge word reaching a ground config")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--start", choices=("fock", "occupied"), default="fock")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("replay", help="replay a serialized generation word")
    p.add_argument("--word", required=True, help="path to the word JSON, or - for stdin")
    p.set_defaults(handler=_cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    started = time.perf_counter()
    try:
        args = parser.parse_args(argv)
    except _CommandFailure as failure:
        argv = sys.argv[1:] if argv is None else list(argv)
        return _emit_failure(None, {"argv": argv}, failure.reason, failure.code, started)
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("handler", "format", "output", "max_dim") and v is not None
    }
    try:
        payload, rows = args.handler(args)
    except _CommandFailure as failure:
        return _emit_failure(args.command, params, failure.reason, failure.code, started)
    except GenerationError as exc:
        return _emit_failure(args.command, params, str(exc), _EXIT_FAILURE, started)
    except OverflowError as exc:
        return _emit_failure(args.command, params, str(exc), _EXIT_RESOURCE, started)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        return _emit_failure(args.command, params, str(exc), _EXIT_USAGE, started)
    return _emit(args, args.command, params, payload, started, csv_rows=rows)


if __name__ == "__main__":
    sys.exit(main())
