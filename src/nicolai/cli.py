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
import csv
import io
import json
import sys
import time
from dataclasses import replace
from typing import Optional

import numpy as np

from .charges import _unpack, _words
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
# Matrix suite bound for verify: at n = 6 the slowest suite (charges) takes
# about 0.2 s in process, and it grows about 6x per step of n.
_VERIFY_CAP = 6
# Transfer count bound: 2 * 3**(n-1) must print, and Python refuses to turn an
# int of more than 4300 digits into text (n = 9000 gives 4294 digits).
_TRANSFER_CAP = 9000


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


class _JSONText:
    """A payload value given as JSON text, which ``_emit`` writes as is."""

    def __init__(self, text: str):
        self.text = text


_SPLICE = "\0"  # argv strings cannot hold NUL, so its JSON form marks one splice


def _dumps(doc: dict) -> str:
    """Compact sorted-key JSON of ``doc``, with every ``_JSONText`` spliced in."""
    texts = []

    def splice(value):
        if not isinstance(value, _JSONText):
            raise TypeError(f"{type(value).__name__} is not JSON serializable")
        texts.append(value.text)
        return _SPLICE

    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=splice)
    for piece in texts:
        text = text.replace(json.dumps(_SPLICE), piece, 1)
    return text


def _emit(args, command: str, params: dict, payload, started: float, csv_rows=None) -> int:
    """Write the result document to ``--output`` or stdout; an ``OSError``
    propagates to ``main``'s failure handling.  ``csv_rows`` are rows, or the
    CSV text itself; handlers make them only under ``--format csv``."""
    elapsed_ms = round(1000.0 * (time.perf_counter() - started), 3)
    if args.format == "csv" and isinstance(csv_rows, str):
        text = csv_rows
    elif args.format == "csv" and csv_rows is not None:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(csv_rows)
        text = buffer.getvalue()
    else:
        doc = {
            "command": command,
            "params": params,
            "payload": payload,
            "status": "ok",
            "elapsed_ms": elapsed_ms,
        }
        text = _dumps(doc) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
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
    sys.stdout.write(_dumps(doc) + "\n")
    return code


def _guard_dimension(size: int, max_dim: int):
    """Refuse a window whose dimension ``2**size`` exceeds ``max_dim``, without
    building ``2**size``: it does exactly when ``size`` reaches the bit length
    of ``max_dim`` (every size, for ``max_dim < 1``)."""
    if size >= max(max_dim, 0).bit_length():
        raise _CommandFailure(
            _EXIT_RESOURCE,
            f"window of {size} sites has dimension 2^{size} > --max-dim {max_dim}",
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


def _spell(words: np.ndarray, size: int, letters: str, head: str, tail: str, sep: str) -> str:
    """Each packed word as ``head``, its ``size`` letters (``letters[b]`` for
    bit ``b``), then ``tail``; the records joined by ``sep``.

    Every record has the same width, so one template row, broadcast over all
    words and overwritten with the letters, is the whole text."""
    template = np.frombuffer((head + " " * size + tail + sep).encode("ascii"), dtype=np.uint8)
    records = np.tile(template, (words.size, 1))
    table = np.frombuffer(letters.encode("ascii"), dtype=np.uint8)
    records[:, len(head) : len(head) + size] = table[_unpack(words, size)]
    return records.tobytes()[: records.size - len(sep)].decode("ascii")


def _cmd_enumerate(args) -> tuple:
    """Items are encoded straight from the packed words: a configuration as
    its 0/1 string, a sequence as ``{"k":0,"l":n,"values":...}`` with ``-``/``+``
    letters, exactly as ``json.dumps`` with sorted keys writes them."""
    n, size = args.n, 2 * args.n + 1
    words = _admissible_words(n)
    if args.kind == "ground-configs":
        letters, header, csv_head, head, tail = "01", "config", "", '"', '"'
    else:
        letters, header, csv_head = "-+", "k,l,values", f"0,{n},"
        head, tail = f'{{"k":0,"l":{n},"values":"', '"}'
    payload = {"k": 0, "l": n, "kind": args.kind, "count": words.size}
    if args.format == "csv":
        return payload, header + "\n" + _spell(words, size, letters, csv_head, "", "\n") + "\n"
    payload["items"] = _JSONText("[" + _spell(words, size, letters, head, tail, ",") + "]")
    return payload, None


def _cmd_count(args) -> tuple:
    n = args.n
    methods = {}
    if args.method in ("transfer", "both"):
        if n > _TRANSFER_CAP:
            raise _CommandFailure(_EXIT_RESOURCE, f"transfer count capped at n <= {_TRANSFER_CAP}")
        methods["transfer"] = count_transfer(n)
    if args.method in ("enumerate", "both"):
        methods["enumerate"] = len(_admissible_words(n))
    counts = set(methods.values())
    if len(counts) != 1:
        raise _CommandFailure(_EXIT_FAILURE, f"counting methods disagree: {methods}")
    payload = {"n": n, "count": counts.pop(), "methods": methods}
    if args.format != "csv":
        return payload, None
    return payload, [("method", "count")] + sorted(methods.items())


def _cmd_verify(args) -> tuple:
    if args.suite != "fixtures" and args.n is None:
        raise _CommandFailure(_EXIT_USAGE, f"suite {args.suite!r} requires --n")
    if args.suite in ("algebra", "charges", "classification") and args.n is not None:
        if args.n < 1:
            raise _CommandFailure(_EXIT_USAGE, "matrix suites need n >= 1")
        _guard_dimension(Interval(0, args.n).enlarged.size, args.max_dim)
        if args.n > _VERIFY_CAP:
            raise _CommandFailure(_EXIT_RESOURCE, f"matrix suites capped at n <= {_VERIFY_CAP}")
    checks = run_suite(args.suite, args.n, seed=args.seed)
    payload = {
        "suite": args.suite,
        "n": args.n,
        "checks": [c.to_json() for c in checks],
        "passed": all(c.passed for c in checks),
    }
    if not payload["passed"]:
        raise _CommandFailure(_EXIT_FAILURE, "verification failed: " + json.dumps(payload))
    if args.format != "csv":
        return payload, None
    return payload, [("check", "passed")] + [(c.name, c.passed) for c in checks]


def _cmd_spectrum(args) -> tuple:
    interval = Interval(0, args.n)
    window = interval.enlarged if args.edge == "open" else interval.inner
    if args.edge == "closed" and args.n < 2:
        raise _CommandFailure(_EXIT_USAGE, "closed edge mode requires n >= 2")
    _guard_dimension(window.size, args.max_dim)
    sector = "all" if args.sector == "all" else int(args.sector)
    if sector != "all" and not 0 <= sector <= window.size:
        raise _CommandFailure(_EXIT_USAGE, f"sector must lie in [0, {window.size}]")
    report = spectrum(build_supercharge(interval, args.edge), sector)
    if args.format == "csv":
        return None, report.csv_text()
    payload = replace(report, eigenvalues=()).to_json()  # the layout, no per-state list
    payload["eigenvalues"] = _JSONText(report.eigenvalues_json())
    return payload, None


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
    if args.format != "csv":
        return payload, None
    return payload, [("step", "k", "l", "values", "adjoint")] + [
        (i, f.k, f.l, f.to_string(), adj) for i, (f, adj) in enumerate(word.steps)
    ]


def _cmd_replay(args) -> tuple:
    if args.word == "-":
        raw = sys.stdin.read()
    else:
        with open(args.word) as fh:
            raw = fh.read()
    try:
        doc = json.loads(raw)
    except RecursionError:
        raise _CommandFailure(_EXIT_USAGE, "word JSON is nested too deeply")
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
    if args.format != "csv":
        return payload, None
    return payload, [("target", "predicted_sign", "steps", "consistent")] + [
        (word.target.to_string(), word.predicted_sign, len(word.steps), True)
    ]


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
        return _emit(args, args.command, params, payload, started, csv_rows=rows)
    except _CommandFailure as failure:
        return _emit_failure(args.command, params, failure.reason, failure.code, started)
    except GenerationError as exc:
        return _emit_failure(args.command, params, str(exc), _EXIT_FAILURE, started)
    except (OverflowError, MemoryError) as exc:
        reason = str(exc) or type(exc).__name__
        return _emit_failure(args.command, params, reason, _EXIT_RESOURCE, started)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        return _emit_failure(args.command, params, str(exc), _EXIT_USAGE, started)


if __name__ == "__main__":
    sys.exit(main())
