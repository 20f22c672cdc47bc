"""Command-line front end: enumerate, count, verify, spectrum, generate, replay.

Every command prints a single result document to stdout:

    {"command": ..., "params": ..., "payload": ..., "status": ..., "elapsed_ms": ...}

(or CSV for tabular payloads with ``--format csv``).  Exit codes: 0 ok,
1 verification/replay failure, 2 usage error, 3 resource limit exceeded.
Payloads are deterministic for identical inputs; only ``elapsed_ms`` varies.

The command line is read from one table, ``_GLOBAL_OPTIONS`` and
``_COMMANDS``: global flags first, then the command, its positional and its
options in any order.  An option takes ``--name value`` or ``--name=value``
under its exact name (no abbreviations); its value may start with ``-``, and a
repeated option keeps its last value.  ``-h``/``--help`` at either level
prints usage text and exits 0.  Any other line the parser rejects gives a
usage-error document, with the raw ``argv`` as its params and ``command`` null.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from types import SimpleNamespace
from typing import List, Optional

import numpy as np

from .charges import _WORD_CHUNK, _unpack, _word_chunks, _words
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
# Matrix suite bound for verify: the slowest suite (charges) takes 0.06-0.07 s
# in process at n = 6 and 0.41-0.45 s at n = 7 (2-vCPU host), about 6.5x per step.
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


class _JSONText:
    """A payload value given as the bytes of its JSON text (any buffer),
    which ``_write`` writes as is."""

    def __init__(self, data):
        self.data = data


_SPLICE = "\0"  # its JSON form marks one splice; see ``_document``


def _document(
    command: Optional[str], params: dict, payload, status: str, started: float
) -> list:
    """The JSON document line of a command's result or failure, compact with
    sorted keys, as byte pieces to write in order: the encoded ``json.dumps``
    text split at its splice markers, with each ``_JSONText`` of the payload
    between.  Only a document with a ``_JSONText`` is split, so a param that is a
    NUL stays whole: ``enumerate`` and ``spectrum`` splice, once every param has
    read as a choice or an integer."""
    doc = dict(command=command, params=params, payload=payload, status=status)
    doc["elapsed_ms"] = round(1000.0 * (time.perf_counter() - started), 3)
    spliced = []

    def splice(value):
        if not isinstance(value, _JSONText):
            raise TypeError(f"{type(value).__name__} is not JSON serializable")
        spliced.append(value.data)
        return _SPLICE

    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=splice) + "\n"
    if not spliced:
        return [text.encode()]
    parts = text.encode().split(json.dumps(_SPLICE).encode())
    if len(parts) != len(spliced) + 1:
        raise ValueError(f"{len(parts) - 1} splice markers for {len(spliced)} spliced values")
    pieces = [parts[0]]
    for data, part in zip(spliced, parts[1:]):
        pieces += (data, part)
    return pieces


class _StdoutLost(Exception):
    """Stdout refused a write: ``main`` exits 2, as for an unwritable ``--output``."""


def _write(pieces: list, path: Optional[str]) -> None:
    """Write byte pieces to the file ``path``, or to stdout when ``path`` is
    empty or None, each byte once: in binary mode, to ``sys.stdout.buffer`` after the
    text layer is flushed, looping on partial writes (a raw ``FileIO`` under
    ``PYTHONUNBUFFERED=1`` may take part of a piece), then flushed.  A stdout
    with no binary layer, such as ``io.StringIO``, gets the same text.  An
    ``OSError`` on stdout points its descriptor at ``os.devnull``, so the flush
    at exit cannot fail again, and raises ``_StdoutLost``."""
    if not path and not hasattr(sys.stdout, "buffer"):
        sys.stdout.write(b"".join(pieces).decode())
        return
    try:
        sys.stdout.flush()
        with open(path, "wb") if path else contextlib.nullcontext(sys.stdout.buffer) as out:
            for piece in pieces:
                view = memoryview(piece)
                while view:
                    view = view[out.write(view) :]
            out.flush()
    except OSError as exc:
        if path:
            raise
        with contextlib.suppress(OSError):
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        raise _StdoutLost from exc


def _emit(args, command: str, params: dict, payload, started: float, csv_rows=None) -> int:
    """Write the result document to ``--output`` or stdout; an ``OSError``
    propagates to ``main``'s failure handling.  ``csv_rows`` is a list of
    rows, or the CSV bytes themselves (any buffer); handlers make them only
    under ``--format csv``."""
    if args.format == "csv" and isinstance(csv_rows, list):
        import csv  # loaded only when CSV rows are written
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(csv_rows)
        pieces = [buffer.getvalue().encode()]
    elif args.format == "csv" and csv_rows is not None:
        pieces = [csv_rows]
    else:
        pieces = _document(command, params, payload, "ok", started)
    _write(pieces, args.output)
    return _EXIT_OK


def _emit_failure(
    command: Optional[str], params: dict, reason: str, code: int, started: float
) -> int:
    payload = {"code": _REASON_CODES.get(code, "error"), "reason": reason}
    _write(_document(command, params, payload, "failure", started), None)
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


def _integer(text: str) -> int:
    """An optional sign and ASCII digits as an int; ``int`` alone would also
    read underscores, surrounding spaces and non-ASCII digits."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def _word_size(n: int) -> int:
    """The size ``2n + 1`` of the packed admissible words on ``[0..2n]`` (the
    ground configurations, and the conservation sequences with bit 1 for
    ``+1``), for an ``n`` that ``enumerate`` and ``count`` accept."""
    if n > _ENUMERATE_CAP:
        raise _CommandFailure(_EXIT_RESOURCE, f"enumeration capped at n <= {_ENUMERATE_CAP}")
    if n < 1:
        raise ValueError("k < l required")
    return 2 * n + 1


def _spell(
    words: np.ndarray, size: int, letters: str, head: str, tail: str, sep: str,
    opening: str, closing: str,
) -> np.ndarray:
    """``opening``, then each packed word as ``head``, its ``size`` letters
    (``letters[b]`` for bit ``b``) and ``tail``, the records joined by
    ``sep``, then ``closing``, which is as long as ``sep``, as one uint8
    array of ASCII bytes.

    Every record has the same width, so the buffer is ``opening`` and then
    one record per word.  One slice of at most ``_WORD_CHUNK`` words at a
    time, the template record is broadcast over the slice's records and the
    unpacked 0/1 letters become ``letters[0] + b * (letters[1] - letters[0])``
    in place, in uint8 (which wraps, so either order of the two letters
    works), and fill their letter columns.  ``closing`` then overwrites the
    last separator."""
    template = np.frombuffer((head + " " * size + tail + sep).encode("ascii"), dtype=np.uint8)
    buf = np.empty(len(opening) + words.size * template.size, dtype=np.uint8)
    buf[: len(opening)] = np.frombuffer(opening.encode("ascii"), dtype=np.uint8)
    records = buf[len(opening) :].reshape(words.size, template.size)
    first, second = letters.encode("ascii")
    for start in range(0, words.size, _WORD_CHUNK):
        stop = start + _WORD_CHUNK
        cells = _unpack(words[start:stop], size)
        cells *= np.uint8((second - first) & 0xFF)
        cells += np.uint8(first)
        records[start:stop] = template
        records[start:stop, len(head) : len(head) + size] = cells
    buf[buf.size - len(sep) :] = np.frombuffer(closing.encode("ascii"), dtype=np.uint8)
    return buf


def _cmd_enumerate(args) -> tuple:
    """Items are encoded straight from the packed words: a configuration as
    its 0/1 string, a sequence as ``{"k":0,"l":n,"values":...}`` with ``-``/``+``
    letters, exactly as ``json.dumps`` with sorted keys writes them."""
    n, size = args.n, _word_size(args.n)
    words = _words(size)
    if args.kind == "ground-configs":
        letters, header, csv_head, head, tail = "01", "config", "", '"', '"'
    else:
        letters, header, csv_head = "-+", "k,l,values", f"0,{n},"
        head, tail = f'{{"k":0,"l":{n},"values":"', '"}'
    payload = {"k": 0, "l": n, "kind": args.kind, "count": words.size}
    if args.format == "csv":
        return payload, _spell(words, size, letters, csv_head, "", "\n", header + "\n", "\n")
    payload["items"] = _JSONText(_spell(words, size, letters, head, tail, ",", "[", "]"))
    return payload, None


def _cmd_count(args) -> tuple:
    n = args.n
    methods = {}
    if args.method in ("transfer", "both"):
        if n > _TRANSFER_CAP:
            raise _CommandFailure(_EXIT_RESOURCE, f"transfer count capped at n <= {_TRANSFER_CAP}")
        methods["transfer"] = count_transfer(n)
    if args.method in ("enumerate", "both"):
        methods["enumerate"] = sum(chunk.size for chunk in _word_chunks(_word_size(n)))
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
    sector = "all" if args.sector == "all" else _integer(args.sector)
    if sector != "all" and not 0 <= sector <= window.size:
        raise _CommandFailure(_EXIT_USAGE, f"sector must lie in [0, {window.size}]")
    report = spectrum(build_supercharge(interval, args.edge), sector)
    if args.format == "csv":
        return None, report.csv_text().encode()
    return report.to_json(_JSONText(report.eigenvalues_json().encode())), None


def _cmd_generate(args) -> tuple:
    n = args.n
    window = Interval(0, n).inner
    _guard_dimension(window.size, args.max_dim)
    try:
        target = OccupationConfig.from_string(window, args.target)
    except ValueError as exc:
        raise _CommandFailure(_EXIT_USAGE, f"bad target bitstring: {exc}")
    word = generate_word(target, args.start, 0, n)
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
    return payload, [tuple(payload), tuple(payload.values())]


# The command line as data.  An option maps to its reader (``_integer``, ``str``
# or a tuple of choices) and its default, or ``_REQUIRED``; a command maps to its
# handler, its help line, its ``(name, choices)`` positional or None, and its
# options.
_REQUIRED = object()

_GLOBAL_OPTIONS = {
    "--format": (("json", "csv"), "json"),
    "--seed": (_integer, 0),
    "--max-dim": (_integer, 1 << 19),
    "--output": (str, None),
}

_COMMANDS = {
    "enumerate": (_cmd_enumerate, "list ground configs or conservation sequences",
                  ("kind", ("ground-configs", "charges")), {"--n": (_integer, _REQUIRED)}),
    "count": (_cmd_count, "count open-boundary ground configurations", None,
              {"--n": (_integer, _REQUIRED),
               "--method": (("transfer", "enumerate", "both"), "both")}),
    "verify": (_cmd_verify, "run an exact verification suite", ("suite", SUITES),
               {"--n": (_integer, None)}),
    "spectrum": (_cmd_spectrum, "eigenvalues and exact kernel dimension", None,
                 {"--n": (_integer, _REQUIRED), "--edge": (("open", "closed"), "open"),
                  "--sector": (str, "all")}),
    "generate": (_cmd_generate, "find a charge word reaching a ground config", None,
                 {"--n": (_integer, _REQUIRED), "--target": (str, _REQUIRED),
                  "--start": (("fock", "occupied"), "fock")}),
    "replay": (_cmd_replay, "replay a serialized generation word", None,
               {"--word": (str, _REQUIRED)}),
}


def _dest(name: str) -> str:
    return name[2:].replace("-", "_")


def _defaults(options: dict) -> dict:
    return {_dest(name): default for name, (_, default) in options.items()}


def _help(command: Optional[str]) -> str:
    """The usage text of ``nicolai`` (``command`` None) or of one command."""
    if command is None:
        prog, options, choices = "nicolai", _GLOBAL_OPTIONS, tuple(_COMMANDS)
        about = "Exact finite-interval computations for the Nicolai fermion chain.\n\ncommands:"
        about += "".join(f"\n  {name:<10} {entry[1]}" for name, entry in _COMMANDS.items())
    else:
        _, about, positional, options = _COMMANDS[command]
        prog, choices = f"nicolai {command}", positional[1] if positional else ()
    words = [prog]
    for name, (reader, default) in options.items():
        meta = "{" + ",".join(reader) + "}" if isinstance(reader, tuple) else _dest(name).upper()
        words.append(f"{name} {meta}" if default is _REQUIRED else f"[{name} {meta}]")
    words += ["{" + ",".join(choices) + "}"] if choices else []
    words += ["..."] if command is None else []
    return f"usage: {' '.join(words)}\n\n{about}\n"


def _parse(argv: List[str]) -> SimpleNamespace:
    """Read ``argv`` against ``_GLOBAL_OPTIONS`` and ``_COMMANDS`` in the grammar
    of the module docstring; a bad line raises a usage ``_CommandFailure``."""
    prog, command, options = "nicolai", None, _GLOBAL_OPTIONS
    positional = ("command", tuple(_COMMANDS))
    args = SimpleNamespace(**_defaults(options))

    def reject(message):
        return _CommandFailure(_EXIT_USAGE, f"{prog}: {message}")

    def read(label, reader, value):
        if not isinstance(reader, tuple):
            try:
                return reader(value)
            except ValueError:  # only ``_integer`` refuses a value
                raise reject(f"argument {label}: invalid int value: {value!r}")
        if value not in reader:
            raise reject(f"argument {label}: invalid choice: {value!r}")
        return value

    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            _write([_help(command).encode()], None)
            raise SystemExit(0)
        name, eq, value = token.partition("=")
        if name in options:
            value = value if eq else next(tokens, None)
            if value is None:
                raise reject(f"argument {name}: expected one argument")
            setattr(args, _dest(name), read(name, options[name][0], value))
        elif positional is None or token.startswith("-"):
            raise reject(f"unrecognized argument: {token}")
        else:
            setattr(args, positional[0], read(*positional, token))
            positional = None
            if command is None:
                command, prog = token, f"nicolai {token}"
                args.handler, _, positional, options = _COMMANDS[command]
                vars(args).update(_defaults(options))
    missing = [positional[0]] if positional else []
    missing += [name for name in options if getattr(args, _dest(name)) is _REQUIRED]
    if missing:
        raise reject("the following arguments are required: " + ", ".join(missing))
    return args


def main(argv=None) -> int:
    started = time.perf_counter()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return _run(argv, started)
    except _StdoutLost:
        return _EXIT_USAGE


def _run(argv: List[str], started: float) -> int:
    try:
        args = _parse(argv)
    except _CommandFailure as failure:
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
        reason, code = failure.reason, failure.code
    except GenerationError as exc:
        reason, code = str(exc), _EXIT_FAILURE
    except (OverflowError, MemoryError) as exc:
        reason, code = str(exc) or type(exc).__name__, _EXIT_RESOURCE
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        reason, code = str(exc), _EXIT_USAGE
    return _emit_failure(args.command, params, reason, code, started)


if __name__ == "__main__":
    sys.exit(main())
