"""Closed-loop benchmark of the nicolai command line.

    python3 clibench/run.py --workload {spectrum,verify,ground} --seed N --seconds S --trace {0,1}

One generator runs a workload's fixed cycle of README commands, one command
at a time, each in a fresh interpreter (``launcher.py``) importing the
checkout's ``src/``, and repeats whole cycles while a typical cycle still ends
within ``--seconds``.
Every output is checked by ``checks.py`` against computations made apart from
the program.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones:

* ``cmds_per_s``: commands per second of summed spawn-to-exit time,
* ``work_s``: median over cycles of the time one cycle spends inside
  ``nicolai.cli.main`` (no interpreter start, no import),
* ``setup_s``: median over commands of the time to import ``nicolai.cli``,
* ``peak_rss_mib``: largest ``ru_maxrss`` of any command.

With ``--trace 1`` untraced and traced cycles alternate; the metrics are the
per-layer figures of ``layers.PER_LAYER`` for one traced cycle (counts) or
their median over traced cycles (times), and the tracing overhead is printed
and written beside them.  Full results go to ``clibench/out/``.
"""

import os

# Set before numpy loads, here and in every command: the dense eigenvalues the
# CLI prints change in the last bits with the BLAS thread count.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, List, Optional  # noqa: E402

from checks import (  # noqa: E402
    CheckFailure,
    check_count,
    check_replay,
    check_sequences,
    check_spectrum,
    check_verify,
    check_word,
    ground_configs,
    reference_spectrum,
)
from layers import PER_LAYER, is_time, merge  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CLI = ROOT / "src" / "nicolai" / "cli.py"
COMMAND_TIMEOUT_S = 120
HOST_LOOP_N = 1_000_000


@dataclass
class Command:
    argv: List[str]
    check: Callable[[dict], None]
    save: Optional[Path] = None  # where to keep the command's output document


@dataclass
class Outcome:
    wall_s: float
    report: Optional[dict]  # launcher report; None when the command failed
    problem: str = ""  # why the output is wrong, when it is


def spectrum_cycle(rng, workdir) -> List[Command]:
    commands = []
    for n, edge in ((5, "open"), (6, "closed")):
        ref = reference_spectrum(n, edge)
        commands.append(
            Command(
                ["spectrum", "--n", str(n), "--edge", edge],
                lambda p, n=n, edge=edge, ref=ref: check_spectrum(p, n, edge, ref),
            )
        )
    return commands


def verify_cycle(rng, workdir) -> List[Command]:
    return [
        Command(["verify", suite, "--n", "4"], lambda p, s=suite: check_verify(p, s, 4))
        for suite in ("charges", "algebra")
    ]


def ground_cycle(rng, workdir) -> List[Command]:
    n_gen = 8
    pool = ground_configs(n_gen)
    word_path = workdir / "word.json"
    commands = [
        Command(["count", "--n", "12"], lambda p: check_count(p, 12)),
        Command(["enumerate", "charges", "--n", "10"], lambda p: check_sequences(p, 10)),
    ]
    for start in ("fock", "occupied"):
        target = rng.choice(pool)
        commands.append(
            Command(
                ["generate", "--n", str(n_gen), "--target", target, "--start", start],
                lambda p, s=start, t=target: check_word(p, n_gen, s, t),
                save=word_path if start == "fock" else None,
            )
        )
    commands.append(
        Command(
            ["replay", "--word", str(word_path)],
            lambda p: check_replay(p, json.loads(word_path.read_text())["payload"]),
        )
    )
    return commands


WORKLOADS = {"spectrum": spectrum_cycle, "verify": verify_cycle, "ground": ground_cycle}


def host_speed_s() -> float:
    """Median time of a fixed pure-Python loop: a reading of host speed, not a metric."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        x = 0
        for i in range(HOST_LOOP_N):
            x += i & 7
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def run_command(cmd: Command, prefix: List[str], traced: bool, workdir: Path, env: dict) -> Outcome:
    report_path = workdir / "report.json"
    report_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "launcher.py"), str(report_path), str(int(traced))]
    started = time.perf_counter()
    proc = subprocess.run(
        argv + prefix + cmd.argv, cwd=ROOT, env=env, capture_output=True, timeout=COMMAND_TIMEOUT_S
    )
    wall_s = time.perf_counter() - started
    if proc.returncode != 0 or not report_path.is_file():
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        print(f"command failed ({proc.returncode}): {' '.join(cmd.argv)} {tail}", file=sys.stderr)
        return Outcome(wall_s, None)
    report = json.loads(report_path.read_text())
    if cmd.save is not None:
        cmd.save.write_bytes(proc.stdout)
    try:
        doc = json.loads(proc.stdout)
        if doc["status"] != "ok" or doc["command"] != cmd.argv[0]:
            raise CheckFailure(f"status {doc['status']!r} for command {doc['command']!r}")
        cmd.check(doc["payload"])
    except (CheckFailure, KeyError, TypeError, ValueError) as exc:
        problem = f"{' '.join(cmd.argv)}: {type(exc).__name__}: {exc}"
        print(f"wrong output: {problem}", file=sys.stderr)
        return Outcome(wall_s, report, problem)
    return Outcome(wall_s, report)


def layer_totals(outcomes: List[Outcome]) -> dict:
    total: dict = {}
    for o in outcomes:
        if o.report is not None:
            merge(total, o.report["layers"])
    return total


def cycle_work_s(outcomes: List[Outcome]) -> float:
    return sum(o.report["main_s"] for o in outcomes if o.report is not None)


def end_to_end(cycles: List[List[Outcome]]) -> dict:
    done = [o for c in cycles for o in c if o.report is not None]
    if not done:
        return {}
    return {
        "cmds_per_s": (len(done) / sum(o.wall_s for o in done), "1/s"),
        "work_s": (statistics.median(cycle_work_s(c) for c in cycles), "s"),
        "setup_s": (statistics.median(o.report["import_s"] for o in done), "s"),
        "peak_rss_mib": (max(o.report["peak_rss_kib"] for o in done) / 1024, "MiB"),
    }


def per_layer(cycles: List[List[Outcome]]) -> tuple:
    """Layer metrics over traced cycles, and a reason if their counts differ."""
    totals = [layer_totals(c) for c in cycles]
    metrics, problem = {}, ""
    for name, unit in PER_LAYER:
        values = [t.get(name, 0) for t in totals]
        if is_time(name):
            metrics[name] = (statistics.median(values), unit)
        else:
            if len(set(values)) > 1:
                problem = f"{name} differs between identical cycles: {values}"
            metrics[name] = (values[0], unit)
    return metrics, problem


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not CLI.is_file():
        print(f"no nicolai sources at {CLI.parent}; run from a full checkout", file=sys.stderr)
        return 2

    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        rng = random.Random(args.seed)
        cli_seed = str(rng.randrange(1 << 16))
        prefix = ["--seed", cli_seed]
        cycle = WORKLOADS[args.workload](rng, workdir)
        host_before = host_speed_s()
        plain, traced, round_s = [], [], []
        modes = (False, True) if args.trace else (False,)
        started = time.perf_counter()
        # Start another whole round only if a typical round still ends in time.
        while not round_s or time.perf_counter() - started + statistics.median(round_s) <= args.seconds:
            round_started = time.perf_counter()
            # Alternate which cycle of a traced round goes first, so that an
            # order effect does not enter the tracing overhead.
            for tracing in modes if len(round_s) % 2 == 0 else modes[::-1]:
                cycles = traced if tracing else plain
                cycles.append([run_command(c, prefix, tracing, workdir, env) for c in cycle])
            round_s.append(time.perf_counter() - round_started)
        elapsed_s = time.perf_counter() - started
        host_after = host_speed_s()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = [o for c in plain + traced for o in c]
    problems = [o.problem for o in outcomes if o.problem]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "cli_seed": int(cli_seed),
        "commands": [" ".join(prefix + c.argv) for c in cycle],
        "cycles": len(plain) + len(traced),
        "elapsed_s": elapsed_s,
        "host_speed_s": {"before": host_before, "after": host_after},
        "untraced": {k: v for k, (v, _) in end_to_end(plain).items()},
        "untraced_work_s_per_cycle": [cycle_work_s(c) for c in plain],
    }
    if args.trace:
        metrics, problem = per_layer(traced)
        problems += [problem] if problem else []
        summary["traced"] = {k: v for k, (v, _) in end_to_end(traced).items()}
        summary["traced_work_s_per_cycle"] = [cycle_work_s(c) for c in traced]
        if "work_s" in summary["traced"] and "work_s" in summary["untraced"]:
            summary["trace_overhead_s"] = summary["traced"]["work_s"] - summary["untraced"]["work_s"]
        name = f"trace-{args.workload}-seed{args.seed}.json"
    else:
        metrics = end_to_end(plain)
        name = f"result-{args.workload}-seed{args.seed}.json"
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(o.report is None for o in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    summary.update(result, problems=problems)
    (OUT / name).write_text(json.dumps(summary, indent=1) + "\n")
    print(
        f"host speed (fixed pure-Python loop, not a metric): "
        f"before {host_before:.4f} s, after {host_after:.4f} s"
    )
    if "trace_overhead_s" in summary:
        print(f"tracing overhead: {summary['trace_overhead_s']:+.4f} s of work_s per cycle")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
