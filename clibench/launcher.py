"""Run one nicolai command in this fresh interpreter and report what it cost.

    python3 clibench/launcher.py REPORT TRACE CLI_ARG...

The command's standard output, standard error and exit code are those of
``python -m nicolai.cli CLI_ARG...``.  In addition the launcher writes the JSON
file REPORT with ``import_s`` (importing ``nicolai.cli``), ``main_s`` (inside
``nicolai.cli.main``), ``peak_rss_kib`` (``ru_maxrss``) and, when TRACE is 1,
the per-layer figures of ``layers.Tracer``.  ``nicolai`` must be importable,
as it is with ``PYTHONPATH=src``.
"""

import json
import resource
import sys
import time


def main() -> int:
    report_path, trace, cli_args = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    started = time.perf_counter()
    import nicolai.cli

    import_s = time.perf_counter() - started
    entry, tracer = nicolai.cli.main, None
    if trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.span("cli.main", entry)
    started = time.perf_counter()
    code = entry(cli_args)
    sys.stdout.flush()
    main_s = time.perf_counter() - started
    report = {
        "exit_code": code,
        "import_s": import_s,
        "main_s": main_s,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": dict(tracer.totals) if tracer else {},
    }
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
