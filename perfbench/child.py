"""Subprocess entry points of the benchmark.

    python3 perfbench/child.py probe WORKLOAD SEED
        The set-up of a run in a fresh interpreter: import betaorbit's CLI
        and build the task list.  Prints {"import_s": ...}.

    python3 perfbench/child.py trace STATS SPANS ARG...
        One cold CLI invocation `betaorbit ARG...` with the span tracer
        installed; writes the aggregates to STATS and the spans to SPANS and
        exits with the CLI's exit code.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "probe":
        t0 = time.perf_counter()
        import betaorbit.cli  # noqa: F401
        import_s = time.perf_counter() - t0
        import tasks
        tasks.build(rest[0], int(rest[1]))
        print(json.dumps({"import_s": import_s}))
        return 0
    if mode == "trace":
        stats_path, spans_path, *cli_args = rest
        import betaorbit.cli
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            rc = betaorbit.cli.main(cli_args)
        finally:
            tracer.uninstall()
        sys.stdout.flush()
        with open(stats_path, "w") as fh:
            json.dump(tracer.finish().to_json(), fh)
        tracer.dump(spans_path)
        return rc
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 64


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
