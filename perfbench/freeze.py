#!/usr/bin/env python3
"""Re-create the frozen references and the exact work counters.

    python3 perfbench/freeze.py

Runs every task that any seed can produce once through betaorbit.cli.main
and stores in references.json what oracles.py checks: the exit code, the
orbit size, the characteristic polynomial with a 40-digit Perron root
computed by sympy (independently of betaorbit's root isolation), edge
counts, file digests, word counts and spectrum columns.  Then it traces
every task twice and writes the exact work counters to counters.json, but
only if the two traced runs agree.

The frozen files are the baseline that later changes are checked against:
re-create them only for a change that is meant to alter these outputs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
import spans  # noqa: E402
import tasks  # noqa: E402
from run import COUNTERS, WORKLOADS, call_cli  # noqa: E402


def perron_root(char_poly: list[int]) -> str:
    import sympy
    z = sympy.Symbol("z")
    roots = sympy.Poly(list(reversed(char_poly)), z).real_roots()
    return str(roots[-1].evalf(40))


def reference(kind: str, argv: list[str], rc: int, stdout: str) -> dict:
    ref = {"rc": rc}
    out = oracles.out_path(argv)
    if kind == "dimension":
        report = json.loads(stdout)
        m = int(argv[argv.index("-m") + 1])
        ref.update(k=report["k"], char_poly=report["char_poly"],
                   alpha=perron_root(report["char_poly"]), base=m + 1)
    elif kind == "orbit":
        with open(out + ".json") as fh:
            edges = len(json.load(fh)["edges"])
        ref.update(k=int(stdout.splitlines()[0].split("=")[1]), edges=edges,
                   json_sha256=oracles.sha256(out + ".json"),
                   csv_sha256=oracles.sha256(out + ".matrix.csv"))
    elif kind == "count":
        counts = dict(line.split(": ") for line in stdout.splitlines())
        if counts["matrix"] != counts["brute"]:
            raise SystemExit(f"matrix and brute-force counts differ: {argv}")
        ref["count"] = int(counts["matrix"])
    elif kind == "spectrum":
        if out:
            with open(out) as fh:
                stdout = fh.read()
        rows = oracles.parse_spectrum(stdout)
        ref.update(counts=[r[0] for r in rows], min_gap=[list(r[1]) for r in rows],
                   max_gap=[list(r[2]) for r in rows])
    elif kind == "pisot":
        ref["status"] = json.loads(stdout)["status"]
    elif kind == "expand":
        ref["first_line"] = stdout.splitlines()[0]
    return ref


# facts the README documents; a freeze that contradicts one is refused
DOCUMENTED = {
    "expand --minpoly -1,-1,1 -m 1 -x 1 --rule greedy": {"rc": 0, "first_line": "11(0)"},
    f"pisot --minpoly {tasks.QUINTIC}": {"rc": 0, "status": "pisot"},
    f"pisot --minpoly {tasks.SQRT2}": {"rc": 2, "status": "not_pisot"},
}


def main() -> int:
    unique = {}
    for name in WORKLOADS:
        for task in tasks.all_tasks(name):
            unique.setdefault(task.key, task)
    work = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        refs = {}
        for key, task in unique.items():
            argv = task.expand(work)
            rc, stdout, stderr = call_cli(argv)
            if rc is None:
                raise SystemExit(f"{key} crashed:\n{stderr}")
            refs[key] = reference(task.kind, argv, rc, stdout)
            for fact, value in DOCUMENTED.get(key, {}).items():
                if refs[key][fact] != value:
                    raise SystemExit(f"{key}: {fact} = {refs[key][fact]!r}, README says {value!r}")
            print(f"{key}: rc {rc}", flush=True)

        tracer = spans.Tracer()
        runs = []
        for _ in range(2):
            tracer.install()
            try:
                counters = {}
                for key, task in unique.items():
                    call_cli(task.expand(work))
                    counters[key] = tracer.finish().exact()
            finally:
                tracer.uninstall()
            runs.append(counters)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if runs[0] != runs[1]:
        bad = [k for k in runs[0] if runs[0][k] != runs[1][k]]
        raise SystemExit(f"exact counters differ between two traced runs: {bad}")
    with open(oracles.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(COUNTERS, "w") as fh:
        json.dump(runs[0], fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"froze {len(refs)} tasks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
