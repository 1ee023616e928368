"""Byte-for-byte guard on documented CLI outputs.

Each case runs `betaorbit.cli.main` in-process and compares the exit code,
stdout and every file written under `--out` with the copies frozen in
`tests/data/golden/<case>/`.  The cases are the README quick-start commands,
`orbit --format table|json|dot` on two bases, the labels of two larger
orbits (plastic `1/5`, k = 554, and cubic `-m 2` `b/(b+2)`, k = 734),
`spectrum --nmax 12` on a Pisot and a non-Pisot base, `spectrum -m 2` on a Pisot base and on a
non-Pisot, non-unit base, divergence and not-Pisot exits,
`dimension --format json` on the benchmark's certify inputs, and an
alternating expansion whose period is read with the step parity.  Each
`dimension` case also runs in the default table format, which must print the
strings of its JSON report.

Regenerate the frozen copies (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_outputs.py --regenerate
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from betaorbit.cli import main

DATA = Path(__file__).parent / "data" / "golden"

QUINTIC = "-1,-1,-1,-1,0,1"
GOLDEN = "-1,-1,1"
SQRT2 = "-2,0,1"
SQRT3 = "-3,0,1"
PLASTIC = "-1,-1,0,1"
CUBIC = "-1,0,-1,1"
TETRA = "-1,-1,-1,-1,1"
REF_X = "1/(b^2-1)"

# case name -> argv; `{out}` is replaced by a scratch directory
CASES = {
    "readme_pisot": ["pisot", "--minpoly", QUINTIC],
    "readme_orbit": ["orbit", "--minpoly", QUINTIC, "-m", "1", "-x", REF_X,
                     "--out", "{out}/run1"],
    "readme_dimension": ["dimension", "--minpoly", QUINTIC, "-m", "1", "-x", REF_X,
                         "--format", "json"],
    "readme_expand": ["expand", "--minpoly", GOLDEN, "-m", "1", "-x", "1", "--rule", "greedy"],
    "expand_golden_half_alternating": ["expand", "--minpoly", GOLDEN, "-m", "1", "-x", "1/2",
                                       "--rule", "alternating"],
    "readme_count": ["count", "--minpoly", QUINTIC, "-m", "1", "-x", REF_X, "-n", "10",
                     "--method", "both"],
    "readme_spectrum": ["spectrum", "--minpoly", GOLDEN, "-m", "1", "--nmax", "12",
                        "--out", "{out}/gaps.csv"],
    "orbit_golden_table": ["orbit", "--minpoly", GOLDEN, "-m", "1", "-x", "1/3"],
    "orbit_golden_json": ["orbit", "--minpoly", GOLDEN, "-m", "1", "-x", "1/3",
                          "--format", "json"],
    "orbit_golden_dot": ["orbit", "--minpoly", GOLDEN, "-m", "1", "-x", "1/3",
                         "--format", "dot"],
    "orbit_quintic_table": ["orbit", "--minpoly", QUINTIC, "-m", "1", "-x", REF_X],
    "orbit_quintic_json": ["orbit", "--minpoly", QUINTIC, "-m", "1", "-x", REF_X,
                           "--format", "json"],
    "orbit_quintic_dot": ["orbit", "--minpoly", QUINTIC, "-m", "1", "-x", REF_X,
                          "--format", "dot"],
    "orbit_plastic_fifth_table": ["orbit", "--minpoly", PLASTIC, "-m", "1", "-x", "1/5"],
    "orbit_plastic_fifth_dot": ["orbit", "--minpoly", PLASTIC, "-m", "1", "-x", "1/5",
                                "--format", "dot"],
    "orbit_cubic_m2_table": ["orbit", "--minpoly", CUBIC, "-m", "2", "-x", "b/(b+2)"],
    "orbit_golden_seventh_out": ["orbit", "--minpoly", GOLDEN, "-m", "1", "-x", "1/7",
                                 "--out", "{out}/seventh"],
    "orbit_sqrt2_diverges": ["orbit", "--minpoly", SQRT2, "-m", "1", "-x", "1/3",
                             "--state-cap", "200"],
    "spectrum_golden": ["spectrum", "--minpoly", GOLDEN, "-m", "1", "--nmax", "12"],
    "spectrum_sqrt2": ["spectrum", "--minpoly", SQRT2, "-m", "1", "--nmax", "12"],
    "spectrum_plastic_m2": ["spectrum", "--minpoly", PLASTIC, "-m", "2", "--nmax", "9"],
    "spectrum_sqrt3_m2": ["spectrum", "--minpoly", SQRT3, "-m", "2", "--nmax", "8"],
    "pisot_sqrt2": ["pisot", "--minpoly", SQRT2],
    "dimension_plastic": ["dimension", "--minpoly", PLASTIC, "-m", "1", "-x", "1/(b^3-1)",
                          "--format", "json"],
    "dimension_cubic": ["dimension", "--minpoly", CUBIC, "-m", "1", "-x", "2/b^2",
                        "--format", "json"],
    "dimension_tetra": ["dimension", "--minpoly", TETRA, "-m", "2", "-x", "2/b^2",
                        "--format", "json"],
    "dimension_golden_third": ["dimension", "--minpoly", GOLDEN, "-m", "1", "-x", "1/3",
                               "--format", "json"],
    "dimension_golden_fifth": ["dimension", "--minpoly", GOLDEN, "-m", "1", "-x", "1/5",
                               "--format", "json"],
}


def _run(argv: list[str], out_dir: Path) -> tuple[int, str, dict[str, bytes]]:
    """Exit code, stdout and the files written to out_dir by one command."""
    argv = [a.replace("{out}", str(out_dir)) for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return code, buf.getvalue(), files


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    case = DATA / name
    meta = json.loads((case / "meta.json").read_text())
    code, stdout, files = _run(CASES[name], tmp_path)
    assert code == meta["exit"]
    assert stdout.encode() == (case / "stdout").read_bytes()
    assert sorted(files) == meta["files"]
    for fname, blob in files.items():
        assert blob == (case / "files" / fname).read_bytes(), fname


@pytest.mark.parametrize("name", sorted(n for n, argv in CASES.items() if argv[0] == "dimension"))
def test_dimension_table_matches_the_json_golden(name, tmp_path):
    # the default table format prints the k, alpha, condition1 and dim (or
    # dim upper bound) strings of the frozen JSON report, with its exit code
    case = DATA / name
    report = json.loads((case / "stdout").read_text())
    argv = CASES[name]
    assert argv[-2:] == ["--format", "json"]
    code, stdout, _ = _run(argv[:-2], tmp_path)
    assert code == json.loads((case / "meta.json").read_text())["exit"]
    want = [f"k = {report['k']}", "alpha in [{}, {}]".format(*report["alpha"]),
            f"condition1: {report['condition1']}"]
    if report["dim"] is not None:
        want.append("dim in [{}, {}] (certified)".format(*report["dim"]))
    else:
        want.append(f"dim <= {report['dim_upper_bound'][1]} (dominance not verified)")
    assert stdout == "\n".join(want) + "\n"


def _regenerate() -> None:
    import shutil
    import tempfile

    for name, argv in CASES.items():
        case = DATA / name
        shutil.rmtree(case, ignore_errors=True)
        case.mkdir(parents=True)
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout, files = _run(argv, Path(tmp))
        (case / "stdout").write_bytes(stdout.encode())
        for fname, blob in files.items():
            (case / "files").mkdir(exist_ok=True)
            (case / "files" / fname).write_bytes(blob)
        meta = {"argv": argv, "exit": code, "files": sorted(files)}
        (case / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
        print(f"{name}: exit {code}, {len(files)} files", file=sys.stderr)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    os.chdir(Path(__file__).parent.parent)
    _regenerate()
