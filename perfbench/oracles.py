"""Correctness oracles: one check per task kind against frozen references.

The checks test the documented facts (exit code, orbit size, characteristic
polynomial, exact counts, file digests, spectrum counts), and test enclosures
only for containing a frozen high-precision reference, so a later change may
tighten an enclosure without failing here.  `references.json` is written by
`freeze.py`.
"""

from __future__ import annotations

import hashlib
import json
import os
from decimal import Decimal, localcontext
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def out_path(argv: list[str]) -> str | None:
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def log_base(value: Fraction, base: int, digits: int = 50) -> Fraction:
    with localcontext() as ctx:
        ctx.prec = digits
        num = Decimal(value.numerator) / Decimal(value.denominator)
        return Fraction(num.ln() / Decimal(base).ln())


def _interval(pair) -> tuple[Fraction, Fraction]:
    return Fraction(pair[0]), Fraction(pair[1])


def _check_dimension(ref, argv, stdout):
    report = json.loads(stdout)
    if report["k"] != ref["k"]:
        return f"k = {report['k']}, expected {ref['k']}"
    if report["char_poly"] != ref["char_poly"]:
        return "char_poly differs from the frozen polynomial"
    lo, hi = _interval(report["alpha"])
    if hi - lo > Fraction(1, 10 ** 12):
        return f"alpha enclosure wider than 1e-12: {hi - lo}"
    alpha = Fraction(ref["alpha"])
    if not lo <= alpha <= hi:
        return "alpha enclosure misses the frozen reference"
    dim = report.get("dim") or report.get("dim_upper_bound")
    dlo, dhi = _interval(dim)
    if not dlo <= log_base(alpha, ref["base"]) <= dhi:
        return "dimension enclosure misses log_{m+1} of the reference"
    return None


def _check_orbit(ref, argv, stdout):
    first = stdout.splitlines()[0]
    if first != f"k = {ref['k']}":
        return f"first line {first!r}, expected 'k = {ref['k']}'"
    out = out_path(argv)
    with open(out + ".json") as fh:
        edges = len(json.load(fh)["edges"])
    if edges != ref["edges"]:
        return f"{edges} edges, expected {ref['edges']}"
    if sha256(out + ".json") != ref["json_sha256"]:
        return "orbit JSON differs from the frozen digest"
    if sha256(out + ".matrix.csv") != ref["csv_sha256"]:
        return "matrix CSV differs from the frozen digest"
    return None


def _check_count(ref, argv, stdout):
    expected = [f"matrix: {ref['count']}", f"brute: {ref['count']}"]
    if stdout.splitlines() != expected:
        return f"counts {stdout.splitlines()}, expected {expected}"
    return None


def parse_spectrum(csv: str) -> list[tuple[int, tuple, tuple]]:
    rows = []
    for line in csv.splitlines()[1:]:
        _, count, *gaps = line.split(",")
        rows.append((int(count), (gaps[0], gaps[1]), (gaps[2], gaps[3])))
    return rows


def _intersects(a, b) -> bool:
    (alo, ahi), (blo, bhi) = _interval(a), _interval(b)
    return max(alo, blo) <= min(ahi, bhi)


def _check_spectrum(ref, argv, stdout):
    out = out_path(argv)
    if out:
        with open(out) as fh:
            stdout = fh.read()
    rows = parse_spectrum(stdout)
    if [r[0] for r in rows] != ref["counts"]:
        return "spectrum count column differs from the frozen column"
    for level, (row, fmin, fmax) in enumerate(zip(rows, ref["min_gap"], ref["max_gap"]), 1):
        if not (_intersects(row[1], fmin) and _intersects(row[2], fmax)):
            return f"level {level}: gap enclosures miss the frozen ones"
    return None


def _check_pisot(ref, argv, stdout):
    status = json.loads(stdout)["status"]
    return None if status == ref["status"] else f"status {status}, expected {ref['status']}"


def _check_expand(ref, argv, stdout):
    first = stdout.splitlines()[0]
    return None if first == ref["first_line"] else f"printed {first!r}, expected {ref['first_line']!r}"


CHECKS = {
    "dimension": _check_dimension,
    "orbit": _check_orbit,
    "count": _check_count,
    "spectrum": _check_spectrum,
    "pisot": _check_pisot,
    "expand": _check_expand,
}


def check(ref: dict, argv: list[str], rc: int, stdout: str) -> str | None:
    """None when the invocation's exit code and output match the reference,
    else a one-line reason."""
    if rc != ref["rc"]:
        return f"exit code {rc}, expected {ref['rc']}"
    try:
        return CHECKS[argv[0]](ref, argv, stdout)
    except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
