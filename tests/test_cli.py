import contextlib
import importlib
import importlib.util
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import betaorbit
from betaorbit import cli, polys
from betaorbit.cli import main

GOLDEN = "-1,-1,1"
QUINTIC = "-1,-1,-1,-1,0,1"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _env() -> dict:
    """The environment of a fresh interpreter that imports this betaorbit."""
    return dict(os.environ, PYTHONPATH=str(Path(betaorbit.__file__).parents[1]))


# === pisot ===

def test_pisot_exit_codes(capsys):
    assert run(capsys, "pisot", "--minpoly", QUINTIC)[0] == 0
    assert run(capsys, "pisot", "--minpoly", "-2,1")[0] == 0
    assert run(capsys, "pisot", "--minpoly", "-3,0,1")[0] == 2
    assert run(capsys, "pisot", "--minpoly", "1,-1,-1,-1,1")[0] == 3  # Salem-type


def test_pisot_huge_constant_term_exits_2_quickly(capsys):
    # z^2 - (2^64 + 1): the integer-root search is logarithmic in the
    # constant term, not a divisor search over it
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "pisot", "--minpoly", "-18446744073709551617,0,1")
    assert code == 2 and json.loads(out)["status"] == "not_pisot"
    assert time.perf_counter() - t0 < 5.0


def test_pisot_prints_certificate_json(capsys):
    code, out, _ = run(capsys, "pisot", "--minpoly", GOLDEN)
    blob = json.loads(out)
    assert blob["is_pisot"] is True
    assert blob["status"] == "pisot"


def test_pisot_exhausted_certification_budget_exits_64(capsys, monkeypatch):
    from betaorbit import polys
    monkeypatch.setattr(polys, "newton_box", lambda p, dp, box: (box, False))
    code, out, err = run(capsys, "pisot", "--minpoly", QUINTIC)
    assert code == 64
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: failed to certify")


def test_pisot_coefficient_beyond_the_float_range_exits_64(capsys):
    # z^3 - 10^400: the complex roots are proposed in floats, which cannot
    # take the constant term; once an OverflowError traceback and exit 1
    code, out, err = run(capsys, "pisot", "--minpoly", f"-{10 ** 400},0,0,1")
    assert code == 64
    assert out == ""
    assert len(err.splitlines()) == 1 and "float range" in err


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.integers(-6, 6), st.integers(-2 ** 1100, 2 ** 1100)), max_size=4),
       st.booleans())
@example([-10 ** 400, 0, 0], True)
@example([-int(1.7e308), 0, 0, 0], True)  # in range, but the float iterates overflow
def test_pisot_exits_only_with_documented_codes(low, monic):
    # any integer coefficients, some beyond the float range (about 1.8e308):
    # a certificate on stdout with 0, 2 or 3, or one error line with 64
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["pisot", "--minpoly", ",".join(map(str, low + [1] if monic else low))])
    if code == 64:
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1
    else:
        assert code in (0, 2, 3) and err.getvalue() == ""
        assert json.loads(out.getvalue())["status"] == {0: "pisot", 2: "not_pisot", 3: "unknown"}[code]


def test_pisot_negative_budget_exits_64(capsys):
    code, out, err = run(capsys, "pisot", "--minpoly", GOLDEN, "--budget", "-1")
    assert code == 64
    assert out == ""
    assert err == "error: budget must be nonnegative\n"


def test_pisot_budget_above_the_halving_bound_exits_64(capsys):
    # a budget of 10^9 once ran for minutes on the Salem quartic, building
    # 1 << budget and refining towards it; the bound is the one --tol has
    code, out, err = run(capsys, "pisot", "--minpoly", "1,-1,-1,-1,1",
                         "--budget", str(polys.MAX_HALVINGS + 1))
    assert code == 64
    assert out == ""
    assert err == f"error: budget must be at most {polys.MAX_HALVINGS}\n"
    assert run(capsys, "pisot", "--minpoly", "1,-1,-1,-1,1", "--budget", "4000")[0] == 3


# === orbit ===

def test_orbit_prints_k(capsys):
    code, out, _ = run(capsys, "orbit", "--minpoly", QUINTIC, "-m", "1", "-x", "1/(b^2-1)")
    assert code == 0
    assert out.splitlines()[0] == "k = 10"


def test_orbit_golden(capsys):
    code, out, _ = run(capsys, "orbit", "--minpoly", GOLDEN, "-m", "1", "-x", "1")
    assert code == 0
    assert out.splitlines()[0] == "k = 4"


def test_orbit_zero_point(capsys):
    code, out, _ = run(capsys, "orbit", "--minpoly", GOLDEN, "-m", "1", "-x", "0")
    assert code == 0
    assert out.splitlines()[0] == "k = 1"


def test_orbit_divergence_exit(capsys):
    code, out, _ = run(capsys, "orbit", "--minpoly", "-2,0,1", "-m", "1", "-x", "1",
                       "--state-cap", "200")
    assert code == 4
    assert "diverged" in out


def test_orbit_outside_interval(capsys):
    code, _, err = run(capsys, "orbit", "--minpoly", GOLDEN, "-m", "1", "-x", "0-1")
    assert code == 65


def test_point_with_a_leading_minus_is_a_value_not_an_option(capsys):
    # -x -1+b is the point b - 1, as -x b-1 and -x=-1+b are
    code, out, err = run(capsys, *POINT_ARGS, "-1+b")
    assert (code, out.splitlines()[0], err) == (0, "k = 4", "")
    assert run(capsys, *POINT_ARGS, "b-1") == (code, out, err)
    code, out, err = run(capsys, *POINT_ARGS, "-1/3")
    assert (code, out) == (65, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "outside" in err


def test_orbit_writes_files(tmp_path, capsys):
    base = str(tmp_path / "orbit")
    code, _, _ = run(capsys, "orbit", "--minpoly", GOLDEN, "-m", "1", "-x", "1",
                     "--out", base)
    assert code == 0
    graph = json.loads((tmp_path / "orbit.json").read_text())
    assert len(graph["states"]) == 4
    dot = (tmp_path / "orbit.dot").read_text()
    assert dot.startswith("digraph orbit {")
    matrix = json.loads((tmp_path / "orbit.matrix.json").read_text())
    assert matrix["k"] == 4
    csv = (tmp_path / "orbit.matrix.csv").read_text()
    assert csv.splitlines()[0] == "0,1,1,0"


def test_orbit_json_state_roundtrips_as_input(capsys):
    # a state written by one command is accepted unchanged as -x downstream
    code, out, _ = run(capsys, "orbit", "--minpoly", QUINTIC, "-m", "1",
                       "-x", "1/(b^2-1)", "--format", "json")
    assert code == 0
    blob = json.loads(out.split("\n", 1)[1])
    state0 = json.dumps(blob["states"][0])
    code2, out2, _ = run(capsys, "orbit", "--minpoly", QUINTIC, "-m", "1", "-x", state0)
    assert code2 == 0
    assert out2.splitlines()[0] == "k = 10"


# === dimension ===

def test_dimension_quintic_json(capsys):
    code, out, _ = run(capsys, "dimension", "--minpoly", QUINTIC, "-m", "1",
                       "-x", "1/(b^2-1)", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["condition1"] == "VerifiedPrimitive"
    assert blob["char_poly"] == [1, 0, 0, 0, 0, -2, 0, 0, -1, 0, 1]
    alo, ahi = map(float, blob["alpha"])
    assert alo <= 1.3247179572448 <= ahi
    dlo, dhi = map(float, blob["dim"])
    assert dlo <= 0.405685231376 <= dhi
    assert len(blob["eigenvector"]) == 10


def test_dimension_degenerate_exit_five(capsys):
    code, out, _ = run(capsys, "dimension", "--minpoly", GOLDEN, "-m", "1", "-x", "1")
    assert code == 5
    assert "condition1: FailedPeripheralSpectrum" in out
    assert "alpha in [1." in out
    assert "dim <=" in out


def test_dimension_single_state(capsys):
    code, out, _ = run(capsys, "dimension", "--minpoly", GOLDEN, "-m", "1", "-x", "0")
    assert code == 0
    assert "dim in [0." in out


def test_dimension_has_no_gap_tolerance_option(capsys):
    code, _, err = run(capsys, "dimension", "--minpoly", QUINTIC, "-m", "1",
                       "-x", "1/(b^2-1)", "--gap-tol", "1e-9")
    assert code == 64
    assert "--gap-tol" in err


# === expand ===

def test_expand_golden_greedy(capsys):
    code, out, _ = run(capsys, "expand", "--minpoly", GOLDEN, "-m", "1", "-x", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "11(0)"
    assert lines[1] == "preperiod 2, period 1"


def test_expand_zero(capsys):
    code, out, _ = run(capsys, "expand", "--minpoly", GOLDEN, "-m", "1", "-x", "0")
    assert code == 0
    assert out.splitlines()[0] == "(0)"


def test_expand_quintic_periodic(capsys):
    for rule in ("greedy", "lazy", "alternating"):
        code, out, _ = run(capsys, "expand", "--minpoly", QUINTIC, "-m", "1",
                           "-x", "1/(b^2-1)", "--rule", rule)
        assert code == 0


def test_expand_no_period_exit(capsys):
    code, out, _ = run(capsys, "expand", "--minpoly", GOLDEN, "-m", "1", "-x", "1",
                       "--steps", "1")
    assert code == 7
    assert "no period within 1 steps" in out


def _coeffs(*pairs):
    return [{"coeffs": list(c)} for c in pairs]


def test_expand_json_of_a_periodic_run(capsys):
    code, out, _ = run(capsys, "expand", "--minpoly", GOLDEN, "-m", "1", "-x", "1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"preperiod": [1, 1], "period": [0],
                               "states": _coeffs(("1", "0"), ("-1", "1"), ("0", "0"))}


def test_expand_json_without_a_period_has_a_null_period(capsys):
    code, out, _ = run(capsys, "expand", "--minpoly", GOLDEN, "-m", "1", "-x", "1/3",
                       "--steps", "3", "--format", "json")
    assert code == 7
    assert json.loads(out) == {
        "preperiod": [0, 0, 1], "period": None,
        "states": _coeffs(("1/3", "0"), ("0", "1/3"), ("1/3", "1/3"), ("-2/3", "2/3"))}


# === count ===

def test_count_both_methods_agree(capsys):
    code, out, _ = run(capsys, "count", "--minpoly", QUINTIC, "-m", "1",
                       "-x", "1/(b^2-1)", "-n", "10")
    assert code == 0
    lines = dict(line.split(": ") for line in out.splitlines())
    assert lines["matrix"] == lines["brute"] == "26"


def test_count_single_method(capsys):
    code, out, _ = run(capsys, "count", "--minpoly", GOLDEN, "-m", "1", "-x", "1",
                       "-n", "20", "--method", "brute")
    assert code == 0
    assert out.strip() == "brute: 21"


def test_count_both_methods_disagreeing_exits_6(capsys, monkeypatch):
    from betaorbit import orbit
    monkeypatch.setattr(orbit, "count_prefixes_matrix", lambda mat, start, n: 22)
    code, out, err = run(capsys, "count", "--minpoly", GOLDEN, "-m", "1", "-x", "1", "-n", "20")
    assert (code, err) == (6, "")
    assert out == "matrix: 22\nbrute: 21\nMISMATCH between matrix and brute-force counts\n"


def test_count_negative_word_length_exits_64(capsys):
    code, out, err = run(capsys, "count", "--minpoly", GOLDEN, "-m", "1", "-x", "1", "-n", "-1")
    assert (code, out, err) == (64, "", "error: n must be nonnegative\n")


def test_count_brute_word_length_beyond_the_recursion_limit(capsys):
    code, out, _ = run(capsys, "count", "--minpoly", GOLDEN, "-m", "1", "-x", "0",
                       "-n", "2000", "--method", "brute")
    assert code == 0
    assert out.strip() == "brute: 1"


def test_count_brute_on_a_non_pisot_base_exits_4_at_the_state_cap(capsys):
    # base sqrt2: the brute-force levels of 1/3 grow about 4x every 4 words
    # (149 169 points at n = 36), so n = 60 ends only through the cap
    start = time.perf_counter()
    code, out, _ = run(capsys, "count", "--minpoly", "-2,0,1", "-m", "1", "-x", "1/3",
                       "-n", "60", "--method", "brute", "--state-cap", "1000")
    assert time.perf_counter() - start < 2
    assert code == 4
    assert out == "diverged: 1002 states found, state cap hit\n"


def test_count_brute_within_the_state_cap_is_unchanged(capsys):
    # the quintic orbit of 1/(b^2-1) has 10 states, so no level holds more
    for cap in ("10", "100000"):
        code, out, _ = run(capsys, "count", "--minpoly", QUINTIC, "-m", "1", "-x", "1/(b^2-1)",
                           "-n", "10", "--method", "brute", "--state-cap", cap)
        assert (code, out) == (0, "brute: 26\n")


def test_count_prints_counts_beyond_the_int_to_str_digit_limit():
    # the golden-ratio count of 1/3 at n = 50000 has more than 4300 digits,
    # the interpreter's default limit for str() of an int.  A fresh
    # interpreter, so the limit starts at that default.
    proc = subprocess.run([sys.executable, "-m", "betaorbit", "count", "--minpoly", GOLDEN,
                           "-m", "1", "-x", "1/3", "-n", "50000", "--method", "both"],
                          capture_output=True, text=True, timeout=60,
                          env=dict(_env(), PYTHONINTMAXSTRDIGITS="4300"))
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = dict(line.split(": ") for line in proc.stdout.splitlines())
    assert lines["matrix"] == lines["brute"] and len(lines["matrix"]) > 4300


@pytest.mark.parametrize("argv", [["orbit"], ["dimension"], ["count", "-n", "5"],
                                  ["count", "-n", "5", "--method", "matrix"]])
def test_every_orbit_command_prints_the_same_diverged_line(capsys, argv):
    code, out, err = run(capsys, *argv, "--minpoly", "-2,0,1", "-m", "1", "-x", "1",
                         "--state-cap", "200")
    assert (code, out, err) == (4, "diverged: 201 states found, state cap hit\n", "")


# === spectrum ===

def test_spectrum_stdout_and_file(tmp_path, capsys):
    code, out, _ = run(capsys, "spectrum", "--minpoly", "-2,1", "-m", "1", "--nmax", "3")
    assert code == 0
    assert out.splitlines()[0] == "level,count,min_gap_lo,min_gap_hi,max_gap_lo,max_gap_hi"
    target = tmp_path / "spec.csv"
    code, out2, _ = run(capsys, "spectrum", "--minpoly", "-2,1", "-m", "1",
                        "--nmax", "3", "--out", str(target))
    assert code == 0
    assert target.read_text() == out


def test_spectrum_rejects_bad_depth_before_any_level(capsys, monkeypatch):
    from betaorbit import spacing

    def no_level(*args):
        raise AssertionError("a level was enumerated")

    monkeypatch.setattr(spacing, "_levels", no_level)
    for nmax in ("0", "-3"):
        code, out, err = run(capsys, "spectrum", "--minpoly", GOLDEN, "--nmax", nmax)
        assert (code, out) == (64, "") and "at least 1" in err
    code, out, err = run(capsys, "spectrum", "--minpoly", "-2,0,1", "--nmax", "24")
    assert (code, out) == (64, "") and "guard" in err


@pytest.mark.parametrize("m, nmax", [("1", "20000"), ("2", "3000000")])
def test_spectrum_far_beyond_the_guard_exits_64_quickly(capsys, m, nmax):
    # (m+1)^nmax has thousands of digits here; the guard must neither build
    # it nor print it (str() of a 4300-digit integer raises)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "spectrum", "--minpoly", GOLDEN, "-m", m, "--nmax", nmax)
    assert (code, out) == (64, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "exceeds the enumeration guard" in err
    assert time.perf_counter() - t0 < 0.5


def test_spectrum_on_a_reducible_base_exits_64(capsys):
    # z^2 - 3z + 2 = (z - 1)(z - 2): beta = 2 and beta^2 = 3*beta - 2 are
    # distinct numerator tuples of one value, so they meet in an exact run
    code, out, err = run(capsys, "spectrum", "--minpoly", "2,-3,1", "-m", "1", "--nmax", "5")
    assert (code, out) == (64, "")
    assert "distinct representations coincide" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [["orbit"], ["dimension"], ["count", "-n", "5"], ["expand"]])
def test_a_minpoly_with_an_integer_root_exits_64(capsys, argv):
    # z^2 - 5z + 6 = (z - 2)(z - 3), beta = 2: the orbit of 1/3 is finite,
    # but beta and 2 are distinct coordinate vectors of one point, so the
    # search would never close; -m 1 and -m 2 now fail alike
    for m in ("1", "2"):
        code, out, err = run(capsys, *argv, "--minpoly", "6,-5,1", "--root-rank", "1",
                             "-m", m, "-x", "1/3")
        assert (code, out) == (64, "")
        assert err == "error: z^2 - 5*z + 6 has the integer root 2; give beta's minimal polynomial\n"


def test_orbit_dot_format(capsys):
    code, out, _ = run(capsys, "orbit", "--minpoly", GOLDEN, "-m", "1", "-x", "1",
                       "--format", "dot")
    assert code == 0
    assert "digraph orbit {" in out
    assert '-> 2 [label="0"];' in out


def test_root_rank_flag(capsys):
    # z^2 - 5z + 6 = (z-2)(z-3); rank 1 picks the root 2
    code, out, _ = run(capsys, "pisot", "--minpoly", "6,-5,1", "--root-rank", "1")
    blob = json.loads(out)
    assert blob["beta_lower"] == "2"


def test_dimension_tol_flag(capsys):
    code, out, _ = run(capsys, "dimension", "--minpoly", QUINTIC, "-m", "1",
                       "-x", "1/(b^2-1)", "--tol", "1e-6", "--format", "json")
    assert code == 0
    alo, ahi = map(float, json.loads(out)["alpha"])
    assert ahi - alo <= 1e-6


def test_dimension_tol_beyond_the_halving_budget_exits_64_before_bisecting(capsys, monkeypatch):
    # 1e-3000 takes about 9960 halvings of alpha's isolating interval; no
    # halving of it may run, on a primitive graph or on one SCC of period 8
    from betaorbit import spectral
    steps = []
    halve = spectral._halve
    monkeypatch.setattr(spectral, "_halve", lambda *a: steps.append(1) or halve(*a))
    for minpoly, point in ((QUINTIC, "1/(b^2-1)"), (GOLDEN, "1/3")):
        code, out, err = run(capsys, "dimension", "--minpoly", minpoly, "-m", "1",
                             "-x", point, "--tol", "1e-3000")
        assert code == 64 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"budget of {polys.MAX_HALVINGS}" in err
    assert steps == []


def test_dimension_nonpositive_tol_exits_64_before_the_orbit_search(capsys, monkeypatch):
    from betaorbit import orbit
    monkeypatch.setattr(orbit, "compute_orbit", lambda *a, **k: pytest.fail("searched the orbit"))
    for tol in ("0", "-1e-6", "0/7"):
        code, out, err = run(capsys, "dimension", "--minpoly", QUINTIC, "-m", "1",
                             "-x", "1/3", f"--tol={tol}")
        assert (code, out, err) == (64, "", "error: tol must be positive\n")


def test_dimension_tol_within_the_halving_budget(capsys):
    code, out, err = run(capsys, "dimension", "--minpoly", QUINTIC, "-m", "1",
                         "-x", "1/(b^2-1)", "--tol", "1e-300", "--format", "json")
    assert code == 0 and err == ""
    blob = json.loads(out)
    assert blob["condition1"] == "VerifiedPrimitive"
    assert blob["alpha"] == ["1.324717957244746025960908854478", "1.324717957244746025960908854479"]


# === usage errors and determinism ===

def test_usage_errors_exit_64(capsys):
    assert run(capsys, "orbit", "--minpoly", GOLDEN, "-m", "1", "-x", "1/(q)")[0] == 64
    assert run(capsys, "orbit", "--minpoly", "1,1,notint", "-m", "1", "-x", "1")[0] == 64
    code, _, err = run(capsys, "pisot", "--minpoly", "1,-2,1")  # not squarefree
    assert code == 64 and "z^2 - 2*z + 1" in err
    assert run(capsys, "orbit", "--minpoly", GOLDEN, "-m", "0", "-x", "1")[0] == 64


POINT_ARGS = ("orbit", "--minpoly", GOLDEN, "-m", "1", "-x")
REFERENCE = ("dimension", "--minpoly", QUINTIC, "-m", "1", "-x", "1/(b^2-1)", "--tol")


@pytest.mark.parametrize("argv", [
    POINT_ARGS + ("(" * 300 + "1" + ")" * 300,),
    POINT_ARGS + ('{"foo": 1}',),
    POINT_ARGS + ('{"coeffs": 5}',),
    POINT_ARGS + ('{"coeffs": [null]}',),
    POINT_ARGS + ('{"coeffs": ["1/0"]}',),
    REFERENCE + ("1/0",),
    ("dimension", "--minpoly", "-2,0,1", "-m", "1", "-x", "1/3", "--tol", "abc",
     "--state-cap", "100"),
], ids=["300-parens", "json-no-coeffs", "json-coeffs-int", "json-null", "json-zero-den", "tol-zero-den",
        "tol-before-capped-bfs"])
def test_malformed_input_exits_64_with_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 200


def test_huge_tol_exponent_exits_64_without_expanding_it():
    # Fraction("1e-9999999999") would build 10**9999999999; the exponent is
    # refused first.  A fresh interpreter, so a hang fails on the timeout.
    proc = subprocess.run([sys.executable, "-m", "betaorbit", *REFERENCE, "1e-9999999999"],
                          capture_output=True, text=True, timeout=60, env=_env())
    assert proc.returncode == 64 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("point", ["b^999999999", "2^999999999", "(b^100000)^100000"])
def test_huge_powers_exit_64_quickly(point):
    # each would take minutes or never finish if computed; the power budget
    # refuses it first.  A fresh interpreter, so a hang fails on the timeout.
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "betaorbit", "orbit", "--minpoly", QUINTIC,
                           "-m", "1", "-x", point], capture_output=True, text=True, timeout=60,
                          env=_env())
    assert proc.returncode == 64 and proc.stdout == ""
    assert proc.stderr.startswith("error: power beyond") and proc.stderr.count("\n") == 1
    assert time.perf_counter() - t0 < 10


@pytest.mark.parametrize("point,error", [
    ("1/" + "7" * 100_000, "error: a digit run longer than"),
    ("1/(2^99999*2^99999*2^99999)", "error: point beyond 200000 bits"),
], ids=["long-literal", "wide-product"])
def test_points_beyond_the_bit_budget_exit_64_quickly(capsys, point, error):
    # parsing alone took 17 s and 13 s before the point budget: the literal
    # is refused before int() reads it, and the product of three 100000-bit
    # powers as soon as it is built, before its inverse
    t0 = time.perf_counter()
    code, out, err = run(capsys, "orbit", "--minpoly", QUINTIC, "-m", "1", "-x", point)
    assert time.perf_counter() - t0 < 1
    assert code == 64 and out == ""
    assert err.startswith(error) and err.count("\n") == 1


def test_an_orbit_of_wide_states_hits_the_bits_cap():
    # each state of this orbit holds about 23 KB; at the default state cap of
    # 100000 the states alone would take gigabytes, and the bits cap stops
    # the search near 16 MiB
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "betaorbit", "orbit", "--minpoly", GOLDEN,
                           "-m", "1", "-x", "1/" + "7" * 60_000],
                          capture_output=True, text=True, timeout=120, env=_env())
    assert proc.returncode == 4 and proc.stderr == ""
    assert proc.stdout.startswith("diverged: ") and proc.stdout.endswith(" states found, bits cap hit\n")
    assert time.perf_counter() - t0 < 30


def test_a_reader_that_closes_stdout_early_gets_exit_141_without_a_traceback():
    # as in `betaorbit spectrum ... | head -0`: stdout is closed before the
    # first write, so every write fails with EPIPE
    proc = subprocess.Popen([sys.executable, "-m", "betaorbit", "spectrum", "--minpoly", GOLDEN,
                             "-m", "1", "--nmax", "12"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env())
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_a_broken_pipe_on_a_stdout_without_a_descriptor_exits_141(monkeypatch):
    class ClosedPipe(io.StringIO):  # fileno() raises io.UnsupportedOperation
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["spectrum", "--minpoly", GOLDEN, "--nmax", "4"]) == 141


def test_a_500_term_sum_parses(capsys):
    code, out, _ = run(capsys, *POINT_ARGS, "+".join(["1/1000"] * 500))
    assert (code, out) == run(capsys, *POINT_ARGS, "1/2")[:2]
    assert code == 0


def test_identical_configs_identical_bytes(capsys):
    args = ("dimension", "--minpoly", QUINTIC, "-m", "1", "-x", "1/(b^2-1)",
            "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_every_public_name_resolves_once():
    names = betaorbit.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(betaorbit, name), name


def test_the_lazy_package_root_behaves_like_eager_imports():
    assert set(betaorbit.__all__) <= set(dir(betaorbit))
    with pytest.raises(AttributeError, match=r"^module 'betaorbit' has no attribute 'no_such_name'$"):
        betaorbit.no_such_name
    namespace = {}
    exec("from betaorbit import *", namespace)
    assert set(betaorbit.__all__) <= set(namespace)
    for name, submodule in betaorbit._SUBMODULE.items():
        owner = importlib.import_module(f"betaorbit.{submodule}")
        assert namespace[name] is getattr(owner, name) is getattr(betaorbit, name), name


SHARED = {"betaorbit", "betaorbit.cli", "betaorbit.errors", "betaorbit.field", "betaorbit.polys"}
CLI_MODULES = {
    "pisot": (("pisot", "--minpoly", QUINTIC), set()),
    "spectrum": (("spectrum", "--minpoly", GOLDEN, "--nmax", "6"), {"spacing"}),
    "expand": (("expand", "--minpoly", GOLDEN, "-x", "1"), {"dynamics", "expr"}),
    "orbit": (("orbit", "--minpoly", GOLDEN, "-x", "1", "--out", "{out}"),
              {"dynamics", "expr", "orbit"}),
    "count": (("count", "--minpoly", GOLDEN, "-x", "1", "-n", "6"), {"dynamics", "expr", "orbit"}),
    "dimension": (("dimension", "--minpoly", QUINTIC, "-x", "1/(b^2-1)", "--format", "json"),
                  {"dynamics", "expr", "orbit", "spectral"}),
}


# standard-library modules that take milliseconds to import and that no
# command runs: `dataclasses` loads the other three
HEAVY = ("dataclasses", "inspect", "dis", "tokenize")


def _modules_after(code: str, *argv: str) -> set[str]:
    """The betaorbit modules, and those of HEAVY, loaded in a fresh
    interpreter after `code` runs with sys.argv[1:] == argv."""
    probe = (f"{code}\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules"
             f" if m.split('.')[0] == 'betaorbit' or m in {HEAVY!r})), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True,
                          timeout=60, env=_env())
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.splitlines()[-1]))


def test_a_bare_import_loads_no_submodule():
    assert _modules_after("import betaorbit") == {"betaorbit"}


@pytest.mark.parametrize("command", list(CLI_MODULES))
def test_each_command_imports_only_the_modules_it_runs(command, tmp_path):
    # every CLI call is a fresh interpreter: an import that the command never
    # runs is start-up time on every invocation
    argv, extra = CLI_MODULES[command]
    argv = [a.replace("{out}", str(tmp_path / "run")) for a in argv]
    loaded = _modules_after("import sys\nfrom betaorbit.cli import main\n"
                            "assert main(sys.argv[1:]) == 0", *argv)
    assert loaded == SHARED | {f"betaorbit.{m}" for m in extra}


def test_the_library_layers_load_no_heavy_standard_module():
    loaded = _modules_after("import betaorbit.spectral, betaorbit.spacing, betaorbit.orbit")
    assert loaded == {f"betaorbit.{m}" for m in ("errors", "polys", "field", "dynamics", "orbit",
                                                  "spectral", "spacing")} | {"betaorbit"}


# === the parser: one subparser per call ===

def _readme_commands() -> list[list[str]]:
    """The argument lists of the README's CLI quick start."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Quick start (CLI)")[1].split("```sh")[1].split("```")[0]
    lines = [shlex.split(line.split("#")[0])[1:] for line in block.splitlines() if line.strip()]
    assert len(lines) == 6
    return lines


def _benchmark_commands() -> list[list[str]]:
    """Every argument list of every benchmark workload, any seed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tasks.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tasks", path)
    tasks = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(tasks)
    return [list(t.expand("out")) for w in ("certify", "orbit", "spectrum", "cli")
            for t in tasks.all_tasks(w)]


USAGE_ERRORS = [
    ["orbit", "--minpoly", GOLDEN, "-m", "1"],                          # no -x
    ["dimension", "--minpoly", GOLDEN, "-x", "1", "--format", "dot"],   # a bad choice
    ["count", "--minpoly", GOLDEN, "-x", "1", "-n", "ten"],             # -n not an int
    ["pisot", "--minpoly", GOLDEN, "--no-such-option"],
    ["spectrum", "--minpoly", GOLDEN],                                  # no --nmax
    ["expand"], ["pisot", "-x"], ["nope", "--minpoly", GOLDEN], ["--minpoly", GOLDEN], [],
]


def _parse(parser, argv):
    try:
        return vars(parser.parse_args(argv))
    except cli._UsageError as exc:
        return f"error: {exc}"


def _help(parser, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        parser.parse_args(argv)
    return out.getvalue()


@pytest.mark.parametrize("argv", _readme_commands() + _benchmark_commands() + USAGE_ERRORS)
def test_the_one_command_parser_parses_as_the_full_parser(argv):
    argv = cli._fold_values(argv)
    assert _parse(cli.build_parser(argv), argv) == _parse(cli.build_parser(), argv)


@pytest.mark.parametrize("command", list(CLI_MODULES))
def test_each_command_help_reads_as_from_the_full_parser(command):
    argv = [command, "-h"]
    text = _help(cli.build_parser(argv), argv)
    assert text == _help(cli.build_parser(), argv) and text.startswith(f"usage: betaorbit {command}")


def _subparsers_built(monkeypatch, argv) -> int:
    built = []
    init = cli._Parser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", spy)
    cli.build_parser(cli._fold_values(argv))
    monkeypatch.undo()
    assert built[0] == "betaorbit"
    return len(built) - 1


@pytest.mark.parametrize("argv", [*_readme_commands(), ["pisot", "-h"]])
def test_a_command_builds_only_its_own_subparser(monkeypatch, argv):
    assert _subparsers_built(monkeypatch, argv) == 1


@pytest.mark.parametrize("argv", [[], ["-h"], ["--help"], ["nope"], ["--minpoly", GOLDEN, "pisot"]])
def test_no_command_builds_every_subparser(monkeypatch, argv):
    assert _subparsers_built(monkeypatch, argv) == len(CLI_MODULES) == 6


def test_help_and_an_unknown_command_list_all_six(capsys):
    listing = "{pisot,orbit,dimension,expand,count,spectrum}"
    assert listing in _help(cli.build_parser(["-h"]), ["-h"])
    code, out, err = run(capsys, "nope")
    assert (code, out) == (64, "")
    assert all(f"'{name}'" in err for name in CLI_MODULES)
    assert run(capsys)[:2] == (64, "")


def test_main_leaves_the_callers_int_digit_limit_as_it_was(capsys):
    # main lifts Python's limit on decimal int/str conversions for exact
    # counts; a caller in the same process gets its own limit back
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert run(capsys, "pisot", "--minpoly", GOLDEN)[0] == 0
        assert sys.get_int_max_str_digits() == 4300
        assert run(capsys, "orbit", "--minpoly", GOLDEN, "-m", "1")[0] == 64
        assert sys.get_int_max_str_digits() == 4300
        assert run(capsys, "orbit", "--minpoly", "-2,0,1", "-m", "1", "-x", "1",
                   "--state-cap", "200")[0] == 4
        assert sys.get_int_max_str_digits() == 4300
        with pytest.raises(SystemExit):
            main(["pisot", "-h"])
        assert capsys.readouterr().out.startswith("usage: betaorbit pisot")
        assert sys.get_int_max_str_digits() == 4300
        code, out, _ = run(capsys, "count", "--minpoly", GOLDEN, "-m", "1", "-x", "1/3",
                           "-n", "50000", "--method", "matrix")
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)
    count = out.removeprefix("matrix: ").rstrip("\n")
    assert code == 0 and count.isdigit() and len(count) > 4300
