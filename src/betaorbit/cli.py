"""Command-line front end: pisot | orbit | dimension | expand | count | spectrum.

Outputs are deterministic (identical configs produce byte-identical output).
Exit codes: 0 success; 2 not Pisot; 3 Pisot status unknown; 4 the orbit
search or a brute-force count hit a cap; 5 dominant eigenvalue not verified
(alpha still reported); 6 count-method mismatch; 7 no period within the
step budget; 64 usage/parse errors or an --out path that cannot be
written; 65 point outside the expansion interval; 141 the reader closed
stdout early (128 + SIGPIPE).

Every invocation is a fresh interpreter, so start-up pays for each module
imported.  The top level imports only what the parser and every command
share (errors, field, polys); each cmd_* imports the rest in its body:
`pisot` loads nothing more, `spectrum` adds spacing, `expand` adds dynamics
and expr, `orbit` and `count` add dynamics, expr and orbit, and
`dimension` adds those three and spectral.  A call builds the subparser of
its own command only (build_parser), and no module on any command path
imports dataclasses, which loads inspect, dis and tokenize.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import BetaOrbitError, CapHit, OutsideInterval
from .field import IntPolynomial, NumberField
from .polys import MAX_EXPONENT, MAX_HALVINGS, decimal_str, decimal_str_int

EXIT_OK = 0
EXIT_NOT_PISOT = 2
EXIT_PISOT_UNDECIDED = 3
EXIT_DIVERGED = 4
EXIT_NO_DOMINANCE = 5
EXIT_COUNT_MISMATCH = 6
EXIT_NO_PERIOD = 7
EXIT_USAGE = 64
EXIT_OUTSIDE = 65
EXIT_BROKEN_PIPE = 141


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _interval_strs(iv, places=30) -> list[str]:
    return [decimal_str(iv[0], places, -1), decimal_str(iv[1], places, +1)]


def _add_field_args(sub):
    sub.add_argument("--minpoly", required=True,
                     help="defining polynomial coefficients, constant first, e.g. '-1,-1,1' for z^2-z-1... "
                          "pass as 'c0,c1,...,1'")
    sub.add_argument("--root-rank", type=int, default=0,
                     help="pick the K-th largest real root (default 0, the largest)")


def _add_point_args(sub):
    _add_field_args(sub)
    sub.add_argument("-m", type=int, default=1, help="largest digit (default 1)")
    sub.add_argument("-x", required=True,
                     help="point: expression in b (e.g. '1/(b^2-1)') or FieldElement JSON")


def _add_cap_args(sub):
    sub.add_argument("--state-cap", type=int, default=100_000)
    sub.add_argument("--depth-cap", type=int, default=1_000)


def _build_field(args) -> NumberField:
    coeffs = tuple(int(c.strip()) for c in args.minpoly.split(","))
    return NumberField(IntPolynomial(coeffs), root_rank=args.root_rank)


def _build_params(args) -> tuple["ExpansionParams", "FieldElement"]:
    from .dynamics import ExpansionParams

    field = _build_field(args)
    params = ExpansionParams(field, args.m)
    x = params.parse_point(args.x)
    return params, x


def _add_pisot_args(p):
    _add_field_args(p)
    p.add_argument("--budget", type=int, default=96,
                   help="precision in bits: a conjugate whose squared-modulus enclosure "
                        "still straddles 1 stops refining once it is narrower than "
                        f"2^-BUDGET (default 96, at most {MAX_HALVINGS})")


def _add_orbit_args(p):
    _add_point_args(p)
    _add_cap_args(p)
    p.add_argument("--out", help="write OUT.json, OUT.dot, OUT.matrix.json, OUT.matrix.csv")
    p.add_argument("--format", choices=["table", "json", "dot"], default="table")


def _add_dimension_args(p):
    _add_point_args(p)
    _add_cap_args(p)
    p.add_argument("--tol", default="1e-12",
                   help=f"width of the alpha enclosure; a width that takes more than {MAX_HALVINGS} "
                        "halvings of alpha's isolating interval, or a decimal exponent beyond "
                        f"{MAX_EXPONENT} in size, is refused (exit 64)")
    p.add_argument("--format", choices=["table", "json"], default="table")


def _add_expand_args(p):
    _add_point_args(p)
    p.add_argument("--rule", choices=["greedy", "lazy", "alternating"], default="greedy")
    p.add_argument("--steps", type=int, default=10_000)
    p.add_argument("--format", choices=["table", "json"], default="table")


def _add_count_args(p):
    _add_point_args(p)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--method", choices=["matrix", "brute", "both"], default="both")
    _add_cap_args(p)


def _add_spectrum_args(p):
    _add_field_args(p)
    p.add_argument("-m", type=int, default=1)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--out", help="write CSV here instead of stdout")


# name -> (help, the arguments it adds to its subparser); its handler is cmd_<name>
_COMMANDS = {
    "pisot": ("certify whether the base is a Pisot number", _add_pisot_args),
    "orbit": ("compute the branching orbit closure of x", _add_orbit_args),
    "dimension": ("dominant eigenvalue and expansion-set dimension", _add_dimension_args),
    "expand": ("generate one expansion and detect its period", _add_expand_args),
    "count": ("count admissible digit words of length n", _add_count_args),
    "spectrum": ("power-sum spectrum gap statistics per level", _add_spectrum_args),
}


def build_parser(argv=()) -> _Parser:
    """Only the subparser of the command argv[0] names, or all of them when
    it names none (no arguments, -h, an unknown command), so usage, help and
    errors keep their text.  Handlers are looked up when the parser is
    built, so a replaced cmd_* is the one that runs."""
    parser = _Parser(prog="betaorbit", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    for name in argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS:
        help_text, add_arguments = _COMMANDS[name]
        p = subs.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(handler=globals()[f"cmd_{name}"])
    return parser


def _write_out(path: str, write) -> None:
    """Run write(fh) on the --out file at path.  Its 64 KiB buffer makes one
    write call per 64 KiB, not one per matrix row.  An OSError from this
    file (it cannot be created, or a write fails) is a usage error, exit 64;
    stdout is not written here, so a broken pipe still exits 141."""
    try:
        with open(path, "w", buffering=1 << 16) as fh:
            write(fh)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def cmd_pisot(args) -> int:
    field = _build_field(args)
    cert = field.is_pisot(budget=args.budget)
    print(json.dumps(cert.to_json(), indent=2))
    if cert.status == "pisot":
        return EXIT_OK
    if cert.status == "not_pisot":
        return EXIT_NOT_PISOT
    return EXIT_PISOT_UNDECIDED


def cmd_orbit(args) -> int:
    from .orbit import compute_orbit, transition_matrix

    params, x = _build_params(args)
    result = compute_orbit(params, x, state_cap=args.state_cap, depth_cap=args.depth_cap)
    if args.out:  # before stdout, so a failed write prints nothing
        mat = transition_matrix(result)
        _write_out(args.out + ".json", result.write_json)
        _write_out(args.out + ".dot", result.write_dot)
        _write_out(args.out + ".matrix.json", mat.write_json)
        _write_out(args.out + ".matrix.csv", mat.write_csv)
    print(f"k = {result.size}")
    if args.format == "json":
        result.write_json(sys.stdout)
        print()
    elif args.format == "dot":
        result.write_dot(sys.stdout)
    else:
        depth = result.discovery_depth
        print("\n".join(f"  {j}: {decimal_str_int(num, den, 5, -1)}  depth {depth[j - 1]}"
                        for j, (num, den) in enumerate(result.label_midpoints, start=1)))
    return EXIT_OK


def cmd_dimension(args) -> int:
    from .expr import fraction
    from .orbit import compute_orbit, transition_matrix
    from .spectral import (PerronResult, _perron_root, check_dominance, dimension,
                           log_base_interval, perron_eigenvalue)

    tol = fraction(args.tol)  # a malformed or nonpositive width exits 64 before the BFS
    if tol <= 0:
        raise _UsageError("tol must be positive")
    params, x = _build_params(args)
    result = compute_orbit(params, x, state_cap=args.state_cap, depth_cap=args.depth_cap)
    mat = transition_matrix(result)
    if args.format == "json":
        perron = perron_eigenvalue(mat, tol=tol)
    else:  # the table prints no eigenvector, so only the root stage runs
        chi, _, alpha = _perron_root(mat, tol)
        perron = PerronResult(alpha=alpha, eigenvector=(), char_poly=chi)
    dom = check_dominance(mat)

    report = {
        "k": result.size,
        "alpha": _interval_strs(perron.alpha),
        "condition1": dom.status.value,
        "char_poly": list(perron.char_poly),
        "eigenvector": [_interval_strs(iv) for iv in perron.eigenvector],
    }
    if dom.verified:
        dim = dimension(params.m, perron, dom)
        report["dim"] = _interval_strs(dim.dim)
        report["certified"] = True  # dimension() raises unless dominance is verified
        code = EXIT_OK
    else:
        # without a verified dominant eigenvalue, log_{m+1}(alpha) is only an
        # upper bound on the dimension and on the upper growth rate
        upper = log_base_interval(perron.alpha, params.m + 1)
        report["dim"] = None
        report["dim_upper_bound"] = _interval_strs(upper)
        code = EXIT_NO_DOMINANCE

    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(f"k = {result.size}")
        print(f"alpha in [{report['alpha'][0]}, {report['alpha'][1]}]")
        print(f"condition1: {report['condition1']}")
        if report["dim"] is not None:
            print(f"dim in [{report['dim'][0]}, {report['dim'][1]}] (certified)")
        else:
            print(f"dim <= {report['dim_upper_bound'][1]} (dominance not verified)")
    return code


def cmd_expand(args) -> int:
    from .dynamics import ExpansionRule, digits_to_text, generate_expansion

    params, x = _build_params(args)
    run = generate_expansion(params, x, ExpansionRule(args.rule), max_steps=args.steps)
    if args.format == "json":
        print(json.dumps(run.to_json(), indent=2))
    elif run.is_periodic:
        print(digits_to_text(run.preperiod_digits, params.m, run.period_digits))
        print(f"preperiod {run.preperiod_length}, period {run.period_length}")
    else:
        print(digits_to_text(run.digits, params.m))
        print(f"no period within {args.steps} steps")
    return EXIT_OK if run.is_periodic else EXIT_NO_PERIOD


def cmd_count(args) -> int:
    from .dynamics import count_prefixes_bruteforce
    from .orbit import compute_orbit, count_prefixes_matrix, transition_matrix

    params, x = _build_params(args)
    if args.n < 0:
        raise _UsageError("n must be nonnegative")
    if args.state_cap < 1 or args.depth_cap < 1:  # as compute_orbit refuses them, for every method
        raise _UsageError("caps must be at least 1")
    results = {}
    if args.method in ("matrix", "both"):
        graph = compute_orbit(params, x, state_cap=args.state_cap, depth_cap=args.depth_cap)
        mat = transition_matrix(graph)
        results["matrix"] = count_prefixes_matrix(mat, 0, args.n)
    if args.method in ("brute", "both"):
        results["brute"] = count_prefixes_bruteforce(params, x, args.n, state_cap=args.state_cap)
    for name in ("matrix", "brute"):
        if name in results:
            print(f"{name}: {results[name]}")
    if args.method == "both" and results["matrix"] != results["brute"]:
        print("MISMATCH between matrix and brute-force counts")
        return EXIT_COUNT_MISMATCH
    return EXIT_OK


def cmd_spectrum(args) -> int:
    from . import spacing

    field = _build_field(args)
    csv = spacing.spectrum_csv(field, args.m, args.nmax)
    if args.out:
        _write_out(args.out, lambda fh: fh.write(csv))
    else:
        print(csv, end="")
    return EXIT_OK


def _fold_values(argv: list[str]) -> list[str]:
    """Join '--minpoly -1,-1,1' into '--minpoly=-1,-1,1' and '-x -1+b' into
    '-x=-1+b', so values with a leading minus sign are not mistaken for
    option strings."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok in ("--minpoly", "-x"):
            val = next(it, None)
            if val is None:
                out.append(tok)
            else:
                out.append(f"{tok}={val}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = _fold_values(list(sys.argv[1:] if argv is None else argv))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit (before 3.10.7)
    if limit:  # exact counts may have any number of digits; the caller's limit is restored
        sys.set_int_max_str_digits(0)
    try:
        code = _run(build_parser(argv).parse_args(argv))
        sys.stdout.flush()
        return code
    except _UsageError as exc:  # from the parser: _run reports the handlers' own
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader stopped early (`| head`): send what is still buffered to
        # devnull, so the flush at interpreter exit cannot raise again
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return EXIT_BROKEN_PIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return EXIT_BROKEN_PIPE
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _run(args) -> int:
    try:
        return args.handler(args)
    except CapHit as exc:
        print(f"diverged: {exc}")
        return EXIT_DIVERGED
    except OutsideInterval as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OUTSIDE
    except (_UsageError, BetaOrbitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
