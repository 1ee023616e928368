"""Workload task lists.

A task is one CLI invocation of betaorbit, written out in full.  The default
seed gives the lists below in the order written.  Any other seed shuffles the
order and draws each task's point `-x` from the task's pool: the default
point plus points screened, at the commit that introduced this benchmark, to
give the same orbit size and about the same cost.  They are states of the
default point's own orbit, or its mirror image m/(beta-1) - x, written as
FieldElement JSON.  A task whose screening kept no point has no pool.

`{out}` in an argument is replaced by a per-run scratch directory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0

QUINTIC = "-1,-1,-1,-1,0,1"  # z^5 - z^3 - z^2 - z - 1, the reference base
PLASTIC = "-1,-1,0,1"        # z^3 - z - 1
CUBIC = "-1,0,-1,1"          # z^3 - z^2 - 1
TETRA = "-1,-1,-1,-1,1"      # z^4 - z^3 - z^2 - z - 1
GOLDEN = "-1,-1,1"           # z^2 - z - 1
SQRT2 = "-2,0,1"             # z^2 - 2, not Pisot


@dataclass(frozen=True)
class Task:
    argv: tuple[str, ...]

    @property
    def kind(self) -> str:
        return self.argv[0]

    @property
    def key(self) -> str:
        """Reference key: the argument list as written, `{out}` unexpanded."""
        return " ".join(self.argv)

    def expand(self, out_dir: str) -> list[str]:
        return [a.replace("{out}", out_dir) for a in self.argv]


@dataclass(frozen=True)
class Spec:
    """A task template: `{x}` in argv takes the default point or a pool point."""
    argv: tuple[str, ...]
    point: str = ""
    pool: tuple[str, ...] = ()

    def task(self, point: str) -> Task:
        return Task(tuple(a.replace("{x}", point) for a in self.argv))


def _dimension(minpoly, m, point, pool=()):
    return Spec(("dimension", "--minpoly", minpoly, "-m", str(m), "-x", "{x}",
                 "--tol", "1e-12", "--format", "json"), point, pool)


def _orbit(minpoly, m, point, pool=(), out="{out}/orbit"):
    return Spec(("orbit", "--minpoly", minpoly, "-m", str(m), "-x", "{x}", "--out", out),
                point, pool)


def _count(minpoly, m, point, n, pool=()):
    return Spec(("count", "--minpoly", minpoly, "-m", str(m), "-x", "{x}", "-n", str(n),
                 "--method", "both"), point, pool)


def _spectrum(minpoly, nmax, out=None):
    argv = ("spectrum", "--minpoly", minpoly, "-m", "1", "--nmax", str(nmax))
    return Spec(argv + (("--out", out) if out else ()))


# `orbit` pools: states whose own orbit is the same set, so the BFS does the
# same exact work (equal compare, evaluate_interval and refine_beta counts).
# `count`: a word count within 2% of the default's.  `dimension`: the median
# of five paired CPU-time ratios to the default point within 4%; the
# eigenvector elimination makes the cost of most same-size points differ by
# 10-100%, so cubic, tetranacci and golden 1/3 kept none.
REF_POOL = (
    '{"coeffs":["-1/3","-2/3","0","-1/3","2/3"]}',
)
PLASTIC_CERTIFY_POOL = (
    '{"coeffs":["1","1","0"]}',
)
GOLDEN_FIFTH_POOL = (
    '{"coeffs":["2/5","3/5"]}',
)
PLASTIC_THIRD_POOL = (
    '{"coeffs":["2/3","0","2/3"]}',
    '{"coeffs":["-1/3","0","4/3"]}',
    '{"coeffs":["1/3","-2/3","1"]}',
)
PLASTIC_FIFTH_POOL = (
    '{"coeffs":["1","4/5","2/5"]}',
    '{"coeffs":["-3/5","1","-1/5"]}',
    '{"coeffs":["-9/5","1","2"]}',
)
CUBIC_POOL = (
    '{"coeffs":["22/13","-11/13","21/13"]}',
    '{"coeffs":["1/13","19/13","-2/13"]}',
    '{"coeffs":["-8/13","-22/13","29/13"]}',
)
QUINTIC_THIRD_POOL = (
    '{"coeffs":["-2/3","-1/3","-1","-1","4/3"]}',
    '{"coeffs":["-1","-1","-2","0","4/3"]}',
    '{"coeffs":["1","-1/3","2","4/3","-5/3"]}',
)
COUNT_POOL = (
    '{"coeffs":["-2","0","4/3"]}',
)

WORKLOADS: dict[str, list[Spec]] = {
    "certify": [
        _dimension(QUINTIC, 1, "1/(b^2-1)", REF_POOL),
        _dimension(PLASTIC, 1, "1/(b^3-1)", PLASTIC_CERTIFY_POOL),
        _dimension(CUBIC, 1, "2/b^2"),
        _dimension(TETRA, 2, "2/b^2"),
        _dimension(GOLDEN, 1, "1/3"),
        _dimension(GOLDEN, 1, "1/5", GOLDEN_FIFTH_POOL),
    ],
    "orbit": [
        _orbit(PLASTIC, 1, "1/3", PLASTIC_THIRD_POOL),
        _orbit(PLASTIC, 1, "1/5", PLASTIC_FIFTH_POOL),
        _orbit(CUBIC, 2, "b/(b+2)", CUBIC_POOL),
        _orbit(QUINTIC, 1, "1/3", QUINTIC_THIRD_POOL),
        _count(PLASTIC, 1, "1/3", 32, COUNT_POOL),
    ],
    "spectrum": [
        _spectrum(SQRT2, 14),
        _spectrum(GOLDEN, 18),
        _spectrum(QUINTIC, 13),
        _spectrum(PLASTIC, 16),
    ],
    # the README quick-start commands, plus a base that is not Pisot (exit 2)
    "cli": [
        Spec(("pisot", "--minpoly", QUINTIC)),
        _orbit(QUINTIC, 1, "1/(b^2-1)", REF_POOL, out="{out}/run1"),
        _dimension(QUINTIC, 1, "1/(b^2-1)", REF_POOL),
        Spec(("expand", "--minpoly", GOLDEN, "-m", "1", "-x", "1", "--rule", "greedy")),
        _count(QUINTIC, 1, "1/(b^2-1)", 10, REF_POOL),
        _spectrum(GOLDEN, 12, out="{out}/gaps.csv"),
        Spec(("pisot", "--minpoly", SQRT2)),
    ],
}

# a small task of the same kind, run once before timing so that lazy imports
# (numpy on the first `dimension`) are paid outside the measurement
WARMUP = {
    "certify": _dimension(QUINTIC, 1, "1/(b^2-1)").task("1/(b^2-1)"),
    "orbit": _orbit(QUINTIC, 1, "1/(b^2-1)").task("1/(b^2-1)"),
    "spectrum": _spectrum(GOLDEN, 8).task(""),
}


def build(workload: str, seed: int) -> list[Task]:
    specs = WORKLOADS[workload]
    if seed == DEFAULT_SEED:
        return [spec.task(spec.point) for spec in specs]
    rng = random.Random(seed)
    tasks = [spec.task(rng.choice((spec.point,) + spec.pool)) for spec in specs]
    rng.shuffle(tasks)
    return tasks


def all_tasks(workload: str) -> list[Task]:
    """Every task any seed can produce, in a fixed order."""
    return [spec.task(p) for spec in WORKLOADS[workload] for p in (spec.point,) + spec.pool]
