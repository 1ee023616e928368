"""Breadth-first closure of the branching orbit and its transition matrix.

The orbit of x is the set of points reachable from x by admissible digit
maps.  BFS with exact deduplication either closes (every admissible image of
every state is again a state) and yields the orbit graph, or hits a cap (on
the states, the depth, or the total bit size of the states) and raises
CapHit.  The search keys each state by its reduced integer form (nums, den)
and reads its digits and images from ExpansionParams._images; the states'
FieldElements are built once it closes.  The table and DOT labels are
formatted from each state's integer 1e-7 enclosure.  Each export writer
streams to a file object, one state, edge, matrix row or DOT line a write,
and the to_csv and to_dot strings are what those writers write.  The
transition matrix drives exact big-integer prefix counting by matrix
powers; the brute-force count in dynamics is the independent oracle for it.
"""

from __future__ import annotations

import io
from fractions import Fraction
from functools import cached_property

from .dynamics import ExpansionParams
from .errors import CapHit
from .field import FieldElement


class OrbitGraph:
    """Closed orbit: states in BFS discovery order (state 0 is x), edges
    (from_index, digit, to_index) with digits explored ascending."""

    def __init__(self, params: ExpansionParams, states: list, edges: list[tuple[int, int, int]],
                 discovery_depth: list[int]):
        self.params, self.states, self.edges, self.discovery_depth = params, states, edges, discovery_depth

    @property
    def size(self) -> int:
        return len(self.states)

    def to_json(self) -> dict:
        return {
            "minpoly": self.params.field.min_poly.to_json(),
            "m": self.params.m,
            "states": [s.to_json() for s in self.states],
            "edges": [list(e) for e in self.edges],
        }

    def write_json(self, fh) -> None:
        """Write the bytes of json.dump(self.to_json(), fh, indent=2), laid
        out directly, one state and one edge at a time.  No list in it is
        empty: k >= 1, every state has an edge, and every coefficient
        vector has at least one entry."""
        def strings(values, indent):
            return _json_list([f'"{v}"' for v in values], indent)

        minpoly = strings(self.params.field.min_poly.to_json()["coeffs"], 6)
        fh.write(f'{{\n  "minpoly": {{\n    "coeffs": {minpoly}\n  }},\n'
                 f'  "m": {self.params.m},\n  "states": ')
        _write_json_list(fh, (f'{{\n      "coeffs": {strings(s.to_json()["coeffs"], 8)}\n    }}'
                              for s in self.states), 4)
        fh.write(',\n  "edges": ')
        _write_json_list(fh, (_json_list(map(str, e), 6) for e in self.edges), 4)
        fh.write("\n}")

    @cached_property
    def label_midpoints(self) -> list[tuple[int, int]]:
        """Midpoint of each state's 1e-7 enclosure, the value that the
        table and the DOT labels print, as integers (numerator,
        denominator), not reduced."""
        eps = Fraction(1, 10 ** 7)
        return [(lo + hi, 2 * den) for lo, hi, den in (s.approx_int(eps) for s in self.states)]

    def write_dot(self, fh) -> None:
        """Write the DOT graph, one line per state and per edge."""
        fh.write("digraph orbit {\n")
        # int / int is the correctly rounded float, as float(Fraction) is
        for j, (num, den) in enumerate(self.label_midpoints, start=1):
            fh.write(f'  {j} [label="{j}: {num / den:.5f}"];\n')
        for (q, digit, j) in self.edges:
            fh.write(f'  {q + 1} -> {j + 1} [label="{digit}"];\n')
        fh.write("}\n")

    def to_dot(self) -> str:
        return _text(self.write_dot)


def _text(write) -> str:
    """What write(fh) writes, as one string."""
    fh = io.StringIO()
    write(fh)
    return fh.getvalue()


def _json_list(items, indent: int) -> str:
    """A nonempty list of JSON-encoded items as json.dumps(..., indent=2)
    lays it out with its items at this indent."""
    pad = "\n" + " " * indent
    return f"[{pad}{(',' + pad).join(items)}\n{' ' * (indent - 2)}]"


def _write_json_list(fh, items, indent: int) -> None:
    """Write the text _json_list(items, indent) gives, one item a write."""
    pad = "\n" + " " * indent
    sep = "[" + pad
    for item in items:
        fh.write(sep + item)
        sep = "," + pad
    fh.write(f"\n{' ' * (indent - 2)}]")


class TransitionMatrix:
    """Nonnegative integer matrix stored as successor lists: succ[q] holds
    the pairs (j, v) with entry (q, j) = v > 0, j ascending.  Entries are
    weights, not only 0/1; an orbit graph's matrix is 0/1 with at most m+1
    entries a row (distinct digits reach distinct states).  Dense rows are
    built only for the exports and matrix powers.  Immutable, hashable and
    equal by value; spectral keeps its memos in the instance's __dict__."""

    def __init__(self, succ: tuple[tuple[tuple[int, int], ...], ...]):
        object.__setattr__(self, "succ", succ)

    def __setattr__(self, name, value):
        raise AttributeError(f"TransitionMatrix is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"TransitionMatrix is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        return self.succ == other.succ if type(other) is TransitionMatrix else NotImplemented

    def __hash__(self):
        return hash(self.succ)

    def __repr__(self):
        return f"TransitionMatrix(succ={self.succ!r})"

    @classmethod
    def from_rows(cls, rows) -> TransitionMatrix:
        """The matrix with these dense rows; they must form a square
        matrix of nonnegative entries."""
        rows = [tuple(r) for r in rows]
        for r in rows:
            if len(r) != len(rows):
                raise ValueError("transition matrix rows must form a square matrix")
            if any(v < 0 for v in r):
                raise ValueError("transition matrix entries must be nonnegative")
        return cls(succ=tuple(tuple((j, v) for j, v in enumerate(r) if v) for r in rows))

    @property
    def size(self) -> int:
        return len(self.succ)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Dense view, built on each access."""
        out = []
        for terms in self.succ:
            row = [0] * len(self.succ)
            for j, v in terms:
                row[j] = v
            out.append(tuple(row))
        return tuple(out)

    def _dense_text(self, sep: str):
        """Each dense row as text, its entries joined by sep: slices of one
        template, sep + "0" repeated k times, with the nonzero entries
        spliced in at their columns."""
        width, skip = len(sep) + 1, len(sep)
        template = (sep + "0") * len(self.succ)
        for terms in self.succ:
            parts, pos = [], skip
            for j, v in terms:
                at = j * width + skip
                parts += (template[pos:at], str(v))
                pos = at + 1
            parts.append(template[pos:])
            yield "".join(parts)

    def mul_vec(self, vec) -> list[int]:
        """A . vec, exact."""
        return [sum(v * vec[j] for j, v in terms) for terms in self.succ]

    def to_json(self) -> dict:
        return {"k": self.size, "rows": [list(r) for r in self.rows]}

    def write_json(self, fh) -> None:
        """Write the bytes of json.dump(self.to_json(), fh, indent=2), one
        row at a time (json's indented encoder is pure Python, and a whole
        string would hold k^2 digits at once)."""
        if not self.succ:
            fh.write('{\n  "k": 0,\n  "rows": []\n}')
            return
        fh.write(f'{{\n  "k": {self.size},\n  "rows": [')
        sep = "\n    [\n      "
        for row in self._dense_text(",\n      "):
            fh.write(sep)
            fh.write(row)
            sep = "\n    ],\n    [\n      "
        fh.write("\n    ]\n  ]\n}")

    def write_csv(self, fh) -> None:
        """Write the dense matrix, one row a line, entries joined by ","
        and every row ended by a newline; k = 0 gives one empty line."""
        if not self.succ:
            fh.write("\n")
        for row in self._dense_text(","):
            fh.write(row)
            fh.write("\n")

    def to_csv(self) -> str:
        return _text(self.write_csv)


# compute_orbit raises CapHit(..., "bits") once its states hold more than
# this many bits of numerators and denominators in all (16 MiB)
MAX_ORBIT_BITS = 1 << 27


def _bits(y: FieldElement) -> int:
    return sum(map(int.bit_length, y.nums), y.den.bit_length())


def compute_orbit(params: ExpansionParams, x: FieldElement,
                  state_cap: int = 100_000, depth_cap: int = 1_000) -> OrbitGraph:
    """BFS from x over admissible digits with exact deduplication.

    Deterministic: discovery order and edge order are fixed by FIFO expansion
    with digits ascending.  A state to expand at depth depth_cap, a new
    state beyond state_cap, or a new state that takes the states' total
    size past MAX_ORBIT_BITS raises CapHit with the number of states found.
    """
    if state_cap < 1 or depth_cap < 1:
        raise ValueError("caps must be at least 1")
    # a point outside [0, m/(beta-1)] has no digits: _images(x) raises
    keys = [(x.nums, x.den)]
    index = {keys[0]: 0}
    depth = [0]
    bits = _bits(x)
    edges: list[tuple[int, int, int]] = []
    qpos = 0
    while qpos < len(keys):
        if depth[qpos] >= depth_cap:
            raise CapHit(len(keys), "depth")
        den, images = params._images(*keys[qpos])
        seen_targets = set()
        for digit, nums in images:
            key = (nums, den)
            j = index.get(key)
            if j is None:
                if len(keys) >= state_cap:
                    raise CapHit(len(keys) + 1, "state")
                bits += sum(map(int.bit_length, nums), den.bit_length())
                if bits > MAX_ORBIT_BITS:
                    raise CapHit(len(keys) + 1, "bits")
                j = len(keys)
                index[key] = j
                keys.append(key)
                depth.append(depth[qpos] + 1)
            assert j not in seen_targets, "distinct digits must reach distinct targets"
            seen_targets.add(j)
            edges.append((qpos, digit, j))
        qpos += 1
    field = params.field
    states = [x] + [FieldElement(field, nums, den) for nums, den in keys[1:]]
    return OrbitGraph(params=params, states=states, edges=edges, discovery_depth=depth)


def transition_matrix(graph: OrbitGraph) -> TransitionMatrix:
    succ = [set() for _ in range(graph.size)]
    for (q, _digit, j) in graph.edges:
        succ[q].add(j)
    return TransitionMatrix(succ=tuple(tuple((j, 1) for j in sorted(t)) for t in succ))


def _mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
        for row in a
    )


def matrix_power(matrix: TransitionMatrix, n: int) -> tuple[tuple[int, ...], ...]:
    """Exact big-integer matrix power by repeated squaring."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    k = matrix.size
    result = tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
    base = matrix.rows
    while n:
        if n & 1:
            result = _mat_mul(result, base)
        base = _mat_mul(base, base)
        n >>= 1
    return result


def count_prefixes_matrix(matrix: TransitionMatrix, q: int, n: int) -> int:
    """Number of admissible length-n words from state q: the q-th row sum of
    the n-th matrix power, exact.

    Row-vector iteration costs n*(nonzero entries) and repeated squaring
    k^3*log2(n); both are exact big-integer routes, so the cheaper one is
    used.
    """
    k = matrix.size
    entries = sum(map(len, matrix.succ))
    if n * entries <= k ** 3 * max(1, n.bit_length()):
        vec = [1] * k  # row-sum counts of A^t, iterated from t = 0
        for _ in range(n):
            vec = matrix.mul_vec(vec)
        return vec[q]
    power = matrix_power(matrix, n)
    return sum(power[q])


def count_profile_matrix(matrix: TransitionMatrix, n_max: int) -> list[tuple[int, ...]]:
    """Row-sum vectors of all powers up to n_max (counts per state, exact)."""
    vec = (1,) * matrix.size
    out = [vec]
    for _ in range(n_max):
        vec = tuple(matrix.mul_vec(vec))
        out.append(vec)
    return out
