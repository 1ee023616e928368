import io
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from betaorbit import (
    ExpansionParams,
    IntPolynomial,
    NumberField,
    OrbitGraph,
    compute_orbit,
    count_prefixes_bruteforce,
    count_prefixes_matrix,
    count_profile_matrix,
    matrix_power,
    sort_elements,
    transition_matrix,
)
from betaorbit.errors import CapHit, OutsideInterval
from betaorbit import orbit as orbit_module
from betaorbit.orbit import TransitionMatrix

F = Fraction


def test_golden_orbit(golden_params):
    golden = golden_params.field
    g = compute_orbit(golden_params, golden.one)
    assert isinstance(g, OrbitGraph)
    assert g.size == 4
    b = golden.beta
    assert g.states == [golden.one, b, b - 1, golden.zero]
    mat = transition_matrix(g)
    assert mat.rows == ((0, 1, 1, 0), (0, 1, 0, 0), (1, 0, 0, 1), (0, 0, 0, 1))


def test_zero_orbit(golden_params):
    g = compute_orbit(golden_params, golden_params.field.zero)
    assert g.size == 1
    assert g.edges == [(0, 0, 0)]
    assert transition_matrix(g).rows == ((1,),)


def test_quintic_orbit_size(quintic_params, quintic_x):
    g = compute_orbit(quintic_params, quintic_x)
    assert g.size == 10
    assert g.states[0] == quintic_x


def test_orbit_closure(quintic_params, quintic_x):
    g = compute_orbit(quintic_params, quintic_x)
    state_set = set(g.states)
    for s in g.states:
        for d in quintic_params.branch_digits(s):
            assert quintic_params.apply(d, s) in state_set


def test_orbit_determinism(quintic_params, quintic_x):
    g1 = compute_orbit(quintic_params, quintic_x)
    g2 = compute_orbit(quintic_params, quintic_x)
    assert g1.states == g2.states
    assert g1.edges == g2.edges
    assert g1.discovery_depth == g2.discovery_depth


def test_outside_interval_rejected(golden_params):
    with pytest.raises(OutsideInterval):
        compute_orbit(golden_params, -golden_params.field.one)


def test_state_cap_divergence(golden_params):
    with pytest.raises(CapHit) as hit:
        compute_orbit(golden_params, golden_params.field.one, state_cap=2)
    assert hit.value.cap_hit == "state"
    assert hit.value.states_found == 3


def test_bits_cap_counts_the_states_as_they_are_added(golden_params, monkeypatch):
    # golden x = 1 closes with the states 1, beta, beta - 1 and 0, of 2, 2, 3
    # and 1 bits with their denominators: 8 bits in all
    monkeypatch.setattr(orbit_module, "MAX_ORBIT_BITS", 6)
    with pytest.raises(CapHit) as hit:
        compute_orbit(golden_params, golden_params.field.one)
    assert (hit.value.states_found, hit.value.cap_hit) == (3, "bits")
    monkeypatch.setattr(orbit_module, "MAX_ORBIT_BITS", 8)
    assert compute_orbit(golden_params, golden_params.field.one).size == 4


@pytest.mark.parametrize("minpoly,m,point", [
    ((-1, -1, 0, 1), 1, "1/3"), ((-1, -1, 0, 1), 1, "1/5"), ((-1, 0, -1, 1), 2, "b/(b+2)"),
    ((-1, -1, -1, -1, 0, 1), 1, "1/3"), ((-1, -1, -1, -1, 0, 1), 1, "1/(b^2-1)"),
    ((-1, -1, 1), 1, "1/7"), ((-1, -1, -1, -1, 1), 2, "2/b^2"),
])
def test_benchmark_orbits_stay_far_below_the_bits_cap(minpoly, m, point):
    # the perfbench orbits and a golden one use under 1% of the budget
    params = ExpansionParams(NumberField(IntPolynomial(minpoly)), m)
    graph = compute_orbit(params, params.parse_point(point))
    assert sum(map(orbit_module._bits, graph.states)) < orbit_module.MAX_ORBIT_BITS // 100


def test_depth_cap_divergence(golden_params):
    with pytest.raises(CapHit) as hit:
        compute_orbit(golden_params, golden_params.field.one, depth_cap=1)
    assert hit.value.cap_hit == "depth"


def test_non_pisot_point_diverges():
    # sqrt(2) is not Pisot; the orbit of 1 keeps producing new points
    field = NumberField(IntPolynomial((-2, 0, 1)))
    params = ExpansionParams(field, 1)
    with pytest.raises(CapHit) as hit:
        compute_orbit(params, field.one, state_cap=300)
    assert hit.value.cap_hit == "state"


def test_a_diverging_orbit_never_reaches_the_matrix():
    # compute_orbit has one return type, so a cap hit cannot flow on into
    # transition_matrix as a graph without states
    field = NumberField(IntPolynomial((-2, 0, 1)))
    params = ExpansionParams(field, 1)
    with pytest.raises(CapHit) as hit:
        transition_matrix(compute_orbit(params, field.one, state_cap=50))
    assert (hit.value.states_found, hit.value.cap_hit) == (51, "state")


# === levels ===

def test_orbit_level_does_the_same_work_on_fresh_fields(monkeypatch):
    # element hashes include the field's id; a level kept as a set made the
    # exact work (and so the compare count) vary from field to field.  The
    # level-by-level brute-force count behind `count` keeps its levels as
    # insertion-ordered dicts for the same reason
    from betaorbit.field import FieldElement
    counts = {"compare": 0, "refine": 0}
    compare = FieldElement.compare

    def counting_compare(self, other):
        counts["compare"] += 1
        return compare(self, other)

    monkeypatch.setattr(FieldElement, "compare", counting_compare)
    work, fields = [], []
    for _ in range(4):
        field = NumberField(IntPolynomial((-1, -1, -1, -1, 0, 1)))
        fields.append(field)  # keep each alive, so every id is new
        refine = field.refine_beta

        def counting_refine(_refine=refine):
            counts["refine"] += 1
            return _refine()

        field.refine_beta = counting_refine
        counts.update(compare=0, refine=0)
        total = count_prefixes_bruteforce(ExpansionParams(field, 1), field.from_rational(F(1, 3)), 9)
        work.append((counts["compare"], counts["refine"], total))
    assert all(w == work[0] for w in work)


# === matrix counting ===

def test_matrix_power_identity(golden_params):
    g = compute_orbit(golden_params, golden_params.field.one)
    mat = transition_matrix(g)
    ident = matrix_power(mat, 0)
    assert ident == tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    assert matrix_power(mat, 1) == mat.rows


def test_count_matrix_examples(golden_params):
    g = compute_orbit(golden_params, golden_params.field.one)
    mat = transition_matrix(g)
    assert count_prefixes_matrix(mat, 0, 0) == 1
    assert [count_prefixes_matrix(mat, 0, n) for n in (1, 2, 3)] == [2, 3, 4]


def test_matrix_agrees_with_bruteforce(quintic_params, quintic_x):
    g = compute_orbit(quintic_params, quintic_x)
    mat = transition_matrix(g)
    for n in range(13):
        assert count_prefixes_matrix(mat, 0, n) == \
            count_prefixes_bruteforce(quintic_params, quintic_x, n)


def test_count_profile_matches_row_counts(quintic_params, quintic_x):
    g = compute_orbit(quintic_params, quintic_x)
    mat = transition_matrix(g)
    profile = count_profile_matrix(mat, 8)
    for n in (0, 3, 8):
        for q in range(mat.size):
            assert profile[n][q] == count_prefixes_matrix(mat, q, n)


def test_large_n_uses_squaring_consistently(golden_params):
    g = compute_orbit(golden_params, golden_params.field.one)
    mat = transition_matrix(g)
    assert count_prefixes_matrix(mat, 0, 200) == 201  # linear growth instance
    assert sum(matrix_power(mat, 200)[0]) == 201


def _weighted_matrices(min_k, max_k):
    return st.integers(min_k, max_k).flatmap(lambda k: st.lists(
        st.lists(st.integers(0, 2), min_size=k, max_size=k), min_size=k, max_size=k))


@settings(max_examples=40, deadline=None)
@given(_weighted_matrices(1, 6))
@example([[2, 1], [0, 1]])
def test_weighted_counts_agree_on_both_routes(rows):
    # n in 0..40 covers both routes: a 6-state matrix with no zero entry is
    # counted by row vectors at n = 20 and by repeated squaring at n = 40
    mat = TransitionMatrix.from_rows(rows)
    profile = count_profile_matrix(mat, 40)
    for n in range(41):
        power = matrix_power(mat, n)
        for q in range(mat.size):
            assert count_prefixes_matrix(mat, q, n) == profile[n][q] == sum(power[q])


# === exact ordering ===

def test_density_makes_one_kernel_evaluation_per_compare(monkeypatch):
    # compare reads the sign at the current enclosure of beta; walking the
    # ladder from the coarsest rung made about 2 evaluations per compare
    from betaorbit import polys
    from betaorbit.field import FieldElement
    field = NumberField(IntPolynomial((-1, 0, -1, 1)))
    g = compute_orbit(ExpansionParams(field, 1), field.from_rational(F(1, 5)))
    assert g.size == 236
    counts = {"compare": 0, "kernel": 0}
    depth = [0]
    compare, kernel = FieldElement.compare, polys.horner_interval_int

    def counting_compare(self, other):
        counts["compare"] += 1
        depth[0] += 1
        try:
            return compare(self, other)
        finally:
            depth[0] -= 1

    def counting_kernel(*args):
        if depth[0]:
            counts["kernel"] += 1
        return kernel(*args)

    monkeypatch.setattr(FieldElement, "compare", counting_compare)
    monkeypatch.setattr(polys, "horner_interval_int", counting_kernel)
    assert len(sort_elements(g.states)) == g.size
    assert counts["compare"] > 5 * g.size
    assert counts["kernel"] <= 1.05 * counts["compare"]


# === exports ===

def test_orbit_json_shape(golden_params):
    g = compute_orbit(golden_params, golden_params.field.one)
    blob = g.to_json()
    assert blob["m"] == 1
    assert len(blob["states"]) == 4
    assert [0, 0, 1] in blob["edges"]
    json.dumps(blob)  # serializable


def test_orbit_dot(golden_params):
    g = compute_orbit(golden_params, golden_params.field.one)
    dot = g.to_dot()
    assert dot.startswith("digraph orbit {")
    assert '1 [label="1: 1.00000"];' in dot
    assert '1 -> 2 [label="0"];' in dot


def test_matrix_exports(golden_params):
    g = compute_orbit(golden_params, golden_params.field.one)
    mat = transition_matrix(g)
    assert mat.to_csv().splitlines()[0] == "0,1,1,0"
    assert mat.to_json() == {"k": 4, "rows": [[0, 1, 1, 0], [0, 1, 0, 0], [1, 0, 0, 1], [0, 0, 0, 1]]}


# === transition matrix from the recorded edges ===

def _orbits():
    plastic = ExpansionParams(NumberField(IntPolynomial((-1, -1, 0, 1))), 1)
    cubic = ExpansionParams(NumberField(IntPolynomial((-1, 0, -1, 1))), 2)
    golden = ExpansionParams(NumberField(IntPolynomial((-1, -1, 1))), 1)
    return [
        compute_orbit(golden, golden.field.zero),
        compute_orbit(golden, golden.field.one),
        compute_orbit(golden, golden.field.from_rational(F(1, 3))),
        compute_orbit(plastic, plastic.field.from_rational(F(1, 3))),
        compute_orbit(cubic, cubic.parse_point("b/(b+2)")),
    ]


_ORBITS = _orbits()
_ORBIT_IDS = ["golden_zero", "golden_one", "golden_third", "plastic_third", "cubic"]


@pytest.mark.parametrize("graph", _ORBITS, ids=_ORBIT_IDS)
def test_transition_matrix_rows_are_branch_sets(graph):
    mat = transition_matrix(graph)
    dense = mat.rows
    params = graph.params
    for q, state in enumerate(graph.states):
        branch = params.branch_digits(state)
        assert sum(dense[q]) == len(branch)
        targets = {graph.states.index(params.apply(i, state)) for i in branch}
        assert {j for j, v in enumerate(dense[q]) if v} == targets
        assert mat.succ[q] == tuple((j, 1) for j in sorted(targets))


def test_orbit_sizes_cover_large_exports():
    assert [g.size for g in _ORBITS] == [1, 4, 16, 289, 734]


class _Writes(io.StringIO):
    """A StringIO that records the length of its longest write."""
    longest = 0

    def write(self, text):
        self.longest = max(self.longest, len(text))
        return super().write(text)


def _written(write) -> _Writes:
    fh = _Writes()
    write(fh)
    return fh


def _nested(blob) -> str:
    """blob as json.dumps(..., indent=2) lays it out as an item of a list
    inside the top-level object (its lines indented 4 more)."""
    return json.dumps(blob, indent=2).replace("\n", "\n    ")


def _assert_writers_match_dense(mat):
    dense = mat.rows
    assert mat.to_json() == {"k": len(dense), "rows": [list(r) for r in dense]}
    want_json = json.dumps(mat.to_json(), indent=2)
    want_csv = "\n".join(",".join(str(v) for v in r) for r in dense) + "\n"
    fh_json, fh_csv = _written(mat.write_json), _written(mat.write_csv)
    assert fh_json.getvalue() == want_json
    assert fh_csv.getvalue() == mat.to_csv() == want_csv
    # no write is longer than one dense row (or the header before the rows)
    assert fh_csv.longest <= max(1, *map(len, want_csv.splitlines()))
    if dense:
        head = want_json[:want_json.index('"rows": [') + len('"rows": [')]
        assert fh_json.longest <= max(len(head), *(len(_nested(list(r))) for r in dense))


@pytest.mark.parametrize("graph", _ORBITS[:4], ids=_ORBIT_IDS[:4])
def test_matrix_json_writer_is_byte_identical(graph):
    _assert_writers_match_dense(transition_matrix(graph))


def _dot_oracle(graph) -> str:
    """The DOT text built as one list of lines, each label the float of
    the midpoint of the state's 1e-7 enclosure."""
    lines = ["digraph orbit {"]
    for j, state in enumerate(graph.states, start=1):
        lo, hi, den = state.approx_int(F(1, 10 ** 7))
        lines.append(f'  {j} [label="{j}: {float(F(lo + hi, 2 * den)):.5f}"];')
    lines += [f'  {q + 1} -> {j + 1} [label="{digit}"];' for q, digit, j in graph.edges]
    return "\n".join(lines + ["}"]) + "\n"


@pytest.mark.parametrize("graph", _ORBITS, ids=_ORBIT_IDS)
def test_orbit_writers_are_byte_identical_and_write_row_sized_pieces(graph):
    want = json.dumps(graph.to_json(), indent=2)
    fh = _written(graph.write_json)
    assert fh.getvalue() == want
    # each write holds the part before the states, or one state or one
    # edge with the separator before it
    head = want[:want.index('"states": ') + len('"states": ')]
    items = [s.to_json() for s in graph.states] + [list(e) for e in graph.edges]
    assert fh.longest <= max(len(head), *(len(",\n    " + _nested(b)) for b in items))

    want = _dot_oracle(graph)
    fh = _written(graph.write_dot)
    assert fh.getvalue() == graph.to_dot() == want
    assert fh.longest == max(len(line) + 1 for line in want.splitlines())  # one line a write


def test_matrix_json_writer_edge_shapes():
    for rows in [(), ((0,),), ((1, 1), (0, 1)), ((0, 0, 0), (1, 0, 1), (0, 1, 1)),
                 ((2, 0), (0, 0)), ((0, 12), (3, 1))]:
        mat = TransitionMatrix.from_rows(rows)
        assert mat.rows == rows
        _assert_writers_match_dense(mat)


def _sparse_weighted_matrices():
    # k from 0 to 12, weights up to 120 (entries of one to three digits),
    # mostly zero, and some rows all zero
    return st.integers(0, 12).flatmap(lambda k: st.lists(st.one_of(
        st.just([0] * k),
        st.lists(st.one_of(st.just(0), st.integers(1, 120)), min_size=k, max_size=k)),
        min_size=k, max_size=k))


@settings(max_examples=150, deadline=None)
@given(_sparse_weighted_matrices())
@example([[0, 0, 0], [120, 0, 7], [0, 0, 0]])
def test_weighted_matrix_writers_match_dense_oracles(rows):
    mat = TransitionMatrix.from_rows(rows)
    assert mat.rows == tuple(map(tuple, rows))
    _assert_writers_match_dense(mat)


def test_from_rows_rejects_malformed_rows():
    for rows in [((1, 0), (1,)), ((1, 0),), ((1, 0, 0), (0, 1, 0)), ((1, -1), (0, 1)),
                 ((-2,),)]:
        with pytest.raises(ValueError):
            TransitionMatrix.from_rows(rows)
    assert TransitionMatrix.from_rows([[0, 2], [1, 0]]).succ == (((1, 2),), ((0, 1),))
    assert TransitionMatrix.from_rows([]).size == 0
