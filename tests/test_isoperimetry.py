import functools
import itertools
import json
import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relconv import isoperimetry
from relconv.catalog import CatalogEntry, load_catalog, verify_catalog
from relconv.cayley import (
    AbelianGroup,
    ConnectionSet,
    GenericDigraph,
    VertexSet,
    edge_boundary,
)
from relconv.extremal import default_branch_cap, majorant
from relconv.isoperimetry import (
    ORDER_CAP,
    _bound,
    _subset_minima,
    boundary_lower_bound,
    digraph_profile,
    profile,
    six_cycle_counterexample,
)

from conftest import digraph_boundary, min_boundary_unrestricted, reference_bound


def _search_started(w):
    raise AssertionError("the subset enumeration started")


def group_and_set(gtext: str, stext: str):
    g = AbelianGroup.parse(gtext)
    return g, ConnectionSet.from_text(g, stext)


class TestMinBoundary:
    def test_interval_is_optimal_on_directed_cycle(self):
        g, s = group_and_set("Z6", "(1)")
        e = profile(g, s).entries[3]
        mb, witness = e.min_boundary, e.witness
        assert mb == 1
        assert witness.indices() == [0, 1, 2]

    def test_subcube_is_optimal_on_cube(self):
        g, s = group_and_set("Z2xZ2xZ2", "basis")
        e = profile(g, s).entries[4]
        mb, witness = e.min_boundary, e.witness
        assert mb == 4
        assert witness.bits.bit_count() == 4
        assert edge_boundary(g, s, witness) == 4

    def test_trivial_cardinalities(self):
        g, s = group_and_set("Z5", "(1)")
        entries = profile(g, s).entries
        assert (entries[0].min_boundary, entries[0].witness) == (0, VertexSet(0, 5))
        assert entries[5].min_boundary == 0

    def test_out_of_range(self):
        g, s = group_and_set("Z4", "(1)")
        with pytest.raises(ValueError):
            min_boundary_unrestricted(g, s, 5)

    def test_nongenerating_warns(self):
        g, s = group_and_set("Z2xZ2", "(1,0)")
        with pytest.warns(UserWarning, match="does not generate") as record:
            profile(g, s)
        assert record[0].filename == __file__  # the caller's line, not the library's

    def test_nongenerating_warning_through_catalog_names_the_caller(self):
        g, s = group_and_set("Z8", "(2)")
        with pytest.warns(UserWarning, match="does not generate") as record:
            verify_catalog([CatalogEntry("Z8 (2)", group=g, s=s)])
        assert record[0].filename == __file__

    def test_exhaustive_oracle_small_cases(self):
        cases = [("Z6", "(1)"), ("Z2xZ4", "basis"), ("Z3xZ3", "(1,0),(1,1)"), ("Z12", "(3),(4)")]
        for gtext, stext in cases:
            g, s = group_and_set(gtext, stext)
            report = profile(g, s)
            for n in range(g.order + 1):
                canonical, w1 = report.entries[n].min_boundary, report.entries[n].witness
                unrestricted, w2 = min_boundary_unrestricted(g, s, n)
                assert canonical == unrestricted
                assert edge_boundary(g, s, w1) == canonical
                assert edge_boundary(g, s, w2) == canonical


class TestLowerBound:
    def test_half_cube(self):
        g, s = group_and_set("Z2xZ2xZ2", "basis")
        assert boundary_lower_bound(g, s, 4) == pytest.approx(4.0, abs=1e-12)

    def test_third_of_nine(self):
        g, s = group_and_set("Z3xZ3", "basis")
        assert boundary_lower_bound(g, s, 3) == pytest.approx(3.0, abs=1e-12)

    def test_zero_cardinality(self):
        g, s = group_and_set("Z4", "(1)")
        assert boundary_lower_bound(g, s, 0) == 0.0

    @pytest.mark.parametrize("n", [-1, 5])
    def test_cardinality_out_of_range(self, n):
        g, s = group_and_set("Z4", "(1)")
        with pytest.raises(ValueError, match=f"^cardinality {n} out of range for group order 4$"):
            boundary_lower_bound(g, s, n)

    def test_invalid_override_rejected(self):
        g, s = group_and_set("Z3xZ3", "basis")
        with pytest.raises(ValueError):
            boundary_lower_bound(g, s, 3, m_override=2)

    def test_larger_m_weakens_bound(self):
        g, s = group_and_set("Z3xZ3", "basis")
        for n in range(10):
            assert boundary_lower_bound(g, s, n, m_override=9) <= boundary_lower_bound(g, s, n) + 1e-12

    def test_integer_verdict_matches_every_branch(self):
        # mb < (order/m) * min_k k * (d/order)**(1 - 1/k) iff mb lies below
        # every branch k, each decided in integers: no branch selection, no floats
        cap = default_branch_cap()
        for order in range(2, 33):
            for m in (1, 2, 3, 5):
                for n in range(1, order):
                    d = min(n, order - n)
                    bound, _ = _bound(order, m, n, 0)
                    for mb in range(max(0, math.floor(bound) - 1), math.ceil(bound) + 2):
                        below = all((m * mb) ** k < k**k * d ** (k - 1) * order for k in range(1, cap + 1))
                        assert _bound(order, m, n, mb) == (bound, below), (order, m, n, mb)

    def test_bound_matches_fraction_oracle_on_every_cell(self):
        # the integer branch choice against one made in Fractions: equal
        # floats, bit for bit, and equal flags
        for order in range(2, 33):
            for m in sorted({2, 3, order}):
                for n in range(order + 1):
                    for mb in sorted({0, 1, 2, order}):
                        got, want = _bound(order, m, n, mb), reference_bound(order, m, n, mb)
                        assert got == want and repr(got[0]) == repr(want[0]), (order, m, n, mb)


class TestProfile:
    def test_symmetric_cycle_pair(self):
        g, s = group_and_set("Z6", "(1),(5)")
        report = profile(g, s)
        for e in report.entries[1:-1]:
            assert e.min_boundary == 2
            assert e.ratio >= 2.0
        want = [math.sqrt(2.0 / 3.0), 1.0, 1.0, 1.0, math.sqrt(2.0 / 3.0)]
        got = [e.bound for e in report.entries[1:-1]]
        assert got == pytest.approx(want, abs=1e-12)

    def test_four_cycle_is_tight_at_half(self):
        g, s = group_and_set("Z4", "(1)")
        report = profile(g, s)
        e = report.entries[2]
        assert (e.min_boundary, e.bound, e.ratio) == (1, 1.0, 1.0)

    def test_subgroups_are_equality_cells_on_z3xz3xz3(self):
        # a subgroup H of index 3^j has boundary j*|H|, and the bound meets it
        # there exactly: with d = min(n, 27 - n) and k the branch at d/27,
        # (m*mb)**k == k**k * d**(k-1) * 27 in integers, while the float bound
        # at n = 1 falls 1 ulp short of 3
        report = profile(*group_and_set("Z3xZ3xZ3", "basis"))
        assert report.hypothesis_met
        assert report.bound_violations() == []
        for j, n in [(3, 1), (2, 3), (1, 9)]:
            k = majorant(Fraction(n, 27)).branch
            for cell in (report.entries[n], report.entries[27 - n]):
                assert cell.min_boundary == j * n
                assert (3 * cell.min_boundary) ** k == k**k * n ** (k - 1) * 27
                assert not cell.below_bound

    def test_profile_symmetry_and_witnesses(self):
        for gtext, stext in [("Z2xZ6", "basis"), ("Z10", "(1),(9)")]:
            g, s = group_and_set(gtext, stext)
            report = profile(g, s)
            order = g.order
            for n in range(order + 1):
                e = report.entries[n]
                assert e.n == n
                assert e.min_boundary == report.entries[order - n].min_boundary
                assert edge_boundary(g, s, e.witness) == e.min_boundary
            assert math.isinf(report.entries[0].ratio)
            assert not report.bound_violations()

    def test_order_cap(self):
        g, s = group_and_set(f"Z{ORDER_CAP + 1}", "(1)")
        with pytest.raises(ValueError, match="cap"):
            profile(g, s)

    def test_config_does_not_change_results(self):
        # repeated calls on one group and a call on a fresh equal group agree
        def stripped(report):
            d = report.to_dict()
            d["stats"].pop("wall_ms")
            return d

        g, s = group_and_set("Z2xZ6", "basis")
        cold = stripped(profile(g, s))
        warm = stripped(profile(g, s))
        assert cold == warm
        g2, s2 = group_and_set("Z2xZ6", "basis")
        assert stripped(profile(g2, s2)) == cold

    def test_m_override_scales_bounds(self):
        g, s = group_and_set("Z3xZ3", "basis")
        base = profile(g, s)
        weak = profile(g, s, m_override=9)
        assert weak.m == 9
        for e_base, e_weak in zip(base.entries, weak.entries):
            assert e_weak.bound == pytest.approx(e_base.bound / 3, abs=1e-12)


class TestKernel:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_harper_closed_form_on_cube(self, d):
        g = AbelianGroup([2] * d)
        report = profile(g, ConnectionSet.basis(g))
        want = [d * n - 2 * sum(i.bit_count() for i in range(n)) for n in range(2**d + 1)]
        assert [e.min_boundary for e in report.entries] == want

    def test_cap_precedes_key_guard(self):
        loop = (list(range(60)), list(range(60)))
        with pytest.raises(ValueError, match="cap"):
            _subset_minima(60, [loop], identity=False)
        with pytest.raises(ValueError, match="cap"):
            _subset_minima(ORDER_CAP + 1, [], identity=False)
        # 32 vertices + 34 bits of arc count; len of a range allocates nothing
        with pytest.raises(ValueError, match="64-bit"):
            _subset_minima(ORDER_CAP, [(range(2**33), range(2**33))], identity=False)

    def test_arc_list_past_cap_refused_before_search(self, monkeypatch):
        monkeypatch.setattr(isoperimetry, "_low_parts", _search_started)
        # 10**12 vertices: the out-degree count must not be an n-long list
        for n in (ORDER_CAP + 1, 10**12):
            with pytest.raises(ValueError, match=f"order {n} exceeds exhaustive-search cap"):
                digraph_profile(GenericDigraph(n, ((0, 1), (1, 0))))

    @pytest.mark.parametrize("gtext", ["Z1000000", "Z1000000000000", "x".join(["Z2"] * 40)])
    def test_group_past_cap_refused_before_shift_tables(self, monkeypatch, gtext):
        def built(group, e):
            raise AssertionError("a shift table was built before the cap check")

        monkeypatch.setattr(AbelianGroup, "shift_table", built)
        g, s = group_and_set(gtext, "basis")
        with pytest.raises(ValueError, match=f"order {g.order} exceeds exhaustive-search cap"):
            profile(g, s)

    def test_one_vertex_digraph_profiles_without_a_search(self):
        report = digraph_profile(GenericDigraph(1, ()))
        assert (report.subsets_enumerated, report.subsets_pruned) == (0, 0)
        assert [(c.n, c.min_boundary, c.witness.indices()) for c in report.entries] == [(0, 0, []), (1, 0, [0])]

    def test_counts_match_identity_canonical_search(self):
        report = profile(*group_and_set("Z3xZ3", "basis"))
        assert report.subsets_enumerated == 2**8 - 1
        assert report.subsets_pruned == 2**9 - 2 - report.subsets_enumerated

    # vertex 0 has a doubled arc, 2 a self-loop, 3 out-degree three, 5 no arcs
    @example(n=6, raw=[(0, 1), (0, 1), (0, 2), (1, 0), (2, 2), (3, 4), (3, 0), (3, 1), (4, 3), (4, 5)])
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 7),
        raw=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=14),
    )
    def test_arc_list_matches_brute_force(self, n, raw):
        d = GenericDigraph(n, tuple((u % n, v % n) for u, v in raw))
        got = digraph_profile(d).entries
        for k in range(n + 1):
            sets = [VertexSet.from_indices(c, n) for c in itertools.combinations(range(n), k)]
            counts = [digraph_boundary(d, a) for a in sets]
            best = min(counts)
            # the first minimizer in lex order
            assert (got[k].n, got[k].min_boundary, got[k].witness) == (k, best, sets[counts.index(best)])

    def test_arc_list_boundary_past_255(self):
        # 300 parallel arcs each way: the first fixture whose minimum does not fit in 8 bits
        d = GenericDigraph(2, ((0, 1),) * 300 + ((1, 0),) * 300)
        assert [c.min_boundary for c in digraph_profile(d).entries] == [0, 300, 0]

    @pytest.mark.parametrize("gtext, stext", [
        ("Z6", "(1)"), ("Z7", "(1),(3)"), ("Z8", "(2)"), ("Z2xZ4", "(1,1),(0,2)"),
        ("Z3xZ3", "basis"), ("Z2xZ2xZ3", "(1,0,1),(0,1,2)"), ("Z4", "(0),(1)"),
    ])
    def test_arc_list_search_matches_identity_canonical_search(self, gtext, stext):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # S may hold the identity, or not generate
            g, s = group_and_set(gtext, stext)
            report = profile(g, s)
        arcs = tuple((x, int(g.shift_table(e)[x])) for e in s for x in range(g.order))
        arc_list = digraph_profile(GenericDigraph(g.order, arcs), m=report.m, name=gtext)
        # by translation invariance some minimizer contains vertex 0, so the
        # lex-first one does: the full search meets the same witnesses
        assert arc_list.entries == report.entries
        assert (arc_list.group, arc_list.connection_set, arc_list.m) == (gtext, "arc-list", report.m)
        assert not arc_list.hypothesis_met
        assert (arc_list.subsets_enumerated, arc_list.subsets_pruned) == (2**g.order - 2, 0)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_minima_and_lex_first_witnesses_match_brute_force(self, data):
        factors = data.draw(st.sampled_from([(2,), (3,), (5,), (7,), (8,), (9,), (10,), (2, 2), (2, 3),
                                             (2, 4), (2, 5), (3, 3), (2, 2, 2)]))
        g = AbelianGroup(factors)
        elems = data.draw(st.lists(st.integers(1, g.order - 1), min_size=1, max_size=4))
        s = ConnectionSet(g, elems)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # non-generating S only warns
            report = profile(g, s)
        for n in range(1, g.order + 1):
            mb, _ = min_boundary_unrestricted(g, s, n)
            # the lex-first minimizer among the identity-containing n-subsets
            sets = [VertexSet.from_indices((0, *c), g.order) for c in itertools.combinations(range(1, g.order), n - 1)]
            counts = [edge_boundary(g, s, a) for a in sets]
            e = report.entries[n]
            assert e.min_boundary == mb == min(counts)
            assert e.witness == sets[counts.index(mb)]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_subsets_of_larger_groups_meet_the_minima(self, data):
        g, s, report = larger_profile(*data.draw(st.sampled_from(LARGER_CAYLEY)))
        indices = data.draw(st.sets(st.integers(0, g.order - 1)))
        cell = report.entries[len(indices)]
        a = VertexSet.from_indices(indices, g.order)
        assert edge_boundary(g, s, cell.witness) == cell.min_boundary <= edge_boundary(g, s, a)


# Cayley graphs of order 12-20, past the brute-force cases above
LARGER_CAYLEY = [("Z4xZ5", "(1,0),(0,1),(1,2)"), ("Z2xZ2xZ5", "basis"), ("Z16", "(1),(3)")]


@functools.cache
def larger_profile(gtext: str, stext: str):
    g, s = group_and_set(gtext, stext)
    return g, s, profile(g, s)


class TestCounterexample:
    def test_single_vertex_path(self):
        boundary, bound = six_cycle_counterexample()
        assert boundary == 2
        assert bound == pytest.approx(3 * math.sqrt(2.0 / 3.0), abs=1e-12)
        assert boundary < bound

    def test_a_bound_that_holds_raises(self, monkeypatch):
        # with the complete digraph in place of the cycle, one vertex has
        # boundary 5, above the bound 3*sqrt(2/3) ~ 2.449, so there is no failure to return
        complete = GenericDigraph(6, tuple((u, v) for u in range(6) for v in range(6) if u != v))
        monkeypatch.setattr(GenericDigraph, "bidirectional_cycle", classmethod(lambda cls, n: complete))
        with pytest.raises(RuntimeError, match=r"^expected failure of the bound, got 5 >= 2\.4494897"):
            six_cycle_counterexample()

    def test_every_interior_cell_violates(self):
        report = digraph_profile(GenericDigraph.bidirectional_cycle(6), 2)
        assert report.bound_violations() == [1, 2, 3, 4, 5]
        assert [e.bound for e in report.entries[2:5]] == pytest.approx([3.0] * 3, abs=1e-12)

    def test_digraph_min_boundary_on_cycle(self):
        cells = digraph_profile(GenericDigraph.bidirectional_cycle(6)).entries
        for n in range(1, 6):
            cell = cells[n]
            assert cell.min_boundary == 2
            assert cell.witness.bits.bit_count() == n
            assert math.isnan(cell.bound) and math.isnan(cell.ratio)  # no m, no bound


class TestCatalog:
    def test_default_catalog_loads(self):
        entries = load_catalog()
        assert len(entries) == 48
        cayley = [e for e in entries if e.is_cayley]
        assert len(cayley) == 47
        assert all(e.group.order <= 24 for e in cayley)
        digraph = [e for e in entries if not e.is_cayley][0]
        assert digraph.m == 2 and digraph.digraph.n == 6

    def test_every_cayley_fixture_is_generating(self, closure_oracle):
        for e in load_catalog():
            if e.is_cayley:
                assert closure_oracle(e.group, e.s), e.name

    def test_six_cycle_cells_match_catalog_rows(self):
        entry = [e for e in load_catalog() if not e.is_cayley][0]
        assert entry.digraph == GenericDigraph.bidirectional_cycle(6) and entry.m == 2
        (report,) = verify_catalog([entry])
        rows = report.rows()
        cells = digraph_profile(GenericDigraph.bidirectional_cycle(6), m=2).entries
        assert [(r["n"], r["min_boundary"], r["bound"], r["ratio"], r["witness"]) for r in rows] == [
            (e.n, e.min_boundary, e.bound, e.ratio, e.witness.hex()) for e in cells
        ]
        assert [e.min_boundary for e in cells] == [0, 2, 2, 2, 2, 2, 0]

    def test_arc_list_past_cap_refused_before_search(self, tmp_path, monkeypatch):
        monkeypatch.setattr(isoperimetry, "_low_parts", _search_started)
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"entries": [
            {"name": "big", "m": 2, "digraph": {"n": ORDER_CAP + 1, "arcs": [[0, 1], [1, 0]]}},
        ]}))
        with pytest.raises(ValueError, match="cap"):
            verify_catalog(load_catalog(path))

    @pytest.mark.parametrize("entries, message", [
        ([1], r"catalog entry 0 is not an object"),
        ([{"name": "x"}], r"catalog entry 0 \('x'\) has neither group nor digraph"),
    ], ids=["not-an-object", "of-no-kind"])
    def test_entry_shape_refused(self, tmp_path, entries, message):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"entries": entries}))
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_catalog(path)

    def test_small_catalog_verification(self, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text(
            '{"schema_version": 1, "entries": ['
            '{"name": "Z5", "group": "Z5", "s": "(1)"},'
            '{"name": "cube", "group": "Z2xZ2", "s": "basis"}]}'
        )
        rows = [row for report in verify_catalog(load_catalog(path)) for row in report.rows()]
        assert len(rows) == 6 + 5
        cube_rows = [r for r in rows if r["group"] == "Z2xZ2"]
        tight = [r for r in cube_rows if r["n"] == 2][0]
        assert tight["ratio"] == 1.0
