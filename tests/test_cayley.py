import itertools
import math
import re
import warnings

import numpy as np
import pytest

from relconv.cayley import (
    AbelianGroup,
    ConnectionSet,
    GenericDigraph,
    VertexSet,
    edge_boundary,
    element_order,
    max_order,
)
from relconv.isoperimetry import profile

from conftest import digraph_boundary, translate, undirected_cut


def cset(group: AbelianGroup, *coords) -> ConnectionSet:
    return ConnectionSet.from_coords(group, coords)


class TestAbelianGroup:
    def test_mixed_radix_roundtrip(self):
        g = AbelianGroup([2, 4])
        assert g.order == 8
        for i in range(8):
            assert g.index(g.coords(i)) == i

    def test_add_neg(self):
        g = AbelianGroup([3, 4])
        a = g.index((2, 3))
        b = g.index((1, 2))
        assert g.coords(g.add(a, b)) == (0, 1)
        assert g.add(a, g.neg(a)) == 0

    def test_shift_table_matches_add(self):
        g = AbelianGroup([2, 3])
        for s in range(g.order):
            tab = g.shift_table(s)
            assert all(tab[x] == g.add(x, s) for x in range(g.order))

    def test_parse(self):
        assert AbelianGroup.parse("Z4xZ2").factors == (4, 2)
        assert AbelianGroup.parse("z3").factors == (3,)
        assert AbelianGroup.parse("2x2x2").factors == (2, 2, 2)
        with pytest.raises(ValueError):
            AbelianGroup.parse("Z4xQ8")
        with pytest.raises(ValueError):
            AbelianGroup([1, 2])

    def test_equal_groups_hash_equal(self):
        g = AbelianGroup([2, 3])
        assert AbelianGroup.parse("Z2xZ3") == g
        assert hash(AbelianGroup.parse("Z2xZ3")) == hash(g)
        assert g != AbelianGroup([3, 2]) and g != AbelianGroup([6]) and g != (2, 3)
        index = {g: "g", AbelianGroup([6]): "z6"}
        assert index[AbelianGroup.parse("2x3")] == "g" and index[AbelianGroup.parse("Z6")] == "z6"
        assert len({g, AbelianGroup([2, 3]), AbelianGroup([3, 2])}) == 2

    def test_repr(self):
        assert repr(AbelianGroup([2, 3])) == "AbelianGroup(Z2xZ3)"


class TablesOracle:
    """Per-element coordinate list by repeated divmod, and its inverse dict: an oracle for place values."""

    def __init__(self, factors):
        self.factors = tuple(factors)
        self.coords = []
        for x in range(math.prod(factors)):
            digits = []
            for n in factors:
                x, d = divmod(x, n)
                digits.append(d)
            self.coords.append(tuple(digits))
        self.index = {c: i for i, c in enumerate(self.coords)}

    def add(self, a, b):
        return self.index[tuple((x + y) % n for x, y, n in zip(self.coords[a], self.coords[b], self.factors))]

    def neg(self, a):
        return self.index[tuple(-x % n for x, n in zip(self.coords[a], self.factors))]


def ordered_factorizations(n: int) -> list[list[int]]:
    """Every sequence of factors >= 2 with product n, in every order."""
    return [[n]] + [[d] + rest for d in range(2, n) if n % d == 0 for rest in ordered_factorizations(n // d)]


ORACLE_FACTORS = [[2], [7], [2, 4], [3, 4], [2, 2, 3], [2, 3, 5], [2] * 5, [4, 8]]


class TestMixedRadix:
    @pytest.mark.parametrize("factors", ORACLE_FACTORS, ids=str)
    def test_matches_per_element_tables(self, factors):
        g, oracle = AbelianGroup(factors), TablesOracle(factors)
        for a in range(g.order):
            assert g.coords(a) == oracle.coords[a]
            assert g.index(g.coords(a)) == a
            assert g.neg(a) == oracle.neg(a)
            assert g.shift_table(a).tolist() == [g.add(x, a) for x in range(g.order)]
            assert [g.add(a, b) for b in range(g.order)] == [oracle.add(a, b) for b in range(g.order)]

    def test_index_reduces_each_coordinate(self):
        g = AbelianGroup([3, 4])
        assert g.index((-1, 9)) == g.index((2, 1))
        with pytest.raises(ValueError, match=r"^element \(1,\) has 1 coordinate\(s\), Z3xZ4 has rank 2$"):
            g.index((1,))

    @pytest.mark.parametrize("call", [
        lambda g: g.coords(-1), lambda g: g.coords(g.order), lambda g: g.add(-1, 1),
        lambda g: g.add(1, g.order), lambda g: g.neg(-1),
    ], ids=["coords-negative", "coords-order", "add-negative", "add-order", "neg-negative"])
    def test_out_of_range_element_raises(self, call):
        with pytest.raises(IndexError, match="out of range for order 4"):
            call(AbelianGroup([4]))

    def test_generating_matches_bfs_through_add(self, closure_oracle):
        # the profile reads the hypothesis off its own minima
        checked = 0
        for g in (AbelianGroup(f) for n in range(2, 13) for f in ordered_factorizations(n)):
            for elems in itertools.chain.from_iterable(itertools.combinations(range(g.order), k) for k in (1, 2)):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # S may hold the identity, or not generate
                    s = ConnectionSet(g, elems)
                    met = profile(g, s).hypothesis_met
                assert met == closure_oracle(g, s), (g, elems)
                checked += 1
        assert checked == 1224

    def test_huge_group_costs_its_rank(self):
        g = AbelianGroup([10**6, 10**6])
        assert g.order == 10**12
        last = g.order - 1
        assert g.coords(last) == (10**6 - 1, 10**6 - 1)
        assert g.index((5, 7)) == 5 + 7 * 10**6
        assert g.add(last, g.index((1, 1))) == 0
        assert element_order(g, g.index((2, 0))) == 5 * 10**5


class TestConnectionSet:
    def test_from_text_tuples(self):
        g = AbelianGroup([4, 2])
        s = ConnectionSet.from_text(g, "(1,0),(0,1)")
        assert len(s) == 2
        assert s.describe() == "(1,0),(0,1)"
        assert repr(s) == "ConnectionSet[(1,0),(0,1)]"

    def test_from_text_basis_and_bare(self):
        g = AbelianGroup([2, 2, 2])
        assert len(ConnectionSet.from_text(g, "basis")) == 3
        z6 = AbelianGroup([6])
        assert ConnectionSet.from_text(z6, "1,5").elements == (1, 5)
        with pytest.raises(ValueError):
            ConnectionSet.from_text(g, "1,5")

    @pytest.mark.parametrize("group, text, bad", [
        ([4], "(1),(x)", "x"),
        ([4], "1.5", "1.5"),
        ([4], "1,,5", ""),
        ([4], "1, x ", "x"),
        ([2, 2], "(1,,0)", ""),
        ([2, 2], "(1,0),(0,1,)", ""),
    ], ids=["tuple-letter", "bare-decimal", "bare-empty", "bare-spaced", "tuple-empty", "tuple-trailing"])
    def test_from_text_names_a_non_integer_field(self, group, text, bad):
        with pytest.raises(ValueError, match=f"^cannot parse connection-set field {re.escape(repr(bad))} "
                                             f"in {re.escape(repr(text.strip()))}$"):
            ConnectionSet.from_text(AbelianGroup(group), text)

    def test_from_text_fields_may_carry_spaces_and_signs(self):
        g = AbelianGroup([4, 2])
        assert ConnectionSet.from_text(g, " ( 1 , 0 ), (-1,+1) ").elements == ConnectionSet.from_text(g, "(1,0),(3,1)").elements

    @pytest.mark.parametrize("text", ["(1),garbage", "(1)(3)x", "(1)(3)", "(1),(3),", "x(1)", "(1", "((1))"],
                             ids=["trailing-word", "trailing-letter", "juxtaposed", "trailing-comma", "leading-letter",
                                  "unclosed", "nested"])
    def test_from_text_refuses_text_outside_the_tuples(self, text):
        with pytest.raises(ValueError, match=f"^cannot parse connection set {re.escape(repr(text))}$"):
            ConnectionSet.from_text(AbelianGroup([4]), text)

    @pytest.mark.parametrize("element", [4, -1])
    def test_element_out_of_range(self, element):
        with pytest.raises(ValueError, match="^connection-set element out of range for Z4$"):
            ConnectionSet(AbelianGroup([4]), [element])

    def test_identity_flagged(self):
        g = AbelianGroup([4])
        with pytest.warns(UserWarning, match="identity"):
            ConnectionSet(g, [0, 1])

    @pytest.mark.parametrize("build", [
        lambda g: ConnectionSet(g, [0, 1]),
        lambda g: ConnectionSet.from_coords(g, [(0,), (1,)]),
        lambda g: ConnectionSet.from_text(g, "0,1"),
    ], ids=["init", "from_coords", "from_text"])
    def test_identity_warning_names_the_caller(self, build):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build(AbelianGroup([4]))
        (w,) = caught
        assert "identity" in str(w.message)
        assert w.filename == __file__

    def test_deduplication(self):
        g = AbelianGroup([5])
        assert ConnectionSet(g, [2, 2, 1]).elements == (1, 2)


class TestElementOrder:
    def test_cyclic_generator(self):
        assert element_order(AbelianGroup([6]), 1) == 6

    def test_mixed_coordinates(self):
        g = AbelianGroup([2, 4])
        e = g.index((1, 2))
        assert element_order(g, e) == 2
        # independent check by repeated addition
        x, n = e, 1
        while x != 0:
            x = g.add(x, e)
            n += 1
        assert n == 2

    def test_identity(self):
        assert element_order(AbelianGroup([5, 7]), 0) == 1

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            element_order(AbelianGroup([4]), 4)


class TestGenerating:
    def test_cyclic_step(self):
        g = AbelianGroup([6])
        assert profile(g, cset(g, (1,))).hypothesis_met

    def test_proper_subgroup(self):
        g = AbelianGroup([2, 2])
        with pytest.warns(UserWarning, match="does not generate"):
            assert not profile(g, cset(g, (1, 0))).hypothesis_met

    def test_mixed_group(self):
        g = AbelianGroup([2, 4])
        with pytest.warns(UserWarning, match="does not generate"):
            assert not profile(g, cset(g, (1, 1))).hypothesis_met
        assert profile(g, cset(g, (1, 0), (0, 1))).hypothesis_met


class TestMaxOrder:
    def test_exponent_two_cube(self):
        g = AbelianGroup([2, 2, 2])
        assert max_order(g, ConnectionSet.basis(g)) == 2

    def test_cyclic_pair(self):
        g = AbelianGroup([6])
        assert max_order(g, cset(g, (1,), (5,))) == 6

    def test_homocyclic_three(self):
        g = AbelianGroup([3, 3])
        assert max_order(g, ConnectionSet.basis(g)) == 3

    def test_empty_rejected(self):
        g = AbelianGroup([4])
        with pytest.raises(ValueError):
            max_order(g, ConnectionSet(g, []))


class TestEdgeBoundary:
    def test_interval_on_cycle(self):
        g = AbelianGroup([4])
        s = cset(g, (1,))
        a = VertexSet.from_indices([0, 1], 4)
        assert edge_boundary(g, s, a) == 1

    def test_subcube(self):
        g = AbelianGroup([2, 2, 2])
        s = ConnectionSet.basis(g)
        sub = VertexSet.from_indices([i for i in range(8) if g.coords(i)[2] == 0], 8)
        assert edge_boundary(g, s, sub) == 4

    def test_empty_and_full(self):
        g = AbelianGroup([3, 3])
        s = ConnectionSet.basis(g)
        assert edge_boundary(g, s, VertexSet(0, 9)) == 0
        assert edge_boundary(g, s, VertexSet((1 << 9) - 1, 9)) == 0

    def test_complement_and_translation_invariance_exhaustive(self):
        for factors, coords in [([6], [(1,)]), ([2, 4], [(1, 0), (0, 1)])]:
            g = AbelianGroup(factors)
            s = cset(g, *coords)
            full = (1 << g.order) - 1
            for bits in range(1 << g.order):
                a = VertexSet(bits, g.order)
                b = edge_boundary(g, s, a)
                assert b == edge_boundary(g, s, VertexSet(full ^ bits, g.order))
                if bits % 7 == 0:
                    for t in range(g.order):
                        assert edge_boundary(g, s, translate(g, a, t)) == b

    def test_additive_over_disjoint_connection_sets(self):
        g = AbelianGroup([12])
        s1, s2 = cset(g, (1,), (5,)), cset(g, (3,), (7,))
        both = ConnectionSet(g, list(s1) + list(s2))
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = VertexSet(int(rng.integers(0, 1 << 12)), 12)
            assert edge_boundary(g, both, a) == edge_boundary(g, s1, a) + edge_boundary(g, s2, a)

    def test_identity_contributes_nothing(self):
        g = AbelianGroup([8])
        s = cset(g, (3,))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s0 = ConnectionSet(g, [0, 3])
        rng = np.random.default_rng(5)
        for _ in range(30):
            a = VertexSet(int(rng.integers(0, 1 << 8)), 8)
            assert edge_boundary(g, s0, a) == edge_boundary(g, s, a)

    def test_symmetrized_boundary_equals_undirected_cut(self):
        cases = [([6], [(1,)]), ([2, 4], [(1, 0), (0, 1)]), ([5], [(1,), (2,)]),
                 ([3, 3], [(1, 0), (1, 1)]), ([2, 6], [(1, 0), (0, 1)])]
        for factors, coords in cases:
            g = AbelianGroup(factors)
            s = cset(g, *coords)
            sym = ConnectionSet(g, [e for e in s] + [g.neg(e) for e in s])
            for bits in range(1 << g.order):
                a = VertexSet(bits, g.order)
                assert edge_boundary(g, sym, a) == undirected_cut(g, s, a)

    def test_size_mismatch(self):
        g = AbelianGroup([4])
        with pytest.raises(ValueError):
            edge_boundary(g, cset(g, (1,)), VertexSet(0, 5))


class TestVertexSet:
    def test_roundtrip(self):
        a = VertexSet.from_indices([0, 3, 5], 8)
        assert a.indices() == [0, 3, 5]
        assert a.bits.bit_count() == 3
        assert a.contains(3) and not a.contains(1)
        assert a.hex() == "0x29"

    def test_bounds(self):
        with pytest.raises(ValueError):
            VertexSet(1 << 4, 4)
        with pytest.raises(ValueError):
            VertexSet.from_indices([4], 4)


class TestGenericDigraph:
    def test_bidirectional_cycle(self):
        d = GenericDigraph.bidirectional_cycle(6)
        assert len(d.arcs) == 12
        assert digraph_boundary(d, VertexSet.from_indices([0, 1], 6)) == 2
        assert digraph_boundary(d, VertexSet.from_indices([2], 6)) == 2
        assert digraph_boundary(d, VertexSet(0, 6)) == 0

    def test_parallel_arcs_counted(self):
        d = GenericDigraph(2, ((0, 1), (0, 1)))
        assert digraph_boundary(d, VertexSet.from_indices([0], 2)) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            GenericDigraph(2, ((0, 2),))
        for n in (0, -1):
            with pytest.raises(ValueError, match=f"at least one vertex, got n = {n}$"):
                GenericDigraph(n, ())
        d = GenericDigraph.bidirectional_cycle(6)
        with pytest.raises(ValueError):
            digraph_boundary(d, VertexSet(0, 5))
