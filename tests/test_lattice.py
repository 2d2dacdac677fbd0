import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from minklab.lattice import (CAUSAL, CHRONOLOGICAL, GALILEI, MODES,
                             IntegerGrid, Region, complement, completion,
                             covering_counterexample, de_morgan_check,
                             diamond, fig2_counterexample,
                             galilei_chron_complement, is_complete, join,
                             lattice_property_suite, law_sweep, meet,
                             orthomodularity_check, random_region,
                             region_from_json, region_to_json, region_to_pbm)
from minklab.lattice import engine, laws
from minklab.lattice.oracle import complement_mask_bruteforce


@pytest.fixture(scope="module")
def grid():
    return IntegerGrid.centered(21, 21)


@pytest.fixture(scope="module")
def grid41():
    return IntegerGrid.centered(41, 41)


@pytest.fixture(scope="module")
def grid3d():
    return IntegerGrid.centered(9, 9, 9)


class TestGridAndRegion:
    def test_coords_lexicographic(self, grid):
        assert grid.size == 441
        assert tuple(grid.coords[0]) == (-10, -10)
        assert tuple(grid.coords[-1]) == (10, 10)
        assert grid.index_of((0, 0)) == grid.size // 2

    def test_set_algebra(self, grid):
        a = Region.from_points(grid, [(0, 0), (1, 1)])
        b = Region.from_points(grid, [(1, 1), (2, 2)])
        assert (a & b).points() == [(1, 1)]
        assert (a | b).count == 3
        assert (a - b).points() == [(0, 0)]
        assert a <= (a | b)

    def test_grid_mismatch_rejected(self, grid):
        other = IntegerGrid.centered(13, 13)
        with pytest.raises(ValueError):
            Region.empty(grid) & Region.empty(other)

    @pytest.mark.parametrize("sizes", [(2 ** 32, 2 ** 32), (2 ** 32, 2 ** 31 + 1),
                                       (3, 3037000501), (3, 5, 7, 2 ** 21, 2 ** 40)])
    def test_int64_overflow_rejected(self, sizes):
        # constructs only: a Region on such a grid would allocate its cells
        with pytest.raises(ValueError, match="int64"):
            IntegerGrid.centered(*sizes)

    def test_largest_grids_accepted(self):
        assert IntegerGrid.centered(3, 3037000500).size == 3 * 3037000500
        assert IntegerGrid.centered(2 ** 31, 2 ** 31).size == 2 ** 62


class TestMaskOwnership:
    """Package results own frozen masks; Region() copies its caller's array."""

    def test_results_are_read_only_and_share_no_memory(self, grid, rng):
        a = completion(Region(grid, rng.random(grid.size) < 0.01), CAUSAL)
        b = completion(Region.from_points(grid, [(0, 0), (3, 1)]), CAUSAL)
        dense = Region(grid, rng.random(grid.size) < 0.3)  # empty complement
        inputs = (a, b, dense)
        results = [complement(s, mode) for s in (a, b, dense, Region.empty(grid))
                   for mode in MODES]
        results += [completion(a, CAUSAL), join(a, b, CAUSAL), meet(a, b, CAUSAL),
                    a & b, a | b, a - b, diamond(grid, (-3, 0), (3, 0)),
                    diamond(grid, (-3, 0), (3, 0), closed=False)]
        # where a result equals one input, it is still a fresh mask
        nothing = Region.empty(grid)
        results += [meet(a, a | b, CAUSAL), a & a, a | nothing, nothing | a, a - nothing]
        for res in results:
            assert not res.mask.flags.writeable
            with pytest.raises(ValueError):
                res.mask[0] = True
            assert not any(np.shares_memory(res.mask, s.mask) for s in inputs)
        assert not any(np.shares_memory(r.mask, s.mask)
                       for i, r in enumerate(results) for s in results[i + 1:])

    def test_constructor_copies_the_callers_array(self, grid):
        arr = np.zeros(grid.size, dtype=bool)
        arr[5] = True
        region = Region(grid, arr)
        arr[:] = True
        assert region.points() == [tuple(grid.coords[5])]
        assert arr.flags.writeable  # the caller's array is left as it was
        again = Region(grid, region.mask)
        assert again == region and not np.shares_memory(again.mask, region.mask)


def assert_matches_oracle(grid, mask, mode):
    """complement() and completion() equal the oracle's.

    completion() takes its outer complement without the extreme-slice try,
    so it is checked on its own.
    """
    code = MODES.index(mode)
    got = complement(Region(grid, mask), mode).mask
    expect = complement_mask_bruteforce(grid.coords, mask, code)
    np.testing.assert_array_equal(got, expect)
    np.testing.assert_array_equal(completion(Region(grid, mask), mode).mask,
                                  complement_mask_bruteforce(grid.coords, expect, code))


def oracle_complement(region, mode):
    """The brute-force oracle's complement, as a region."""
    code = MODES.index(mode)
    return Region(region.grid, complement_mask_bruteforce(region.grid.coords, region.mask, code))


# the closed forms below pin the oracle as well as the engine
engine_and_oracle = pytest.mark.parametrize("complement_of", [complement, oracle_complement],
                                            ids=["engine", "oracle"])


class TestKernels:
    """complement() must be bit-identical to the brute-force oracle."""

    @pytest.mark.parametrize("mode_code", [0, 1, 2])
    def test_backends_match_bruteforce(self, grid, mode_code, rng):
        for _ in range(100):
            mask = rng.random(grid.size) < float(rng.uniform(0.02, 0.5))
            assert_matches_oracle(grid, mask, MODES[mode_code])

    def test_backends_match_on_41(self, grid41, rng):
        for i in range(100):
            mask = rng.random(grid41.size) < float(rng.uniform(0.02, 0.3))
            assert_matches_oracle(grid41, mask, MODES[i % 3])


ORACLE_GRIDS = {
    "1+1 centred": [(-4, 4), (-4, 4)],
    "1+1 non-square off-centre": [(2, 9), (-6, -2)],
    "1+1 one time slice": [(3, 3), (-4, 4)],
    "1+1 one spatial cell": [(-3, 4), (7, 7)],
    "2+1 centred": [(-2, 2), (-2, 2), (-2, 2)],
    "2+1 non-square off-centre": [(0, 3), (-3, -1), (1, 6)],
    "2+1 one row": [(-2, 3), (5, 5), (-3, 2)],
    "2+1 one column": [(1, 5), (-2, 2), (0, 0)],
    "3+1 centred": [(-2, 2), (-2, 2), (-2, 2), (-2, 2)],
    "3+1 non-square off-centre": [(0, 3), (-3, -1), (1, 4), (-2, 0)],
    "3+1 one middle cell": [(-2, 2), (-1, 2), (4, 4), (-3, 0)],
}


def oracle_regions(grid, rng):
    """Empty, full, single-point (centre and corner), diamond and random masks.

    Two more families span 5 or more slices where the grid has room, so the
    complement first bounds them by their extreme slices: a corner cell on
    the first and last slices with full slices between, whose middle slices
    close the gap the two corners leave, and the cells spacelike to the
    centre, whose causal complement keeps only the centre in its column, so
    there the extreme slices leave exactly one time free.
    """
    centre = tuple((lo + hi) // 2 for lo, hi in grid.extents)
    point = np.zeros(grid.size, dtype=bool)
    point[grid.index_of(centre)] = True
    corner = np.zeros(grid.size, dtype=bool)
    corner[-1] = True
    ends_gap = np.zeros(grid.shape, dtype=bool)
    ends_gap[1:-1] = True
    ends_gap[(0,) * grid.dim] = ends_gap[(-1,) + (0,) * (grid.dim - 1)] = True
    offset = grid.coords - np.asarray(centre)
    spacelike = offset[:, 0] ** 2 < (offset[:, 1:] ** 2).sum(axis=1)
    (t_lo, t_hi), spatial = grid.extents[0], centre[1:]
    yield "empty", np.zeros(grid.size, dtype=bool)
    yield "full", np.ones(grid.size, dtype=bool)
    yield "centre point", point
    yield "corner point", corner
    yield "diamond", diamond(grid, (t_lo, *spatial), (t_hi, *spatial)).mask
    yield "random", rng.random(grid.size) < 0.3
    yield "corner ends, full middle", ends_gap.reshape(-1)
    yield "spacelike to the centre", spacelike


def draw_grid(data):
    """1+1, 2+1 or 3+1 grid with each axis's low end in -5..5; an axis is
    1-9 cells long, or 1-5 in 3+1 to keep the oracle fast."""
    dim = data.draw(st.integers(2, 4), label="dim")
    longest = 9 if dim < 4 else 5
    dims = data.draw(st.lists(st.tuples(st.integers(-5, 5), st.integers(0, longest - 1)),
                              min_size=dim, max_size=dim), label="axes")
    return IntegerGrid([(lo, lo + n) for lo, n in dims])


class TestOracleEquivalence:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", list(ORACLE_GRIDS))
    def test_region_families(self, name, mode, rng):
        grid = IntegerGrid(ORACLE_GRIDS[name])
        for _, mask in oracle_regions(grid, rng):
            assert_matches_oracle(grid, mask, mode)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_extents(self, data):
        grid = draw_grid(data)
        mask = data.draw(hnp.arrays(bool, grid.size), label="mask")
        for mode in MODES:
            assert_matches_oracle(grid, mask, mode)

    # with the block budget at its minimum, every axis step of a 2+1 or 3+1
    # distance pass takes one x per block
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", [n for n in ORACLE_GRIDS if not n.startswith("1+1")])
    def test_region_families_in_blocks_of_one(self, name, mode, rng, monkeypatch):
        monkeypatch.setattr(engine, "_STEP_CELLS", 1)
        self.test_region_families(name, mode, rng)

    # with a budget above every grid's full sum, every axis step is one block
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", [n for n in ORACLE_GRIDS if not n.startswith("1+1")])
    def test_region_families_in_one_block(self, name, mode, rng, monkeypatch):
        monkeypatch.setattr(engine, "_STEP_CELLS", 1 << 40)
        self.test_region_families(name, mode, rng)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_extents_in_blocks(self, data):
        grid = draw_grid(data)
        mask = data.draw(hnp.arrays(bool, grid.size), label="mask")
        # the minimum, then a budget whose last block may be short
        for cells in (1, data.draw(st.integers(2, 2 * grid.size), label="cells")):
            with mock.patch.object(engine, "_STEP_CELLS", cells):
                for mode in MODES:
                    assert_matches_oracle(grid, mask, mode)


class TestOneSpatialAxisReach:
    """A 1+1 complement reads its reach off the line gap; the same mask on a
    (T, 1, X) or (T, X, 1) grid takes the general d2/sqrt step, on grids too
    large for the oracle."""

    @pytest.mark.parametrize("mode", [CAUSAL, CHRONOLOGICAL])
    @pytest.mark.parametrize("extents", [[(-20, 20), (-20, 20)], [(-42, 42), (-42, 42)],
                                         [(-13, 47), (-18, 2)]],
                             ids=["41x41", "85x85", "61x21 off-centre"])
    def test_matches_the_general_step(self, extents, mode, rng):
        grid = IntegerGrid(extents)
        time_axis, space_axis = extents
        general = [IntegerGrid([time_axis, (0, 0), space_axis]),
                   IntegerGrid([time_axis, space_axis, (0, 0)])]
        structured = structured_regions(grid, rng, per_kind=4)
        masks = [rng.random(grid.size) < d for d in (0.01, 0.05, 0.1, 0.4)]
        masks += [rng.random(grid.size) < 0.004 for _ in range(4)]
        masks += [s.mask for s in structured]
        # complements span many slices, so they take the extreme-slice try
        masks += [complement(s, mode).mask for s in structured]
        for mask in masks:
            got = complement(Region(grid, mask), mode).mask
            for wide in general:
                np.testing.assert_array_equal(complement(Region(wide, mask), mode).mask, got)


class TestComplement:
    @engine_and_oracle
    @pytest.mark.parametrize("mode", MODES)
    def test_empty_gives_full_and_full_gives_empty(self, grid, mode, complement_of):
        assert complement_of(Region.empty(grid), mode) == Region.full(grid)
        assert complement_of(Region.full(grid), mode).is_empty

    @engine_and_oracle
    def test_single_point_causal(self, grid, complement_of):
        got = complement_of(Region.from_points(grid, [(0, 0)]), CAUSAL)
        # strictly spacelike events only
        expect = Region(grid, grid.coords[:, 0] ** 2 - grid.coords[:, 1] ** 2 < 0)
        assert got == expect

    @engine_and_oracle
    def test_single_point_chronological(self, grid, complement_of):
        got = complement_of(Region.from_points(grid, [(0, 0)]), CHRONOLOGICAL)
        interval = grid.coords[:, 0] ** 2 - grid.coords[:, 1] ** 2
        on_point = (grid.coords == 0).all(axis=1)
        expect = Region(grid, (interval <= 0) & ~on_point)
        assert got == expect
        # lightlike-separated events are inside now
        assert got.mask[grid.index_of((1, 1))]

    def test_causally_disjoint_implies_disjoint(self, grid, rng):
        s = random_region(grid, rng)
        assert (complement(s, CAUSAL) & s).is_empty
        # converse fails: disjoint sets need not be causally disjoint
        a = Region.from_points(grid, [(0, 0)])
        b = Region.from_points(grid, [(2, 0)])
        assert (a & b).is_empty
        assert not (complement(a, CAUSAL) & b) == b


class TestCompletionLaws:
    @pytest.mark.parametrize("mode", [CAUSAL, CHRONOLOGICAL])
    def test_complete_region_is_fixed_point(self, grid, mode, rng):
        s = completion(random_region(grid, rng), mode)
        assert completion(s, mode) == s

    @pytest.mark.parametrize("mode", [CAUSAL, CHRONOLOGICAL])
    def test_triple_complement(self, grid, mode, rng):
        sweep = law_sweep([random_region(grid, rng) for _ in range(25)], mode)
        assert sweep["violations"]["triple-complement"] == []

    @pytest.mark.parametrize("mode", [CAUSAL, CHRONOLOGICAL])
    def test_monotonicity(self, grid, mode, rng):
        for _ in range(25):
            s2 = random_region(grid, rng)
            sub_mask = s2.mask & (rng.random(grid.size) < 0.5)
            s1 = Region(grid, sub_mask)
            assert complement(s2, mode) <= complement(s1, mode)
            assert completion(s1, mode) <= completion(s2, mode)

    def test_completion_contains_region(self, grid, rng):
        for mode in (CAUSAL, CHRONOLOGICAL):
            s = random_region(grid, rng)
            assert s <= completion(s, mode)

    def test_smallest_complete_superset(self, grid, rng):
        # any complete K between S and S'' must be S'' itself
        for _ in range(10):
            s = Region(grid, rng.random(grid.size) < 0.05)
            scc = completion(s, CAUSAL)
            grew = scc - s
            if grew.is_empty:
                continue
            probe_mask = s.mask | (grew.mask & (rng.random(grid.size) < 0.5))
            k = Region(grid, probe_mask)
            if is_complete(k, CAUSAL) and k <= scc:
                assert k == scc


class TestDiamonds:
    def test_degenerate_point(self, grid):
        p = (0, 0)
        assert diamond(grid, p, p, closed=True).points() == [p]
        assert diamond(grid, p, p, closed=False).is_empty

    def test_closed_diamond_complete_both_modes(self, grid):
        d = diamond(grid, (0, 0), (4, 0), closed=True)
        assert is_complete(d, CAUSAL)
        assert is_complete(d, CHRONOLOGICAL)

    def test_open_diamond_complete_only_causal(self, grid):
        d = diamond(grid, (-6, 0), (6, 0), closed=False)
        assert is_complete(d, CAUSAL)
        # the non-timelike mode adds no grid cells back here either; the
        # continuum distinction shows up through the joins instead
        assert d.count == 61

    def test_join_of_timelike_points_is_closed_diamond(self, grid):
        p, q = (0, 0), (4, 0)
        jp = join(Region.from_points(grid, [p]), Region.from_points(grid, [q]), CAUSAL)
        assert jp == diamond(grid, p, q, closed=True)

    def test_join_chronological_drops_equator(self, grid):
        p, q = (0, 0), (4, 0)
        jp = join(Region.from_points(grid, [p]), Region.from_points(grid, [q]),
                  CHRONOLOGICAL)
        closed = diamond(grid, p, q, closed=True)
        corners = Region.from_points(grid, [(2, 2), (2, -2)])
        assert jp == closed - corners

    def test_argument_order_irrelevant(self, grid):
        assert diamond(grid, (4, 0), (0, 0), closed=True) == \
            diamond(grid, (0, 0), (4, 0), closed=True)


class TestMeetJoinDeMorgan:
    @pytest.mark.parametrize("mode", [CAUSAL, CHRONOLOGICAL])
    def test_meet_join_complete(self, grid, mode, rng):
        for _ in range(10):
            a = completion(random_region(grid, rng), mode)
            b = completion(random_region(grid, rng), mode)
            m = meet(a, b, mode)
            j = join(a, b, mode)
            assert is_complete(m, mode) and is_complete(j, mode)
            assert m <= a and m <= b and a <= j and b <= j

    def test_join_empty_is_completion(self, grid, rng):
        s = random_region(grid, rng)
        sc = completion(s, CAUSAL)
        assert join(Region.empty(grid), sc, CAUSAL) == sc

    def test_meet_of_disjoint_diamonds(self, grid):
        d1 = diamond(grid, (-8, -6), (-4, -6), closed=True)
        d2 = diamond(grid, (4, 6), (8, 6), closed=True)
        assert meet(d1, d2, CAUSAL).is_empty

    @pytest.mark.parametrize("mode", [CAUSAL, CHRONOLOGICAL])
    def test_de_morgan(self, grid, mode, rng):
        pairs = [(completion(random_region(grid, rng), mode),
                  completion(random_region(grid, rng), mode))
                 for _ in range(20)]
        assert de_morgan_check(pairs, mode) == []

    def test_self_complement_pair(self, grid, rng):
        s = completion(random_region(grid, rng), CAUSAL)
        sc = complement(s, CAUSAL)
        assert meet(s, sc, CAUSAL) == Region.empty(grid)
        assert join(s, sc, CAUSAL) == Region.full(grid)


def count_complements(monkeypatch):
    """Record every engine complement from now on; returns the growing list."""
    calls = []
    real = engine._complement_mask

    def counted(region, code, **kwargs):
        calls.append(code)
        return real(region, code, **kwargs)

    monkeypatch.setattr(engine, "_complement_mask", counted)
    return calls


class TestOrthomodularity:
    def test_trivial_equal_case(self, grid, rng):
        a = completion(random_region(grid, rng), CAUSAL)
        got = orthomodularity_check(a, a, CAUSAL)
        assert got["holds"] and got["witness"].is_empty

    def test_fig2_fails_causal(self, grid41):
        fig = fig2_counterexample(grid41)
        assert not fig["holds"]
        assert fig["witness"].count > 0
        # witness sits inside the wedge, outside the small diamond
        assert fig["witness"] <= fig["b"]
        assert (fig["witness"] & fig["a"]).is_empty

    def test_fig2_join_exceeds_union(self, grid41):
        fig = fig2_counterexample(grid41)
        union = fig["a"] | fig["bprime"]
        assert union <= fig["join_a_bprime"]
        assert fig["join_a_bprime"].count > union.count

    def test_fig2_regions_causally_disjoint(self, grid41):
        fig = fig2_counterexample(grid41)
        assert fig["a"] <= complement(fig["bprime"], CAUSAL)

    def test_fig2_resolution_doubling(self):
        fig = fig2_counterexample(IntegerGrid.centered(81, 81))
        assert not fig["holds"] and fig["witness"].count > 0

    def test_fig2_chron_analogue_holds(self, grid41):
        fig = fig2_counterexample(grid41)
        assert fig["chron_analogue_holds"] is True

    def test_grid_too_small_rejected(self):
        with pytest.raises(ValueError):
            fig2_counterexample(IntegerGrid.centered(15, 15))

    def test_fig2_is_1_plus_1(self):
        with pytest.raises(ValueError, match="1\\+1"):
            fig2_counterexample(IntegerGrid.centered(41, 41, 41))

    def test_requires_complete_inputs(self, grid):
        ragged = Region.from_points(grid, [(0, 0), (3, 0)])
        with pytest.raises(ValueError):
            orthomodularity_check(ragged, Region.full(grid), CAUSAL)

    @pytest.mark.parametrize("size", [41, 61, 81])
    def test_fig2_joins_equal_engine_joins(self, size):
        fig = fig2_counterexample(IntegerGrid.centered(size, size))
        a, b, bprime = fig["a"], fig["b"], fig["bprime"]
        assert fig["join_a_bprime"] == join(a, bprime, CAUSAL)
        check = orthomodularity_check(a, b, CAUSAL)
        assert check["join"] == join(a, complement(b, CAUSAL), CAUSAL)
        assert (check["holds"], check["witness"]) == (fig["holds"], fig["witness"])

    @pytest.mark.parametrize("mode", [CAUSAL, CHRONOLOGICAL])
    @pytest.mark.parametrize("shape", [(41, 41), (13, 13, 13), (9, 9, 9, 9)])
    def test_check_join_on_structured_pairs(self, shape, mode, rng):
        grid = IntegerGrid.centered(*shape)
        done = [completion(s, mode) for s in structured_regions(grid, rng, per_kind=3)]
        for a, c in zip(done, done[1:]):
            b = join(a, c, mode)  # complete, and a <= b
            joined = join(a, complement(b, mode), mode)
            check = orthomodularity_check(a, b, mode)
            assert check["join"] == joined
            assert check["witness"] == (b & joined) - a
            assert check["holds"] == ((b & joined) == a)

    def test_complement_counts(self, grid41, monkeypatch):
        calls = count_complements(monkeypatch)
        fig = fig2_counterexample(grid41)
        assert len(calls) <= 17
        calls.clear()
        orthomodularity_check(fig["a"], fig["b"], CAUSAL)
        assert len(calls) == 5


def oracle_join(grid, a, b, mode):
    """(a' meet b')' from the brute-force complement."""
    code = MODES.index(mode)
    inside = (complement_mask_bruteforce(grid.coords, a.mask, code)
              & complement_mask_bruteforce(grid.coords, b.mask, code))
    return Region(grid, complement_mask_bruteforce(grid.coords, inside, code))


# the 21x21 fixture's shape, narrow and tall 1+1 grids, and 2+1 and 3+1 grids
PROPERTY_GRIDS = [(21, 21), (11, 6), (12, 5), (13, 5), (14, 5), (16, 6), (41, 5), (41, 7),
                  (41, 11), (5, 15), (7, 5, 5), (9, 9, 9, 9)]


class TestPropertySuite:
    @pytest.mark.parametrize("mode", [CAUSAL, CHRONOLOGICAL])
    @pytest.mark.parametrize("shape", PROPERTY_GRIDS, ids=lambda s: "x".join(map(str, s)))
    def test_laws_and_counterexamples(self, shape, mode):
        grid = IntegerGrid.centered(*shape)
        rep = lattice_property_suite(grid, mode, seed=0, n_regions=25)
        assert rep["failures"] == []
        assert rep["atom_complete"]
        assert rep["covering"]["intermediate"] is not None
        assert rep["covering"]["join_is_expected_diamond"]
        assert rep["modularity"] is not None
        assert rep["distributivity"] is not None
        # both triples are the pentagon {p} <= k, {q}: two oracle joins re-derive
        # all four sides
        mod, dis = rep["modularity"], rep["distributivity"]
        atom, k, other = mod["a"], mod["b"], mod["c"]
        assert atom <= k and (dis["a"], dis["b"], dis["c"]) == (k, atom, other)
        low = oracle_join(grid, atom, k & other, mode)  # = (k meet {p}) join (k meet {q})
        high = k & oracle_join(grid, atom, other, mode)
        assert (mod["lhs"], mod["rhs"]) == (low, high)
        assert (dis["lhs"], dis["rhs"]) == (high, low)
        assert low != high

    def test_covering_intermediate_is_strict(self, grid):
        got = covering_counterexample(grid, (0, 0), (4, 0), CAUSAL)
        k = got["intermediate"]
        atom = Region.from_points(grid, [(0, 0)])
        dia = diamond(grid, (0, 0), (4, 0), closed=True)
        assert atom <= k and k <= dia and k != atom and k != dia
        assert is_complete(k, CAUSAL)

    @pytest.mark.parametrize("mode", [CAUSAL, CHRONOLOGICAL])
    @pytest.mark.parametrize("size", [41, 61, 81])
    def test_pentagon_sides_equal_their_compositions(self, size, mode):
        grid = IntegerGrid.centered(size, size)
        rep = lattice_property_suite(grid, mode, seed=0, n_regions=1)
        mod, dis = rep["modularity"], rep["distributivity"]
        atom, k, other = mod["a"], mod["b"], mod["c"]
        assert rep["covering"]["join"] == join(atom, other, mode)
        assert mod["lhs"] == join(atom, meet(k, other, mode), mode)
        assert mod["rhs"] == meet(k, join(atom, other, mode), mode)
        assert dis["lhs"] == meet(k, join(atom, other, mode), mode)
        assert dis["rhs"] == join(meet(k, atom, mode), meet(k, other, mode), mode)

    def test_property_suite_complement_count(self, grid41, monkeypatch):
        calls = count_complements(monkeypatch)
        lattice_property_suite(grid41, CAUSAL, 0, n_regions=2)
        assert len(calls) <= 18

    def test_one_covering_search_per_suite(self, grid, monkeypatch):
        # the covering witness spans both pentagons, so it is built once
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return covering_counterexample(*args, **kwargs)

        monkeypatch.setattr(laws, "covering_counterexample", counted)
        rep = lattice_property_suite(grid, CAUSAL, 0)
        assert len(calls) == 1
        assert rep["modularity"] is not None and rep["distributivity"] is not None
        assert rep["modularity"]["b"] == rep["covering"]["intermediate"]


class TestLawSweep:
    @pytest.mark.parametrize("mode", [CAUSAL, CHRONOLOGICAL])
    def test_completions_returned(self, grid, mode, rng):
        regions = [random_region(grid, rng) for _ in range(6)]
        assert law_sweep(regions, mode)["completions"] == [completion(s, mode) for s in regions]

    def test_wrong_complement_is_caught(self, grid, monkeypatch):
        def wrong(region, mode):  # complement of the region one slice later, plus the centre
            later = np.roll(region.mask.reshape(grid.shape), 1, axis=0).reshape(-1)
            return complement(Region(grid, later), mode) | Region.from_points(grid, [(0, 0)])

        monkeypatch.setattr(laws, "complement", wrong)
        regions = [Region.from_points(grid, pts) for pts in ([(0, 0)], [(3, 2), (-4, 1)])]
        sweep = law_sweep(regions, CAUSAL)
        assert all(sweep["violations"].values())  # every law is seen to fail
        # the centre is in every completion and in its complement
        assert sweep["violations"]["meet-with-complement"] == [0, 1]

    @pytest.mark.parametrize("mode", [CAUSAL, CHRONOLOGICAL])
    @pytest.mark.parametrize("shape", [(41, 41), (13, 13, 13), (9, 9, 9, 9)])
    def test_structured_regions(self, shape, mode, rng):
        # random_region's densities leave S' empty on these grids, so the laws
        # are checked here on sets whose complement is not trivial
        grid = IntegerGrid.centered(*shape)
        regions = structured_regions(grid, rng)
        assert all(not complement(s, mode).is_empty for s in regions)
        sweep = law_sweep(regions, mode)
        assert sweep["violations"] == {law: [] for law in laws.LAWS}
        done = sweep["completions"]
        assert de_morgan_check(list(zip(done, done[1:])), mode) == []


def structured_regions(grid, rng, per_kind=10):
    """Single points, two-point sets, closed diamonds and density-0.004
    masks, all inside the grid's central half."""
    lows = np.array([lo + (hi - lo) // 4 for lo, hi in grid.extents])
    highs = np.array([hi - (hi - lo) // 4 for lo, hi in grid.extents])
    central = np.all((grid.coords >= lows) & (grid.coords <= highs), axis=1)

    def point():
        return tuple(int(v) for v in rng.integers(lows, highs + 1))

    regions = [Region.from_points(grid, [point()]) for _ in range(per_kind)]
    regions += [Region.from_points(grid, [point(), point()]) for _ in range(per_kind)]
    while len(regions) < 3 * per_kind:
        d = diamond(grid, point(), point())
        if not d.is_empty:  # spacelike-separated tips span no diamond
            regions.append(d)
    regions += [Region(grid, central & (rng.random(grid.size) < 0.004))
                for _ in range(per_kind)]
    return regions


class TestGalilei:
    @pytest.mark.parametrize("galilei_complement",
                             [galilei_chron_complement, lambda s: oracle_complement(s, GALILEI)],
                             ids=["engine", "oracle"])
    def test_point_complement_is_slice_minus_point(self, grid, galilei_complement):
        p = Region.from_points(grid, [(0, 3)])
        got = galilei_complement(p)
        slice0 = Region(grid, grid.coords[:, 0] == 0)
        assert got == slice0 - p

    def test_one_slice_subset_complete(self, grid):
        s = Region.from_points(grid, [(2, -5), (2, 0), (2, 7)])
        assert completion(s, GALILEI) == s

    def test_multi_slice_completion_is_full(self, grid):
        s = Region.from_points(grid, [(0, 0), (1, 3)])
        assert complement(s, GALILEI).is_empty
        assert completion(s, GALILEI) == Region.full(grid)

    def test_distributive_within_slice(self, grid, rng):
        slice_mask = grid.coords[:, 0] == 0
        for _ in range(20):
            tri = []
            for _ in range(3):
                m = slice_mask & (rng.random(grid.size) < 0.4)
                tri.append(Region(grid, m))
            a, b, c = tri
            lhs = meet(a, join(b, c, GALILEI), GALILEI)
            rhs = join(meet(a, b, GALILEI), meet(a, c, GALILEI), GALILEI)
            assert lhs == rhs


class TestThreeDimensional:
    def test_laws_on_3d_grid(self, grid3d, rng):
        for mode in (CAUSAL, CHRONOLOGICAL):
            sweep = law_sweep([random_region(grid3d, rng) for _ in range(5)], mode)
            assert sweep["violations"] == {law: [] for law in laws.LAWS}

    def test_3d_kernel_identity(self, grid3d, rng):
        mask = rng.random(grid3d.size) < 0.05
        for mode in MODES:
            assert_matches_oracle(grid3d, mask, mode)


class TestExport:
    def test_json_round_trip(self, grid, rng):
        s = random_region(grid, rng)
        doc = region_to_json(s)
        back = region_from_json(doc)
        assert back.grid.extents == grid.extents
        assert back == Region(back.grid, s.mask)

    def test_json_schema_fields(self, grid):
        s = Region.from_points(grid, [(0, -1), (0, 0), (0, 1), (2, 5)])
        doc = json.loads(region_to_json(s))
        assert doc["schema_version"] == 1
        assert doc["dim"] == 2
        assert doc["extents"] == [[-10, 10], [-10, 10]]
        assert [[0], [-1, 3]] in doc["rows"]  # run of three cells at t=0
        assert [[2], [5, 1]] in doc["rows"]

    @pytest.mark.parametrize("rows,dim", [
        ([[[0], [-4, 2]]], 2),
        ([[[0], [1, 9]]], 2),
        ([[[0], [2, 2]]], 2),
        ([[[-4], [0, 1]]], 2),
        ([[[7], [0, 1]]], 2),
        ([[[0, 0], [0, 1]]], 2),
        ([[[0], [0, -1]]], 2),
        ([[[0], [0, 0]]], 2),
        ([[[0], [0, 1]]], 3),
    ], ids=["run-before-row", "run-past-row", "run-one-past-row", "row-key-below",
            "row-key-above", "row-key-too-long", "negative-length", "zero-length",
            "dim-disagrees"])
    def test_json_out_of_range_rejected(self, rows, dim):
        doc = {"schema_version": 1, "dim": dim, "extents": [[-2, 2], [-2, 2]], "rows": rows}
        with pytest.raises(ValueError):
            region_from_json(json.dumps(doc))

    def test_json_edges_accepted(self):
        grid = IntegerGrid.centered(5, 5)
        rows = [[[-2], [-2, 5]], [[2], [2, 1]]]  # a whole first row, the last cell
        doc = {"schema_version": 1, "dim": 2, "extents": [[-2, 2], [-2, 2]], "rows": rows}
        want = Region(grid, (grid.coords[:, 0] == -2) | (grid.coords == [2, 2]).all(axis=1))
        assert region_from_json(json.dumps(doc)) == want

    def test_pbm_shape(self, grid):
        s = Region.from_points(grid, [(0, 0)])
        pbm = region_to_pbm(s).splitlines()
        assert pbm[0] == "P1"
        assert pbm[1] == "21 21"
        assert len(pbm) == 2 + 21
        assert pbm[2 + 10].split()[10] == "1"

    def test_pbm_rejects_3d(self, grid3d):
        with pytest.raises(ValueError):
            region_to_pbm(Region.empty(grid3d))

    def test_json_round_trip_3d(self, grid3d, rng):
        s = Region(grid3d, rng.random(grid3d.size) < 0.1)
        assert region_from_json(region_to_json(s)) == Region(grid3d, s.mask)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_json_rows_are_maximal_runs(self, data):
        grid = draw_grid(data)
        lines = data.draw(hnp.arrays(bool, grid.shape), label="mask").reshape(-1, grid.shape[-1])
        fills = data.draw(st.lists(st.sampled_from([None, True, False]),
                                   min_size=len(lines), max_size=len(lines)), label="rows")
        for line, fill in zip(lines, fills):
            if fill is not None:  # a whole row set or clear
                line[:] = fill
        region = Region(grid, lines.reshape(-1))
        text = region_to_json(region)
        assert np.array_equal(region_from_json(text).mask, region.mask)
        for _, *runs in json.loads(text)["rows"]:
            ends = [(start, start + length) for start, length in runs]
            assert runs and all(grid.extents[-1][0] <= a < b <= grid.extents[-1][1] + 1
                                for a, b in ends)
            assert all(b < c for (_, b), (c, _) in zip(ends, ends[1:]))  # maximal runs
        if grid.dim == 2:
            bits = [r.split() for r in region_to_pbm(region).splitlines()[2:]]
            assert np.array_equal(np.array(bits) == "1", lines)
