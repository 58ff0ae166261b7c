import random
from itertools import combinations

import pytest

from affinecrystal import (
    Box,
    Partition,
    arm_from_values,
    bracket_string,
    box_order_gt,
    e_box,
    e_up,
    eps_phi,
    f_box,
    f_down,
    height,
    horizontal_arm,
    horizontal_key,
    is_regular,
    parse_partition,
    random_arm,
    residue,
)
from affinecrystal._kernel_py import corner_tokens, horizontal_value
from affinecrystal.errors import HorizonExceedsTable, ParseError, ResidueMismatch, SameBox
from affinecrystal.graphs import compare_models
from helpers import (
    oracle_good_node,
    oracle_is_regular,
    oracle_partitions,
    oracle_precedes,
    oracle_regular_counts,
    oracle_scan,
    random_partition,
)

BIG = parse_partition("[11,7,4,2,1,1,1,1,1,1]")
H3, H4 = horizontal_arm(3), horizontal_arm(4)


def colored_corners(lam, i, n):
    return [
        b
        for b in lam.addable_boxes() + lam.removable_boxes()
        if residue(b, n) == i
    ]


class TestOrder:
    def test_height_gap(self):
        assert box_order_gt(Box(4, 2), Box(2, 8), H4) is True
        assert box_order_gt(Box(2, 8), Box(4, 2), H4) is False

    def test_equal_height_content_breaks_tie(self):
        # the two height-11 corners of the big example partition
        assert box_order_gt(Box(11, 1), Box(1, 11), H4) is True
        assert box_order_gt(Box(1, 11), Box(11, 1), H4) is False

    def test_same_box(self):
        with pytest.raises(SameBox):
            box_order_gt(Box(1, 1), Box(1, 1), H4)

    def test_same_content(self):
        with pytest.raises(SameBox):
            box_order_gt(Box(1, 1), Box(2, 2), H4)

    def test_residue_mismatch(self):
        with pytest.raises(ResidueMismatch):
            box_order_gt(Box(1, 1), Box(1, 2), H4)

    def test_antisymmetry_and_transitivity(self):
        rng = random.Random(77)
        for n, a in ((3, H3), (4, H4), (3, random_arm(3, 40, 11))):
            for _ in range(120):
                lam = random_partition(rng, 18)
                for i in range(n):
                    corners = colored_corners(lam, i, n)
                    for b, bp in combinations(corners, 2):
                        assert box_order_gt(b, bp, a) != box_order_gt(bp, b, a)
                    ordered = sorted(
                        corners,
                        key=lambda b: sum(
                            box_order_gt(c, b, a) for c in corners if c != b
                        ),
                    )
                    # sorting by dominance count only works if the order is
                    # total and transitive; verify pairwise that later
                    # entries dominate earlier ones
                    for x in range(len(ordered)):
                        for z in range(x + 1, len(ordered)):
                            assert box_order_gt(ordered[x], ordered[z], a)


    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_table_arm_corners_follow_definition(self, n):
        # corner_tokens sorts table-arm corners with the kernel comparator;
        # the order it yields must be the definition's, pair by pair.  The
        # sort only ever asks it about a later-built corner against an
        # earlier one, so box_order_gt, which shares the comparator, is
        # asked both ways round too
        for seed in (1, 2, 3):
            a = random_arm(n, 40, seed)
            for m in range(13):
                for parts in oracle_partitions(m):
                    for i in range(n):
                        boxes = [
                            Box(-nr, h + 1 + nr)
                            for h, nr, _ in corner_tokens(parts, i, n, a.values)
                        ]
                        for x, z in combinations(range(len(boxes)), 2):
                            b, bp = boxes[z], boxes[x]
                            assert oracle_precedes(b, bp, a), (parts, i, seed)
                            assert box_order_gt(b, bp, a)
                            assert not box_order_gt(bp, b, a)


class TestHorizontalKey:
    def test_values(self):
        assert horizontal_key(Box(1, 11)) == (11, 10)
        assert horizontal_key(Box(1, 1)) == (1, 0)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_generic_comparator(self, n):
        # the generic comparator is the oracle, on regular partitions
        rng = random.Random(n * 31)
        a = horizontal_arm(n)
        seen = 0
        while seen < 300:
            lam = random_partition(rng, 20)
            if not is_regular(lam, a):
                continue
            seen += 1
            for i in range(n):
                corners = colored_corners(lam, i, n)
                by_key = sorted(corners, key=horizontal_key, reverse=True)
                for x in range(len(by_key)):
                    for z in range(x + 1, len(by_key)):
                        assert box_order_gt(by_key[z], by_key[x], a)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_kernel_key_matches_table_comparator(self, n):
        # the kernel sorts horizontal corners by key and table corners by
        # the comparator; a table holding the horizontal values must agree
        table = [horizontal_value(n, t) for t in range(1, 31)]
        for m in range(15):
            for parts in oracle_partitions(m):
                for i in range(n):
                    assert corner_tokens(parts, i, n, None) == corner_tokens(
                        parts, i, n, table
                    ), (parts, i)


class TestBracketString:
    def test_big_string(self):
        s = bracket_string(BIG, 2, H4)
        assert str(s) == ")((()"
        assert [height(b) for b in s.payloads] == [11, 11, 9, 7, 5]
        assert (s.eps, s.phi) == (1, 2)

    def test_empty_partition(self):
        assert str(bracket_string(Partition(), 0, H3)) == "("
        assert str(bracket_string(Partition(), 1, H3)) == ""
        assert str(bracket_string(Partition(), 2, H4)) == ""

    def test_matching_shape(self):
        # unmatched tokens always read ")* (*": the counts and acting
        # positions are those left by deleting adjacent "()" pairs, and the
        # last unmatched ')' comes before the first unmatched '('
        rng = random.Random(13)
        for _ in range(200):
            lam = random_partition(rng, 16)
            for i in range(4):
                s = bracket_string(lam, i, H4)
                eps, phi, close, opening = oracle_scan(s.sides)
                assert (s.eps, s.phi) == (eps, phi)
                assert s.last_close == close
                assert s.first_open == opening
                if eps and phi:
                    assert close < opening


class TestOperators:
    def test_lowering_example(self):
        assert f_down(BIG, 2, H4) == parse_partition("[11,7,4,2,1,1,1,1,1,1,1]")
        assert f_box(BIG, 2, H4) == Box(11, 1)

    def test_lowering_empty(self):
        assert f_down(Partition(), 0, H3) == Partition([1])
        assert f_down(Partition(), 1, H3) is None
        assert f_down(Partition(), 2, H4) is None

    def test_raising_examples(self):
        assert e_up(Partition(), 0, H3) is None
        assert e_up(Partition([1]), 0, H3) == Partition()
        assert e_box(BIG, 2, H4) == Box(1, 11)

    def test_counts(self):
        assert eps_phi(BIG, 2, H4) == (1, 2)
        assert eps_phi(Partition(), 0, H3) == (0, 1)

    def test_partial_inverse_laws(self):
        rng = random.Random(99)
        for n, a in ((3, H3), (4, H4), (5, horizontal_arm(5)), (3, random_arm(3, 40, 5))):
            for _ in range(400):
                lam = random_partition(rng, 15)
                i = rng.randrange(n)
                down = f_down(lam, i, a)
                if down is not None:
                    assert e_up(down, i, a) == lam
                    assert down.size == lam.size + 1
                    assert eps_phi(down, i, a)[1] == eps_phi(lam, i, a)[1] - 1
                up = e_up(lam, i, a)
                if up is not None:
                    assert f_down(up, i, a) == lam

    def test_count_difference_identity(self):
        rng = random.Random(42)
        for _ in range(300):
            lam = random_partition(rng, 18)
            for i in range(4):
                eps, phi = eps_phi(lam, i, H4)
                adds = sum(1 for b in lam.addable_boxes() if residue(b, 4) == i)
                rems = sum(1 for b in lam.removable_boxes() if residue(b, 4) == i)
                assert phi - eps == adds - rems

    def test_table_too_short_for_comparator(self):
        # two corners far apart need A_t beyond the table
        a = random_arm(3, 2, seed=1)
        lam = parse_partition("[9,1,1]")
        for op in (bracket_string, f_down, e_up, eps_phi):
            with pytest.raises(HorizonExceedsTable):
                op(lam, 0, a)
        with pytest.raises(HorizonExceedsTable):
            is_regular(parse_partition("[8,1]"), a)  # corner hook 9 needs A_3

    @pytest.mark.parametrize("bad", [0.0, 1.5, "0", None, True])
    def test_color_not_int(self, bad):
        # the kernel reduces any number with %, so unchecked, 1.5 would
        # lower [1] to None and True like 1; the monomial side raises the same
        for op in (f_down, e_up, eps_phi, f_box, e_box, bracket_string):
            with pytest.raises(ParseError, match="is not an int"):
                op(Partition([1]), bad, H3)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("horizon", [2, 3])
    def test_is_regular_matches_oracle(self, n, horizon):
        # both scan the top row first, left to right, so a table too short
        # for some box raises on exactly the same partitions
        a = random_arm(n, horizon, seed=n + horizon)

        def outcome(check):
            try:
                return check()
            except HorizonExceedsTable as exc:
                return ("raises", exc.t)

        for m in range(13):
            for parts in oracle_partitions(m):
                assert outcome(lambda: is_regular(Partition(parts), a)) == outcome(
                    lambda: oracle_is_regular(parts, n, a.value)
                ), parts


class TestClosure:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_regular_set_closed(self, n):
        a = horizontal_arm(n)
        frontier = [Partition()]
        seen = {Partition()}
        for _ in range(7):
            nxt = []
            for lam in frontier:
                for i in range(n):
                    down = f_down(lam, i, a)
                    if down is None:
                        continue
                    assert is_regular(down, a)
                    up = e_up(lam, i, a)
                    if up is not None:
                        assert is_regular(up, a)
                    if down not in seen:
                        seen.add(down)
                        nxt.append(down)
            frontier = nxt

    def test_highest_weight_unique(self):
        a = horizontal_arm(3)
        frontier = [Partition()]
        seen = {Partition()}
        for _ in range(8):
            nxt = []
            for lam in frontier:
                for i in range(3):
                    down = f_down(lam, i, a)
                    if down is not None and down not in seen:
                        seen.add(down)
                        nxt.append(down)
            frontier = nxt
        killed = [
            lam for lam in seen if all(e_up(lam, i, a) is None for i in range(3))
        ]
        assert killed == [Partition()]


class TestMisraMiwa:
    """The least and the greatest arm sequences against their classical
    crystals: Misra-Miwa on n-regular partitions, and its conjugate on
    n-restricted ones."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_extreme_tables(self, n):
        for values, increasing in (([t - 1 for t in range(1, 61)], True),
                                   ([(n - 1) * t for t in range(1, 61)], False)):
            a = arm_from_values(n, values)
            for m in range(13):
                for parts in oracle_partitions(m):
                    lam = Partition(parts)
                    if increasing:
                        classical = all(parts.count(p) < n for p in parts)
                    else:
                        classical = all(p - q < n for p, q in zip(parts, parts[1:] + (0,)))
                    assert is_regular(lam, a) == classical, (values[:3], parts)
                    if not classical:
                        continue
                    for i in range(n):
                        f, e = oracle_good_node(parts, i, n, increasing)
                        got = [None if mu is None else mu.parts
                               for mu in (f_down(lam, i, a), e_up(lam, i, a))]
                        assert got == [f, e], (values[:3], parts, i)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_deep_walk_against_monomial(self, n):
        # far past the horizon-4 tables of TestEveryValidTable, both
        # extremes give the monomial crystal level by level
        for values in ([t - 1 for t in range(1, 61)], [(n - 1) * t for t in range(1, 61)]):
            a = arm_from_values(n, values)
            vertices, mismatch = compare_models(n, 20, "partition", "monomial", a)
            assert mismatch is None, (values[:3], str(mismatch))
            assert vertices == sum(oracle_regular_counts(n, 20))
