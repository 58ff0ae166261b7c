import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinecrystal import (
    Box,
    Partition,
    arm,
    content,
    format_partition,
    height,
    hook,
    parse_partition,
    partitions_of_size,
    residue,
)
from affinecrystal.errors import (
    BoundOutOfRange,
    BoxOutside,
    ParseError,
)
from affinecrystal.partitions import MAX_RANK, check_rank
from helpers import (
    oracle_arm,
    oracle_corners,
    oracle_hook,
    oracle_partitions,
    random_partition,
)

BIG = parse_partition("[11,7,4,2,1,1,1,1,1,1]")
WIDE = parse_partition("[7,6,5,5,5,3,3,1]")

partitions_strategy = st.lists(st.integers(1, 12), max_size=10).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


class TestParse:
    def test_example(self):
        assert BIG.parts == (11, 7, 4, 2, 1, 1, 1, 1, 1, 1)

    def test_empty(self):
        assert parse_partition("[]") == Partition()

    def test_not_decreasing(self):
        with pytest.raises(ParseError, match=r"^parts increase: 2 < 3$"):
            parse_partition("[2,3]")

    def test_nonpositive(self):
        with pytest.raises(ParseError, match=r"^parts must be positive, got 0$"):
            parse_partition("[2,0]")

    @pytest.mark.parametrize("text", ["", "[", "[1,]", "1,2", "[1 ,2]", "[a]", "[-1]"])
    def test_syntax(self, text):
        with pytest.raises(ParseError):
            parse_partition(text)

    @given(partitions_strategy)
    def test_round_trip(self, lam):
        assert parse_partition(format_partition(lam)) == lam

    def test_canonical_no_spaces(self):
        assert format_partition(BIG) == "[11,7,4,2,1,1,1,1,1,1]"
        assert format_partition(Partition()) == "[]"


class TestPartitionValue:
    @pytest.mark.parametrize("parts", [[2, 0], [-1], [1.5], ["2"], [True]])
    def test_parts_not_positive_ints(self, parts):
        with pytest.raises(ParseError, match=r"^parts must be (positive|integers), got "):
            Partition(parts)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            BIG.parts = (1,)
        assert BIG.parts == (11, 7, 4, 2, 1, 1, 1, 1, 1, 1)

    def test_repr_and_len(self):
        assert repr(BIG) == "Partition([11, 7, 4, 2, 1, 1, 1, 1, 1, 1])"
        assert eval(repr(BIG), {"Partition": Partition}) == BIG
        assert (len(BIG), len(Partition())) == (10, 0)


class TestBoxStats:
    def test_content(self):
        assert content(Box(3, 2)) == -1
        assert content(Box(1, 1)) == 0
        assert content(Box(1, 12)) == 11

    def test_height(self):
        assert height(Box(3, 2)) == 4
        assert height(Box(1, 1)) == 1
        assert height(Box(11, 1)) == 11

    def test_residue(self):
        assert residue(Box(11, 1), 4) == 2
        assert residue(Box(1, 1), 3) == 0
        assert residue(Box(1, 1), 7) == 0
        assert residue(Box(1, 12), 4) == 3

    def test_residue_rank(self):
        with pytest.raises(BoundOutOfRange, match=r"^rank must be an int >= 3, got "):
            residue(Box(1, 1), 2)

    def test_rank_ceiling(self):
        check_rank(MAX_RANK)
        for n in (MAX_RANK + 1, 10**19):
            with pytest.raises(BoundOutOfRange, match="ceiling"):
                check_rank(n)
        with pytest.raises(BoundOutOfRange):
            residue(Box(1, 1), 10**19)

    def test_arm(self):
        assert arm(WIDE, Box(3, 2)) == 3
        assert arm(Partition([1]), Box(1, 1)) == 0
        assert arm(Partition([4]), Box(1, 2)) == 2

    def test_hook(self):
        assert hook(WIDE, Box(3, 2)) == 8
        assert hook(Partition([1]), Box(1, 1)) == 1
        assert hook(Partition([2, 1]), Box(1, 1)) == 3

    def test_outside(self):
        with pytest.raises(BoxOutside):
            arm(Partition([1]), Box(1, 2))
        with pytest.raises(BoxOutside):
            hook(Partition([2]), Box(2, 1))

    def test_hook_against_cell_count(self):
        # brute-force cell counting is the oracle, sizes up to 30
        rng = random.Random(20240)
        for _ in range(200):
            lam = random_partition(rng, 30)
            for b in lam.boxes():
                assert hook(lam, b) == oracle_hook(lam.parts, b.row, b.col)
                assert arm(lam, b) == oracle_arm(lam.parts, b.row, b.col)


class TestCorners:
    def test_big_corners(self):
        assert BIG.addable_boxes() == [
            Box(1, 12), Box(2, 8), Box(3, 5), Box(4, 3), Box(5, 2), Box(11, 1),
        ]
        assert BIG.removable_boxes() == [
            Box(1, 11), Box(2, 7), Box(3, 4), Box(4, 2), Box(10, 1),
        ]

    def test_empty(self):
        assert Partition().addable_boxes() == [Box(1, 1)]
        assert Partition().removable_boxes() == []

    def test_single(self):
        assert Partition([1]).addable_boxes() == [Box(1, 2), Box(2, 1)]
        assert Partition([1]).removable_boxes() == [Box(1, 1)]

    def test_against_definition(self):
        for m in range(13):
            for parts in oracle_partitions(m):
                lam = Partition(parts)
                addable, removable = oracle_corners(parts)
                assert lam.addable_boxes() == addable
                assert lam.removable_boxes() == removable

    @given(partitions_strategy)
    def test_one_more_addable(self, lam):
        assert len(lam.addable_boxes()) == len(lam.removable_boxes()) + 1

    @given(partitions_strategy)
    def test_distinct_contents(self, lam):
        corners = lam.addable_boxes() + lam.removable_boxes()
        contents = [content(b) for b in corners]
        assert len(set(contents)) == len(contents)

    @given(partitions_strategy)
    def test_add_remove_round_trip(self, lam):
        for b in lam.addable_boxes():
            assert lam.add_box(b).remove_box(b) == lam

    def test_add_example(self):
        assert BIG.add_box(Box(11, 1)).parts == (11, 7, 4, 2, 1, 1, 1, 1, 1, 1, 1)
        assert Partition().add_box(Box(1, 1)) == Partition([1])
        assert Partition([1]).remove_box(Box(1, 1)) == Partition()

    def test_not_addable(self):
        with pytest.raises(BoxOutside, match=r"^Box\(row=1, col=1\) is not addable to \[2\]$"):
            Partition([2]).add_box(Box(1, 1))
        with pytest.raises(BoxOutside, match=r"^Box\(row=1, col=1\) is not removable from \[2\]$"):
            Partition([2]).remove_box(Box(1, 1))


class TestConjugate:
    @given(partitions_strategy)
    @settings(max_examples=200)
    def test_involution(self, lam):
        assert lam.conjugate().conjugate() == lam

    def test_example(self):
        assert Partition([3, 1]).conjugate() == Partition([2, 1, 1])
        assert Partition().conjugate() == Partition()

    @given(partitions_strategy)
    @settings(max_examples=200)
    def test_column_lengths(self, lam):
        conj = lam.conjugate()
        assert Partition(conj.parts) == conj
        cols = lam.parts[0] if lam else 0
        assert conj.parts == tuple(
            sum(1 for p in lam.parts if p >= c) for c in range(1, cols + 1)
        )


class TestEnumeration:
    def test_counts(self):
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        got = [sum(1 for _ in partitions_of_size(m)) for m in range(11)]
        assert got == expected
        assert list(partitions_of_size(-1)) == []

    def test_against_oracle(self):
        for m in range(10):
            ours = {lam.parts for lam in partitions_of_size(m)}
            theirs = set(oracle_partitions(m))
            assert ours == theirs
