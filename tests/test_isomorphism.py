import random

import pytest

import helpers
from affinecrystal import (
    Box,
    Partition,
    bracket_string,
    check_intertwining,
    eps_phi,
    f_m,
    format_monomial,
    height,
    horizontal_arm,
    is_regular,
    monomial_bracket_string,
    mult_a,
    parse_monomial,
    parse_partition,
    partition_to_monomial,
    partitions_of_size,
    residue,
    stats,
    y,
)
from affinecrystal.errors import BoundOutOfRange, NotRegular
from affinecrystal.partitions import MAX_PARTITION_SIZE
from helpers import (
    box_tokens_as_slots,
    cancel_matching_slot_pairs,
    check_corner_order_rules,
    monomial_tokens_as_slots,
    oracle_corner_monomial,
    random_partition,
    regular_partitions,
)

BIG = parse_partition("[11,7,4,2,1,1,1,1,1,1]")
BIG_IMAGE = "Y(2,12)^-1*Y(2,10)*Y(1,9)^-1*Y(2,8)*Y(1,7)^-1*Y(1,5)*Y(3,5)"


def random_regular(rng, n, steps):
    """f-walks from the empty partition stay regular."""
    from affinecrystal import f_down

    a = horizontal_arm(n)
    lam = Partition()
    for _ in range(steps):
        i = rng.randrange(n)
        nxt = f_down(lam, i, a)
        if nxt is not None:
            lam = nxt
    return lam


class TestCornerMap:
    def test_big_image_exact(self):
        assert format_monomial(partition_to_monomial(BIG, 4)) == BIG_IMAGE

    def test_empty(self):
        for n in (3, 4, 5, 7):
            assert partition_to_monomial(Partition(), n) == y(n, 0, 0)

    def test_single_box(self):
        got = partition_to_monomial(Partition([1]), 3)
        assert got == parse_monomial("Y(0,2)^-1*Y(1,1)*Y(2,1)", 3)
        assert got == f_m(y(3, 0, 0), 0)

    def test_rank_guard(self):
        with pytest.raises(BoundOutOfRange, match=r"^rank must be an int >= 3, got "):
            partition_to_monomial(Partition(), 2)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_against_corner_boxes(self, n):
        merged = 0  # images where two corners share a factor Y(i, k)
        for m in range(13):
            for lam in partitions_of_size(m):
                got = partition_to_monomial(lam, n)
                expected = oracle_corner_monomial(lam, n)
                assert got == expected and hash(got) == hash(expected), lam
                assert got.factors() == expected.factors()
                corners = len(lam.addable_boxes()) + len(lam.removable_boxes())
                merged += len(got.factors()) < corners
        assert merged > 0

    def test_images_at_the_size_ceiling_read_back(self):
        # a row or column of MAX_PARTITION_SIZE boxes has a corner factor
        # with k one above the ceiling, which parse_monomial must accept
        cases = [(n, [MAX_PARTITION_SIZE]) for n in (3, 4, 7)]
        for n, parts in cases + [(3, [1] * MAX_PARTITION_SIZE)]:
            image = partition_to_monomial(Partition(parts), n)
            assert parse_monomial(format_monomial(image), n) == image, (n, len(parts))
        assert format_monomial(image) == "Y(0,1000001)^-1*Y(2,1000000)*Y(1,1)"

    def test_exponent_sum_is_one(self):
        rng = random.Random(17)
        for _ in range(400):
            lam = random_partition(rng, 25)
            n = rng.choice([3, 4, 5])
            m = partition_to_monomial(lam, n)
            assert sum(u for _, u in m.factors()) == 1


def add_box_factor_holds(lam, b, n):
    """Adding box b multiplies the corner-map image by A(residue, height)^-1."""
    grown = partition_to_monomial(lam.add_box(b), n)
    return grown == mult_a(partition_to_monomial(lam, n), residue(b, n), height(b), -1)


class TestAddBoxFactor:
    def test_empty_plus_corner(self):
        assert add_box_factor_holds(Partition(), Box(1, 1), 3)

    def test_big_plus_new_row(self):
        assert add_box_factor_holds(BIG, Box(11, 1), 4)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_exhaustive_small(self, n):
        # holds for every partition, not only regular ones
        for m in range(8):
            for lam in partitions_of_size(m):
                for b in lam.addable_boxes():
                    assert add_box_factor_holds(lam, b, n)


class TestIntertwining:
    def test_big_example(self):
        rep = check_intertwining(BIG, 2, 4)
        assert rep.ok
        grown = parse_partition("[11,7,4,2,1,1,1,1,1,1,1]")
        assert rep.f_partition_side == partition_to_monomial(grown, 4)
        assert rep.f_monomial_side == rep.f_partition_side

    def test_empty_nulls_match(self):
        rep = check_intertwining(Partition(), 0, 3)
        assert rep.ok
        assert rep.e_partition_side is None and rep.e_monomial_side is None

    def test_refuses_irregular(self):
        with pytest.raises(NotRegular):
            check_intertwining(Partition([2, 2]), 0, 3)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_exhaustive_small(self, n):
        for lam in regular_partitions(n, 9):
            for i in range(n):
                assert check_intertwining(lam, i, n).ok


class TestBracketCorrespondence:
    def test_big_strings_differ_by_one_pair(self):
        a = horizontal_arm(4)
        image = partition_to_monomial(BIG, 4)
        box_side = box_tokens_as_slots(bracket_string(BIG, 2, a))
        mono_side = monomial_tokens_as_slots(monomial_bracket_string(image, 2))
        reduced, removed = cancel_matching_slot_pairs(box_side)
        assert reduced == mono_side
        assert removed == 1

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_reduction_reaches_monomial_string(self, n):
        a = horizontal_arm(n)
        for lam in regular_partitions(n, 10):
            image = partition_to_monomial(lam, n)
            for i in range(n):
                box_side = box_tokens_as_slots(bracket_string(lam, i, a))
                mono_side = monomial_tokens_as_slots(
                    monomial_bracket_string(image, i)
                )
                reduced, _ = cancel_matching_slot_pairs(box_side)
                assert reduced == mono_side

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_count_agreement(self, n):
        a = horizontal_arm(n)
        for lam in regular_partitions(n, 10):
            image = partition_to_monomial(lam, n)
            for i in range(n):
                st = stats(image, i)
                assert eps_phi(lam, i, a) == (st.eps, st.phi)


class TestCornerOrderRules:
    def test_big_example(self):
        for i in range(4):
            assert check_corner_order_rules(BIG, i, 4).ok

    def test_single_box_vacuous(self):
        assert check_corner_order_rules(Partition([1]), 0, 3).ok

    def test_refuses_irregular(self):
        with pytest.raises(NotRegular):
            check_corner_order_rules(Partition([2, 2]), 0, 3)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_randomized(self, n):
        rng = random.Random(n)
        for _ in range(60):
            lam = random_regular(rng, n, 25)
            for i in range(n):
                assert check_corner_order_rules(lam, i, n).ok

    @pytest.mark.parametrize("rule, parts, i", [
        ("i", [2, 1], 1), ("ii", [3, 1, 1, 1], 0), ("iii", [2, 1], 1),
        ("iv", [4, 2, 1], 1), ("v", [4, 3, 1], 1)])
    def test_each_rule_fires_off_the_regular_set(self, monkeypatch, rule, parts, i):
        # the rules need the regularity hypothesis: with the guard accepting
        # every partition, each one fails on an irregular partition
        lam = Partition(parts)
        assert not is_regular(lam, horizontal_arm(3))
        monkeypatch.setattr(helpers, "oracle_is_regular", lambda parts, n, arm_value: True)
        report = check_corner_order_rules(lam, i, 3)
        assert rule in {v[0] for v in report.violations}


class TestInjectivity:
    @pytest.mark.parametrize("n", [3, 4])
    def test_distinct_images_on_regular_set(self, n):
        seen = {}
        for lam in regular_partitions(n, 10):
            image = format_monomial(partition_to_monomial(lam, n))
            assert image not in seen, f"{lam} and {seen[image]} collide"
            seen[image] = lam
