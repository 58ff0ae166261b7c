import random

import pytest

from affinecrystal import (
    ArmViolation,
    Box,
    Partition,
    arm_from_descriptor,
    arm_from_file,
    arm_from_values,
    horizontal_arm,
    is_illegal_box,
    is_regular,
    parse_partition,
    partitions_of_size,
    random_arm,
    unchecked_arm,
    validate_arm,
)
from affinecrystal.arms import horizontal_value
from affinecrystal.errors import (
    AxiomIIViolation,
    AxiomIViolation,
    BoundOutOfRange,
    BoxOutside,
    EmptyArmTable,
    HorizonExceedsTable,
    ParseError,
    RankTooSmall,
)
from helpers import oracle_is_regular

BIG = parse_partition("[11,7,4,2,1,1,1,1,1,1]")
WIDE = parse_partition("[7,6,5,5,5,3,3,1]")


class TestHorizontal:
    def test_values(self):
        assert horizontal_arm(3).value(3) == 4
        assert horizontal_arm(4).value(2) == 3
        assert horizontal_arm(3).value(1) == 1

    def test_index_starts_at_one(self):
        with pytest.raises(BoundOutOfRange):
            horizontal_arm(3).value(0)

    def test_rank(self):
        with pytest.raises(RankTooSmall):
            horizontal_arm(2)

    @pytest.mark.parametrize("n", [3.0, 4.5, "3", True])
    def test_rank_not_int(self, n):
        with pytest.raises(RankTooSmall):
            horizontal_arm(n)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_satisfies_both_conditions(self, n):
        # exhaustive check is the oracle
        assert validate_arm(horizontal_arm(n), 200) == []

    def test_neighbor_window(self):
        for n in range(3, 9):
            for t in range(1, 60):
                step = horizontal_value(n, t + 1) - horizontal_value(n, t)
                a1 = horizontal_value(n, 1)
                assert step in (a1, a1 + 1)


class TestTables:
    def test_valid_table(self):
        a = arm_from_values(4, (1, 3, 5, 7))
        assert [a.value(t) for t in range(1, 5)] == [1, 3, 5, 7]
        # coincides with the horizontal choice at rank 4
        assert all(a.value(t) == horizontal_value(4, t) for t in range(1, 5))

    def test_condition_one_rejected(self):
        with pytest.raises(AxiomIViolation) as err:
            arm_from_values(3, (3,))
        assert err.value.t == 1

    def test_condition_two_rejected(self):
        with pytest.raises(AxiomIIViolation) as err:
            arm_from_values(3, (1, 4))
        assert (err.value.t, err.value.u) == (1, 1)

    def test_empty(self):
        with pytest.raises(EmptyArmTable):
            arm_from_values(3, ())

    def test_beyond_horizon(self):
        a = arm_from_values(4, (1, 3, 5, 7))
        with pytest.raises(HorizonExceedsTable):
            a.value(5)

    def test_validate_lists_violations(self):
        raw = unchecked_arm(3, (1, 2, 5))
        assert validate_arm(raw, 3) == [ArmViolation(2, 1, 2)]

    def test_validate_horizon_one_only_checks_condition_one(self):
        # no decompositions exist at horizon 1
        raw = unchecked_arm(3, (2,))
        assert validate_arm(raw, 1) == []
        raw = unchecked_arm(3, (3,))
        assert validate_arm(raw, 1) == [ArmViolation(1, 1)]

    @pytest.mark.parametrize("horizon", [0, 2.5, 3.0, "3", None])
    def test_validate_horizon_out_of_range(self, horizon):
        with pytest.raises(BoundOutOfRange):
            validate_arm(horizontal_arm(3), horizon)

    def test_validate_beyond_table(self):
        raw = unchecked_arm(3, (1, 2))
        with pytest.raises(HorizonExceedsTable):
            validate_arm(raw, 3)


class TestRandomArm:
    def test_deterministic(self):
        a = random_arm(4, 30, 99)
        b = random_arm(4, 30, 99)
        assert a.values == b.values
        assert a.descriptor == "random:99:30"

    @pytest.mark.parametrize("horizon", [0, 2.5, 3.0, "3", None])
    def test_horizon_out_of_range(self, horizon):
        with pytest.raises(BoundOutOfRange):
            random_arm(3, horizon, 1)

    def test_horizon_one(self):
        for seed in range(40):
            a = random_arm(4, 1, seed)
            assert 0 <= a.value(1) <= 3

    def test_validates(self):
        # the validator is the oracle
        assert validate_arm(random_arm(3, 50, 7), 50) == []
        for n in (3, 4, 5):
            for seed in range(10):
                assert validate_arm(random_arm(n, 40, seed), 40) == []


class TestIllegal:
    def test_wide_box(self):
        assert is_illegal_box(WIDE, Box(3, 2), horizontal_arm(4)) is True

    def test_small_hook(self):
        assert is_illegal_box(Partition([1]), Box(1, 1), horizontal_arm(5)) is False

    def test_staircase_corner(self):
        assert is_illegal_box(Partition([2, 1]), Box(1, 1), horizontal_arm(3)) is True

    def test_outside(self):
        with pytest.raises(BoxOutside):
            is_illegal_box(Partition([1]), Box(2, 2), horizontal_arm(3))

    def test_table_too_short(self):
        a = arm_from_values(3, (1,))
        with pytest.raises(HorizonExceedsTable):
            is_illegal_box(Partition([5, 2]), Box(1, 1), a)  # hook 6 needs A_2


class TestRegular:
    def test_examples(self):
        assert is_regular(WIDE, horizontal_arm(4)) is False
        assert is_regular(BIG, horizontal_arm(4)) is True
        assert is_regular(Partition(), horizontal_arm(3)) is True

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_against_brute_force(self, n):
        a = horizontal_arm(n)
        for m in range(13):
            for lam in partitions_of_size(m):
                expected = oracle_is_regular(lam.parts, n, a.value)
                assert is_regular(lam, a) == expected

    def test_random_tables_against_brute_force(self):
        rng = random.Random(5)
        for n in (3, 4):
            for seed in range(3):
                a = random_arm(n, 16, seed)
                for m in range(11):
                    for lam in partitions_of_size(m):
                        expected = oracle_is_regular(lam.parts, n, a.value)
                        assert is_regular(lam, a) == expected
        del rng


class TestDescriptors:
    def test_horizontal(self):
        a = arm_from_descriptor(4, "horizontal")
        assert a.values is None and a.descriptor == "horizontal"

    def test_random(self):
        a = arm_from_descriptor(4, "random:7:20")
        assert a.values == random_arm(4, 20, 7).values

    def test_file(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("1 3 5\n7\n")
        a = arm_from_file(4, str(path))
        assert a.values == (1, 3, 5, 7)
        assert a.descriptor == f"file:{path}"
        assert arm_from_descriptor(4, f"file:{path}").values == (1, 3, 5, 7)

    def test_bad_file(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("1 x 3")
        with pytest.raises(ParseError):
            arm_from_file(4, str(path))

    @pytest.mark.parametrize("text", ["", "random:1", "random:a:b", "diagonal"])
    def test_bad_descriptor(self, text):
        with pytest.raises(ParseError):
            arm_from_descriptor(4, text)
