import itertools
import random

import pytest

from affinecrystal import (
    ArmSequence,
    Box,
    Partition,
    arm_from_descriptor,
    arm_from_file,
    arm_from_values,
    compare_models,
    count_regular,
    e_up,
    f_down,
    generate_graph,
    horizontal_arm,
    is_regular,
    parse_partition,
    partitions_of_size,
    random_arm,
    validate_arm,
)
from affinecrystal import _kernel_py, arms
from affinecrystal.arms import (
    _ARM_FILE_BYTES,
    _valid_prefix,
    _violations,
    horizontal_value,
    illegal_boxes,
)
from affinecrystal.errors import (
    ArmAxiomViolation,
    BoundOutOfRange,
    HorizonExceedsTable,
    ParseError,
)
from helpers import (
    oracle_arm,
    oracle_cells,
    oracle_hook,
    oracle_is_regular,
    oracle_partitions,
    oracle_random_arm,
    oracle_regular_counts,
    oracle_valid_tables,
)

BIG = parse_partition("[11,7,4,2,1,1,1,1,1,1]")
WIDE = parse_partition("[7,6,5,5,5,3,3,1]")


class TestHorizontal:
    def test_values(self):
        assert horizontal_arm(3).value(3) == 4
        assert horizontal_arm(4).value(2) == 3
        assert horizontal_arm(3).value(1) == 1

    def test_index_starts_at_one(self):
        for a in (horizontal_arm(3), ArmSequence(3, [1, 3])):
            with pytest.raises(BoundOutOfRange):
                a.value(0)
            for t in (1.5, True, 1.0, "1", None):
                with pytest.raises(ParseError):
                    a.value(t)

    def test_rank(self):
        with pytest.raises(BoundOutOfRange, match=r"^rank must be an int >= 3, got "):
            horizontal_arm(2)

    @pytest.mark.parametrize("n", [3.0, 4.5, "3", True])
    def test_rank_not_int(self, n):
        with pytest.raises(BoundOutOfRange, match=r"^rank must be an int >= 3, got "):
            horizontal_arm(n)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_satisfies_both_conditions(self, n):
        # exhaustive check is the oracle
        assert list(validate_arm(horizontal_arm(n), 200)) == []

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
        with pytest.raises(ArmAxiomViolation,
                           match=r"^A_1 = 3 outside \[0, 2\] for n = 3$") as err:
            arm_from_values(3, (3,))
        assert (err.value.t, err.value.u) == (1, None)

    def test_condition_two_rejected(self):
        with pytest.raises(ArmAxiomViolation, match=r"^A_2 = 4 outside \{2, 3\} = "
                           r"\{A_1\+A_1, A_1\+A_1\+1\}$") as err:
            arm_from_values(3, (1, 4))
        assert (err.value.t, err.value.u) == (1, 1)

    def test_empty(self):
        with pytest.raises(BoundOutOfRange, match=r"^arm table must be nonempty$"):
            arm_from_values(3, ())

    @pytest.mark.parametrize("make", [arm_from_values, ArmSequence])
    def test_table_shape(self, make):
        # every table-backed sequence holds 1..MAX_ARM_HORIZON values
        with pytest.raises(BoundOutOfRange, match=r"^arm table must be nonempty$"):
            make(3, iter(()))
        with pytest.raises(BoundOutOfRange, match=r"^horizon must be an int in 1\.\.1000, got 1001$"):
            make(3, [horizontal_value(3, t) for t in range(1, 1002)])

    def test_beyond_horizon(self):
        a = arm_from_values(4, (1, 3, 5, 7))
        with pytest.raises(HorizonExceedsTable):
            a.value(5)

    def test_validate_lists_violations(self):
        raw = ArmSequence(3, (1, 2, 5))
        bad = list(validate_arm(raw, 3))
        assert [(v.a, v.t, v.u) for v in bad] == [(raw, 1, 2)]
        assert str(bad[0]) == "A_3 = 5 outside {3, 4} = {A_1+A_2, A_1+A_2+1}"

    def test_validate_lists_mixed_violations_in_order(self):
        # axiom (i) fails at t = 1 and 4, axiom (ii) at four pairs; every
        # axiom (i) violation comes first, each axiom by t, then u
        raw = ArmSequence(3, (3, 2, 5, 9, 6))
        assert [(v.t, v.u) for v in validate_arm(raw, 5)] == [
            (1, None), (4, None), (1, 1), (1, 4), (2, 2), (2, 3),
        ]

    def test_validate_horizon_one_only_checks_condition_one(self):
        # no decompositions exist at horizon 1
        raw = ArmSequence(3, (2,))
        assert list(validate_arm(raw, 1)) == []
        raw = ArmSequence(3, (3,))
        assert [(v.t, v.u) for v in validate_arm(raw, 1)] == [(1, None)]

    @pytest.mark.parametrize("horizon", [0, 2.5, 3.0, "3", None])
    def test_validate_horizon_out_of_range(self, horizon):
        with pytest.raises(BoundOutOfRange):
            validate_arm(horizontal_arm(3), horizon)

    def test_validate_beyond_table(self):
        raw = ArmSequence(3, (1, 2))
        with pytest.raises(HorizonExceedsTable):
            validate_arm(raw, 3)

    @pytest.mark.parametrize("make", [arm_from_values, ArmSequence])
    @pytest.mark.parametrize("bad", ["1", None, 1.0, 1.5, True])
    def test_values_must_be_ints(self, make, bad):
        # the bad value sits at t = 2, after a valid A_1
        with pytest.raises(ParseError, match=r"A_2 = "):
            make(3, [1, bad, 4])


class TestEveryValidTable:
    """The paper's "any arm sequence works", on every valid table up to
    horizon 4 rather than on random draws."""

    def test_counts(self):
        assert [len(oracle_valid_tables(3, h)) for h in range(1, 5)] == [3, 4, 6, 8]
        assert [len(oracle_valid_tables(6, h)) for h in range(1, 5)] == [6, 10, 18, 26]

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_validate_arm_accepts_exactly_these(self, n):
        horizon = 4
        box = list(itertools.product(*(range(t - 1, (n - 1) * t + 1)
                                       for t in range(1, horizon + 1))))
        if n == 3:
            assert len(box) == 360
        accepted = [table for table in box
                    if list(validate_arm(ArmSequence(n, table), horizon)) == []]
        assert accepted == oracle_valid_tables(n, horizon)
        for seed in range(5):
            assert random_arm(n, horizon, seed).values in accepted

    def test_every_table_gives_the_crystal(self):
        # the walk against the horizontal arm reaches every hook up to 12,
        # and the count every hook up to 24, so each A_t with t <= 4 is
        # read at every rank
        for n in range(3, 7):
            for horizon in range(1, 5):
                top = n * (horizon + 1) - 1  # the largest hook the table covers
                depth, size = min(top, 12), min(top, 24)
                for table in oracle_valid_tables(n, horizon):
                    a = ArmSequence(n, table)
                    vertices, mismatch = compare_models(
                        n, depth, "partition", "partition", a, horizontal_arm(n))
                    assert mismatch is None, (table, str(mismatch))
                    assert vertices == sum(oracle_regular_counts(n, depth))
                    assert count_regular(n, a, size) == oracle_regular_counts(n, size)

    def test_every_table_inverts_f_and_e(self):
        # past depth n H - 2 a step can need A_t beyond the horizon
        checks = 0
        for n in range(3, 7):
            for horizon in range(1, 5):
                depth = min(n * horizon - 2, 8)
                for table in oracle_valid_tables(n, horizon):
                    a = ArmSequence(n, table)
                    for text in generate_graph("partition", n, depth, a).vertices:
                        lam = parse_partition(text)
                        for i in range(n):
                            down, up = f_down(lam, i, a), e_up(lam, i, a)
                            if down is not None:
                                assert e_up(down, i, a) == lam, (table, text, i)
                                checks += 1
                            if up is not None:
                                assert f_down(up, i, a) == lam, (table, text, i)
                                checks += 1
        assert checks == 29179  # over 162 tables; the sweep did not shrink


class TestRandomArm:
    def test_deterministic(self):
        a = random_arm(4, 30, 99)
        b = random_arm(4, 30, 99)
        assert a.values == b.values
        assert a.descriptor == "random:99:30"
        assert arm_from_descriptor(4, a.descriptor).values == a.values
        # a seed of None draws a fresh table, and no other seed gives a
        # descriptor that rebuilds its table
        for n, seed in ((6, None), (3, True), (3, 1.0), (3, "1")):
            with pytest.raises(ParseError):
                random_arm(n, 40, seed)

    @pytest.mark.parametrize("horizon", [0, 2.5, 3.0, "3", None])
    def test_horizon_out_of_range(self, horizon):
        with pytest.raises(BoundOutOfRange):
            random_arm(3, horizon, 1)

    def test_horizon_one(self):
        for seed in range(40):
            a = random_arm(4, 1, seed)
            assert 0 <= a.value(1) <= 3

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 100])
    def test_matches_full_window_oracle(self, n):
        # random_arm draws from the range the slope rule admits; the oracle
        # cuts axiom (i)'s range by every window A_s + A_(t-s), s < t
        horizons = (1, 2, 3, 7, 40, 64, 200)
        for horizon in horizons + ((1000,) if n in (3, 100) else ()):
            for seed in range(6):
                assert random_arm(n, horizon, seed).values == \
                    oracle_random_arm(n, horizon, seed), (horizon, seed)

    def test_validates(self):
        # the validator is the oracle
        assert list(validate_arm(random_arm(3, 50, 7), 50)) == []
        for n in (3, 4, 5):
            for seed in range(10):
                assert list(validate_arm(random_arm(n, 40, seed), 40)) == []


def slope_rule_accepts(n, table):
    return len(_valid_prefix(n, len(table), lambda t, lo, hi: table[t - 1])) == len(table)


def sweep_accepts(n, table):
    return next(_violations(ArmSequence(n, table), len(table)), None) is None


class TestSlopeRule:
    """The linear rule that loads and draws tables, against the pair sweep
    that validate_arm lists."""

    @pytest.mark.parametrize("n, top", [(3, 5), (4, 4)])
    def test_agrees_with_sweep_exhaustively(self, n, top):
        # every table in a box one wider than axiom (i) on each side
        tables = 0
        for horizon in range(1, top + 1):
            accepted = []
            for table in itertools.product(*(range(t - 2, (n - 1) * t + 2)
                                             for t in range(1, horizon + 1))):
                assert slope_rule_accepts(n, table) == sweep_accepts(n, table), table
                if slope_rule_accepts(n, table):
                    accepted.append(table)
                tables += 1
            assert accepted == oracle_valid_tables(n, horizon)
        assert tables == {3: 17045, 4: 6294}[n]

    @pytest.mark.parametrize("horizon, cases", [(40, 200), (200, 60), (1000, 12)])
    def test_agrees_with_sweep_on_perturbed_tables(self, horizon, cases):
        # one value of a valid table moved by one, every other case the
        # last one, where a move most often stays valid
        rng = random.Random(horizon)
        kept = 0
        for case in range(cases):
            n = rng.choice((3, 4, 7))
            table = list(random_arm(n, horizon, case).values)
            at = horizon - 1 if case % 2 else rng.randrange(horizon)
            table[at] += rng.choice((-1, 1))
            accepted = slope_rule_accepts(n, table)
            assert accepted == sweep_accepts(n, table), (n, case)
            kept += accepted
        # past H = 40 the slope interval is too narrow for any move to stay
        assert kept < cases and (kept > 0) == (horizon == 40)

    def test_valid_tables_skip_the_sweep(self, monkeypatch, tmp_path):
        # loading a valid table never enters the quadratic sweep; an invalid
        # one raises the first record the sweep yields
        tables = [random_arm(n, 1000, seed).values for n, seed in ((3, 1), (4, 2), (100, 3))]
        sweep = _violations

        def refuse(a, horizon):
            raise AssertionError("the pair sweep ran on a valid table")

        monkeypatch.setattr(arms, "_violations", refuse)
        path = tmp_path / "table.txt"
        for n, table in zip((3, 4, 100), tables):
            assert arm_from_values(n, table).values == table
            path.write_text(" ".join(map(str, table)))
            assert arm_from_file(n, str(path)).values == table
            assert arm_from_descriptor(n, f"file:{path}").values == table
        assert arm_from_descriptor(3, "random:1:1000").values == tables[0]

        monkeypatch.setattr(arms, "_violations", sweep)
        rng = random.Random(4)
        refused = 0
        for n, table in zip((3, 4, 100), tables):
            for _ in range(3):
                bad = list(table)
                bad[rng.randrange(len(bad))] += rng.choice((-1, 1))
                first = next(sweep(ArmSequence(n, bad), len(bad)), None)
                if first is None:
                    continue
                refused += 1
                with pytest.raises(ArmAxiomViolation) as err:
                    arm_from_values(n, bad)
                assert (err.value.t, err.value.u, str(err.value)) == \
                    (first.t, first.u, str(first))
        assert refused >= 6


class TestIllegal:
    # fixed cases: the brute force and the kernel's scan agree, and the
    # box is or is not among the illegal ones
    @staticmethod
    def illegal(lam, b, a):
        want = TestIllegalBoxes.brute_force(lam.parts, a)
        assert illegal_boxes(lam, a) == want
        return b in [box for box, _, _ in want]

    def test_wide_box(self):
        assert self.illegal(WIDE, Box(3, 2), horizontal_arm(4)) is True

    def test_small_hook(self):
        assert self.illegal(Partition([1]), Box(1, 1), horizontal_arm(5)) is False

    def test_staircase_corner(self):
        assert self.illegal(Partition([2, 1]), Box(1, 1), horizontal_arm(3)) is True


class TestIllegalBoxes:
    @staticmethod
    def brute_force(parts, a):
        out = []
        for r, c in oracle_cells(parts):
            h, arm_len = oracle_hook(parts, r, c), oracle_arm(parts, r, c)
            if h % a.n == 0 and arm_len == a.value(h // a.n):
                out.append((Box(r, c), h, arm_len))
        return out

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_against_brute_force(self, n):
        # the unchecked table holds A_2 < 0 and A_3 >= 3 n, which no arm of
        # hook n t equals; the short one lacks the A_2 that a hook 2 n
        # needs, and both scans raise at the first box in reading order
        def outcome(fn):
            try:
                return fn()
            except HorizonExceedsTable as exc:
                return (exc.t, exc.horizon)

        arms_ = [horizontal_arm(n), random_arm(n, 12, n),
                 ArmSequence(n, [0, -1, 3 * n + 1, 2]), random_arm(n, 1, n)]
        seen = set()
        for m in range(11):
            for parts in oracle_partitions(m):
                for k, a in enumerate(arms_):
                    want = outcome(lambda: self.brute_force(parts, a))
                    assert outcome(lambda: illegal_boxes(Partition(parts), a)) == want
                    if want:
                        seen.add((k, type(want)))
        # boxes under the unchecked table, A_2 requested of the short one
        assert {(2, list), (3, tuple)} <= seen

    def test_reads_columns_once(self, monkeypatch):
        # one conjugate per partition, not one per box
        calls = []
        original = _kernel_py.columns

        def columns(parts):
            calls.append(parts)
            return original(parts)

        monkeypatch.setattr(_kernel_py, "columns", columns)
        lam = Partition([2] * 150)
        assert illegal_boxes(lam, horizontal_arm(3)) != []
        assert len(calls) == 1

    def test_table_too_short(self):
        # raises at the first box in reading order whose hook needs A_2
        a = arm_from_values(3, (1,))
        with pytest.raises(HorizonExceedsTable) as exc:
            illegal_boxes(Partition([5, 2]), a)
        assert str(exc.value) == "A_2 requested but table only covers t <= 1"


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

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_oracle_matches_cell_scan(self, n):
        # helpers.oracle_is_regular counts column lengths once; the cell
        # scan recomputes each cell's hook and arm from the cell list.  The
        # random table of horizon 2 raises for a hook 3 n, which sizes up
        # to 12 reach at n = 3 and 4; both must raise on the same partitions
        def cell_scan(parts, arm_value):
            for (r, c) in oracle_cells(parts):
                h = oracle_hook(parts, r, c)
                if h % n == 0 and oracle_arm(parts, r, c) == arm_value(h // n):
                    return False
            return True

        def outcome(check):
            try:
                return check()
            except HorizonExceedsTable as exc:
                return ("raises", exc.t)

        arms = [horizontal_arm(n), random_arm(n, 2, seed=n),
                ArmSequence(n, [(3 * t) % (2 * n) for t in range(1, 9)])]
        seen = []
        for a in arms:
            outcomes = set()
            for m in range(13):
                for parts in oracle_partitions(m):
                    got = outcome(lambda: oracle_is_regular(parts, n, a.value))
                    assert got == outcome(lambda: cell_scan(parts, a.value)), (a, parts)
                    outcomes.add(got if type(got) is bool else "raises")
            seen.append(outcomes)
        assert seen[0] == seen[2] == {True, False}
        assert seen[1] == ({True, False, "raises"} if n < 5 else {True, False})


class TestDescriptors:
    def test_horizontal(self):
        a = arm_from_descriptor(4, "horizontal")
        assert a.values is None and a.descriptor == "horizontal"

    def test_random(self):
        a = arm_from_descriptor(4, "random:7:20")
        assert a.values == random_arm(4, 20, 7).values

    def test_repr(self):
        assert repr(arm_from_descriptor(4, "random:7:20")) == "ArmSequence(n=4, 'random:7:20')"
        assert repr(arm_from_values(4, [1, 3, 5])) == "ArmSequence(n=4, table of length 3)"

    def test_file(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("1 3 5\n7\n")
        a = arm_from_file(4, str(path))
        assert a.values == (1, 3, 5, 7)
        assert a.descriptor == f"file:{path}"
        assert arm_from_descriptor(4, f"file:{path}").values == (1, 3, 5, 7)

    def test_file_length_bound(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("1 3 5 7".ljust(_ARM_FILE_BYTES))
        assert arm_from_file(4, str(path)).values == (1, 3, 5, 7)
        # the tail past the bound is never parsed, so its bad token goes unread
        path.write_text("1 " * (_ARM_FILE_BYTES // 2) + "x")
        with pytest.raises(BoundOutOfRange):
            arm_from_file(4, str(path))

    def test_bad_file(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("1 x 3")
        with pytest.raises(ParseError):
            arm_from_file(4, str(path))

    @pytest.mark.parametrize("text", ["", "random:1", "random:a:b", "diagonal"])
    def test_bad_descriptor(self, text):
        with pytest.raises(ParseError):
            arm_from_descriptor(4, text)
