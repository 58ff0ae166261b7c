import random

import pytest

from affinecrystal import (
    Monomial,
    Partition,
    e_m,
    f_m,
    format_monomial,
    monomial_bracket_string,
    mult_a,
    parse_monomial,
    partition_to_monomial,
    stats,
    weight,
)
from affinecrystal.errors import (
    BoundOutOfRange,
    ParseError,
    RankMismatch,
    UnknownChoice,
)
from affinecrystal.monomial_crystal import MAX_MONOMIAL_NUMBER, _built, _bump, _canonical
from helpers import (
    oracle_monomial_stats,
    oracle_mult_a,
    random_monomial,
    random_partition,
    random_reachable_monomial,
    y,
)

BIG_IMAGE = "Y(2,12)^-1*Y(2,10)*Y(1,9)^-1*Y(2,8)*Y(1,7)^-1*Y(1,5)*Y(3,5)"


class TestParseFormat:
    def test_single_variable(self):
        assert parse_monomial("Y(0,0)", 4) == y(4, 0, 0)

    def test_cancellation(self):
        assert parse_monomial("Y(1,2)*Y(1,2)^-1", 4) == Monomial(4)
        assert format_monomial(Monomial(4)) == "1"
        assert parse_monomial("1", 4) == Monomial(4)

    def test_big_image(self):
        m = parse_monomial(BIG_IMAGE, 4)
        assert dict(m.factors()) == {(2, 12): -1, (2, 10): 1, (1, 9): -1, (2, 8): 1,
                                     (1, 7): -1, (1, 5): 1, (3, 5): 1}
        assert format_monomial(m) == BIG_IMAGE

    def test_order_decreasing_k_then_residue(self):
        m = y(4, 3, 5) * y(4, 1, 5) * y(4, 0, 7, -2)
        assert format_monomial(m) == "Y(0,7)^-2*Y(1,5)*Y(3,5)"

    @pytest.mark.parametrize("text", ["", "Y(1)", "Y(1,2)^", "Y(1,2)*", "X(1,2)", "Y(1,2)^+1"])
    def test_syntax_errors(self, text):
        with pytest.raises(ParseError):
            parse_monomial(text, 4)

    def test_residue_out_of_range(self):
        with pytest.raises(BoundOutOfRange, match=r"^residue 4 outside \[0, 4\)$"):
            parse_monomial("Y(4,0)", 4)

    def test_number_ceiling(self):
        top = MAX_MONOMIAL_NUMBER
        m = parse_monomial(f"Y(1,{top})^-{top}*Y(2,-{top})^{top}", 4)
        assert m.factors() == (((1, top), -top), ((2, -top), top))
        assert parse_monomial(f"Y(1,000{top})", 4) == y(4, 1, top)
        for text in (f"Y(1,{top + 1})", f"Y(1,-{top + 1})", f"Y(1,0)^{top + 1}",
                     f"Y(1,0)^-{top + 1}", "Y(1," + "9" * 5000 + ")",
                     "Y(1,0)^" + "9" * 5000):
            with pytest.raises(BoundOutOfRange):
                parse_monomial(text, 4)

    def test_zero_exponent(self):
        with pytest.raises(ParseError, match=r"^factor 'Y\(1,2\)\^0' has exponent 0$"):
            parse_monomial("Y(1,2)^0", 4)

    def test_round_trip_random(self):
        rng = random.Random(8)
        for n in (3, 4, 5):
            for _ in range(300):
                m = random_monomial(rng, n)
                assert parse_monomial(format_monomial(m), n) == m


class TestMultA:
    def test_inverse_of_lattice_factor_at_origin(self):
        got = mult_a(y(3, 0, 0), 0, 1, -1)
        assert got == parse_monomial("Y(1,1)*Y(2,1)*Y(0,2)^-1", 3)

    def test_inverse_pair(self):
        rng = random.Random(3)
        for _ in range(200):
            m = random_monomial(rng, 4)
            i, k = rng.randrange(4), rng.randint(-6, 12)
            assert mult_a(mult_a(m, i, k, +1), i, k, -1) == m

    def test_weight_delta(self):
        rng = random.Random(4)
        for n in (3, 4, 5):
            for _ in range(200):
                m = random_monomial(rng, n)
                i, k = rng.randrange(n), rng.randint(-6, 12)
                before = weight(m)
                after = weight(mult_a(m, i, k, -1))
                delta = {
                    j: after.get(j, 0) - before.get(j, 0)
                    for j in range(n)
                    if after.get(j, 0) != before.get(j, 0)
                }
                assert delta == {i: -2, (i + 1) % n: 1, (i - 1) % n: 1}

    def test_bad_sign(self):
        # a float or bool sign would be stored as an exponent
        for sign in (2, 1.0, True):
            with pytest.raises(UnknownChoice):
                mult_a(Monomial(3), 0, 0, sign)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_against_definition(self, n):
        rng = random.Random(40 + n)
        for trial in range(300):
            m = random_monomial(rng, n)
            i, k, sign = rng.randrange(n), rng.randint(-6, 12), rng.choice([1, -1])
            if trial % 2:
                # plant the inverse of some lattice-factor terms so they cancel
                planted = oracle_mult_a(Monomial(n), i, k, -sign).factors()
                m = m * Monomial(n, dict(rng.sample(planted, rng.randint(1, 4))))
            got = mult_a(m, i, k, sign)
            assert got == oracle_mult_a(m, i, k, sign)
            assert hash(got) == hash(oracle_mult_a(m, i, k, sign))
            assert all(u != 0 for _, u in got.factors())
            assert got == Monomial(n, dict(got.factors()))


class TestWeight:
    def test_highest(self):
        assert weight(y(3, 0, 0)) == {0: 1}

    def test_big_image(self):
        assert weight(parse_monomial(BIG_IMAGE, 4)) == {1: -1, 2: 1, 3: 1}

    def test_one(self):
        assert weight(Monomial(4)) == {}


class TestStats:
    def test_highest(self):
        st = stats(y(3, 0, 0), 0)
        assert (st.eps, st.phi, st.p, st.q) == (0, 1, None, 0)

    def test_big_image(self):
        st = stats(parse_monomial(BIG_IMAGE, 4), 2)
        assert (st.eps, st.phi) == (1, 2)

    def test_one(self):
        st = stats(Monomial(5), 3)
        assert st == (0, 0, None, None)

    def test_against_definition_scan(self):
        rng = random.Random(21)
        for n in (3, 4, 5):
            for _ in range(400):
                m = random_monomial(rng, n)
                for i in range(n):
                    assert tuple(stats(m, i)) == oracle_monomial_stats(m, i)

    def test_phi_minus_eps_is_exponent_sum(self):
        rng = random.Random(22)
        for _ in range(400):
            m = random_monomial(rng, 4)
            for i in range(4):
                st = stats(m, i)
                total = sum(u for (j, _), u in m.factors() if j == i)
                assert st.phi - st.eps == total


def monomial_with_gap(n=4):
    """Rightmost unmatched ')' at Y(1,13)^-1, leftmost unmatched '(' at Y(1,9)."""
    return y(n, 1, 13, -1) * y(n, 1, 9)


def monomial_with_gap_padded(n=4):
    """Same acting brackets, plus a matched '(' ')' pair in between."""
    return monomial_with_gap(n) * y(n, 1, 12) * y(n, 1, 11, -1) * y(n, 0, 12)


class TestOperators:
    @pytest.mark.parametrize("build", [monomial_with_gap, monomial_with_gap_padded])
    @pytest.mark.parametrize("mode", ["analytic", "bracket"])
    def test_acting_position(self, build, mode):
        m = build()
        assert e_m(m, 1, mode) == mult_a(m, 1, 12, +1)
        assert f_m(m, 1, mode) == mult_a(m, 1, 10, -1)

    def test_highest_weight_annihilated(self):
        for i in range(4):
            assert e_m(y(4, 0, 0), i) is None

    def test_lowering_highest(self):
        got = f_m(y(3, 0, 0), 0)
        assert got == parse_monomial("Y(1,1)*Y(2,1)*Y(0,2)^-1", 3)
        assert got == partition_to_monomial(Partition([1]), 3)
        assert f_m(y(3, 0, 0), 1) is None

    def test_modes_agree(self):
        rng = random.Random(30)
        for n in (3, 4, 5):
            for _ in range(600):
                m = random_monomial(rng, n)
                i = rng.randrange(n)
                assert e_m(m, i, "analytic") == e_m(m, i, "bracket")
                assert f_m(m, i, "analytic") == f_m(m, i, "bracket")

    def test_partial_inverse_laws_on_component(self):
        rng = random.Random(31)
        for n in (3, 4, 5):
            for _ in range(300):
                m = random_reachable_monomial(rng, n, 14)
                i = rng.randrange(n)
                down = f_m(m, i)
                if down is not None:
                    assert e_m(down, i) == m
                up = e_m(m, i)
                if up is not None:
                    assert f_m(up, i) == m

    def test_inverse_law_needs_the_component(self):
        # the operators are defined on every monomial, but outside the
        # component of Y(0,0) the inverse law can fail: here f acts through
        # A(2,11)^-1 while the ')' it creates at k=12 sits behind the
        # unmatched ')' at k=11, so e acts through A(2,10) instead
        m = y(4, 2, -2) * y(4, 2, 10, 3) * y(4, 2, 11, -2) * y(4, 2, 12, -3)
        down = f_m(m, 2)
        assert down == mult_a(m, 2, 11, -1)
        assert e_m(down, 2) == mult_a(down, 2, 10, +1) != m

    def test_bad_mode(self):
        with pytest.raises(UnknownChoice):
            e_m(Monomial(3), 0, "fast")
        with pytest.raises(UnknownChoice):
            f_m(Monomial(3), 0, "x")

    @pytest.mark.parametrize("bad", [0.0, 1.5, "0", None, True])
    def test_color_and_k_not_int(self, bad):
        # a float color or k would give a non-canonical monomial such as
        # Y(0.0,2)^-1*Y(1.0,1)*Y(2.0,1), or k = 2.5
        m = y(3, 0, 0) * y(3, 1, 2, -1)
        calls = [
            lambda: f_m(m, bad), lambda: f_m(m, bad, "bracket"),
            lambda: e_m(m, bad), lambda: e_m(m, bad, "bracket"),
            lambda: stats(m, bad), lambda: monomial_bracket_string(m, bad),
            lambda: mult_a(m, bad, 1),
            lambda: mult_a(m, 0, bad), lambda: mult_a(m, 0, bad, -1),
        ]
        for call in calls:
            with pytest.raises(ParseError):
                call()

    def test_refusal_order(self):
        # e_m and f_m check the mode before the color; mult_a checks the
        # sign before the color and k
        m = y(3, 0, 0) * y(3, 1, 2, -1)
        for call in (lambda: e_m(m, 1.5, "fast"), lambda: f_m(m, 1.5, "fast"),
                     lambda: mult_a(m, 1.5, 0, 2), lambda: mult_a(m, 0, 1.5, 2)):
            with pytest.raises(UnknownChoice):
                call()

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_operators_match_stats_and_mult_a(self, n):
        # e_m and f_m read the statistics and multiply by A(i,k) without
        # calling stats or mult_a, so tie them back to both
        rng = random.Random(50 + n)
        monomials = [partition_to_monomial(random_partition(rng, 25), n)
                     for _ in range(60)]
        monomials += [random_reachable_monomial(rng, n, 20) for _ in range(60)]
        monomials += [random_monomial(rng, n) for _ in range(120)]
        for m in monomials:
            for i in range(n):
                st = stats(m, i)
                up = None if st.eps == 0 else mult_a(m, i, st.p - 1, +1)
                down = None if st.phi == 0 else mult_a(m, i, st.q + 1, -1)
                for mode in ("analytic", "bracket"):
                    assert e_m(m, i, mode) == up
                    assert f_m(m, i, mode) == down


class TestBracketString:
    def test_tokens_single_sided_per_position(self):
        rng = random.Random(40)
        for _ in range(300):
            m = random_monomial(rng, 4)
            for i in range(4):
                s = monomial_bracket_string(m, i)
                by_pos = {}
                for side, payload in zip(s.sides, s.payloads):
                    by_pos.setdefault(payload, set()).add(side)
                assert all(len(sides) == 1 for sides in by_pos.values())

    def test_token_multiplicity(self):
        m = y(4, 2, 3, 2) * y(4, 2, 5, -1)
        s = monomial_bracket_string(m, 2)
        assert str(s) == ")(("
        assert s.payloads == ((2, 5), (2, 3), (2, 3))


class TestMonomialValue:
    def test_residues_normalized(self):
        assert y(4, 5, 0) == y(4, 1, 0)

    def test_rank_guard(self):
        with pytest.raises(RankMismatch):
            y(3, 0, 0) * y(4, 0, 0)

    def test_product_with_non_monomial(self):
        with pytest.raises(TypeError):
            y(3, 0, 0) * 3

    def test_repr_and_str(self):
        m = y(4, 1, 2) * y(4, 2, 3, -2)
        assert m.n == 4
        assert repr(m) == "Monomial(n=4, 'Y(2,3)^-2*Y(1,2)')"
        assert str(m) == "Y(2,3)^-2*Y(1,2)"

    def test_hashable(self):
        assert len({y(4, 0, 0), y(4, 0, 0), Monomial(4)}) == 2

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_equal_monomials_hash_equal(self, n):
        rng = random.Random(60 + n)
        for _ in range(200):
            m = random_monomial(rng, n)
            exps = dict(m.factors())
            shifted = Monomial(n, {(i + n * rng.randint(-2, 2), k): u
                                   for (i, k), u in exps.items()})
            reordered = Monomial(n, dict(reversed(list(exps.items()))))
            i, k = rng.randrange(n), rng.randint(-6, 12)
            multiplied = m * y(n, i, k, 3) * y(n, i + n, k, -3)
            # k = 99 lies outside random_monomial's range, so these two raw
            # keys meet only in the constructor, which cancels them
            constructed = Monomial(n, {(i - n, 99): 1, (i, 99): -1, **exps})
            round_trip = mult_a(mult_a(m, i, k, 1), i, k, -1)
            for other in (shifted, reordered, multiplied, constructed, round_trip):
                assert other == m
                assert hash(other) == hash(m)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            y(4, 0, 0).n = 5

    @pytest.mark.parametrize("n", [3.0, 3.5, "3", True])
    def test_rank_not_int(self, n):
        with pytest.raises(BoundOutOfRange, match=r"^rank must be an int >= 3, got "):
            Monomial(n, {(0, 0): 1})

    @pytest.mark.parametrize("factor", [
        {(0, 0): 1.5},
        {(0, 0): 2.0},
        {(0, 0): True},
        {(0, 0.5): 1},
        {(0.0, 0): 1},
        {(0, "1"): 1},
    ])
    def test_factor_not_int(self, factor):
        # such factors would format as text parse_monomial rejects
        with pytest.raises(ParseError):
            Monomial(3, factor)


def assert_canonical(m, n):
    """The stored form: n tuples, each of (k, u) int terms by strictly
    increasing k, with no zero exponent."""
    assert m.n == n and type(m._res) is tuple and len(m._res) == n
    for terms in m._res:
        assert type(terms) is tuple
        assert all(type(k) is int and type(u) is int and u != 0 for k, u in terms)
        ks = [k for k, _ in terms]
        assert all(a < b for a, b in zip(ks, ks[1:]))


class TestCanonicalForm:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_every_result_is_canonical(self, n):
        rng = random.Random(70 + n)
        results = 0
        for _ in range(150):
            m, other = random_monomial(rng, n), random_monomial(rng, n)
            i, k = rng.randrange(n), rng.randint(-6, 12)
            factors = dict(m.factors())
            # residues beyond [0, n) and a pair that cancels in the constructor
            shifted = {(j + n * rng.randint(-2, 2), kk): u for (j, kk), u in factors.items()}
            cancelled = {(i - n, 99): 2, (i, 99): -2, **factors}
            inverse = Monomial(n, {key: -u for key, u in factors.items()})
            out = [
                m, Monomial(n, shifted), Monomial(n, cancelled), Monomial(n),
                parse_monomial(format_monomial(m), n), m * other, m * inverse,
                m * m, mult_a(m, i, k, 1), mult_a(m, i, k, -1),
                partition_to_monomial(random_partition(rng, 20), n),
            ]
            for mode in ("analytic", "bracket"):
                out += [f_m(m, i, mode), e_m(m, i, mode)]
            for x in out:
                if x is not None:
                    assert_canonical(x, n)
                    results += 1
        # eleven results per draw, plus the f_m and e_m that act
        assert results > 150 * 11

    def test_built_matches_dict_arithmetic(self):
        rng = random.Random(21)
        cases = [[], [(2, 1)], [(0, 0)], [(-1, 1), (3, -2)], [(3, -2), (-1, 1)],
                 [(1, 1), (1, 2)], [(4, -2), (1, 1), (1, -1)]]
        for _ in range(2000):
            cases.append([(rng.randrange(-4, 5), rng.choice([-2, -1, 0, 1, 2]))
                          for _ in range(rng.randrange(5))])
        kinds = set()
        for terms in cases:
            exp = {}
            for k, u in terms:
                exp[k] = exp.get(k, 0) + u
            want = tuple(sorted((k, u) for k, u in exp.items() if u))
            # the case's terms at residue 1, a shifted copy at residue 2
            res = [[], list(terms), [(k + 10, u) for k, u in terms]]
            m = _canonical(_built(res))
            assert_canonical(m, 3)
            assert m._res == ((), want, tuple((k + 10, u) for k, u in want))
            ks = [k for k, _ in terms]
            repeated = {k for k in ks if ks.count(k) > 1}
            kinds.add("empty" if not terms
                      else "cancel" if any(exp[k] == 0 for k in repeated)
                      else "sum" if repeated
                      else "zero" if any(u == 0 for _, u in terms)
                      else "one" if len(terms) == 1
                      else "sorted" if ks == sorted(ks) else "unsorted")
        assert kinds == {"empty", "one", "sorted", "unsorted", "sum", "cancel", "zero"}

    def test_bump_matches_dict_arithmetic(self):
        rng = random.Random(12)
        cases = [((), 3, 1), ((), -2, -1), (((0, 1),), 0, -1), (((0, 1),), 0, 2),
                 (((1, 1), (4, -2)), 0, 1), (((1, 1), (4, -2)), 2, -1),
                 (((1, 1), (4, -2)), 5, 1), (((1, 1), (4, -2)), 4, 2),
                 (((1, 1), (4, -2)), 1, -1)]
        for _ in range(2000):
            ks = sorted(rng.sample(range(-6, 7), rng.randrange(5)))
            terms = tuple((k, rng.choice([-2, -1, 1, 2])) for k in ks)
            cases.append((terms, rng.randrange(-7, 8), rng.choice([-2, -1, 1, 2])))
        places = set()
        for terms, k, u in cases:
            exp = dict(terms)
            exp[k] = exp.get(k, 0) + u
            want = tuple(sorted((kk, uu) for kk, uu in exp.items() if uu))
            assert _bump(terms, k, u) == want
            ks = [kk for kk, _ in terms]
            places.add("empty" if not terms else "cancel" if exp[k] == 0
                       else "front" if k < ks[0] else "end" if k > ks[-1]
                       else "existing" if k in ks else "middle")
        assert places == {"empty", "cancel", "front", "end", "existing", "middle"}
