"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value here was computed independently beforehand (by hand,
by the brute-force oracles in helpers.py, or by definition-literal scans)
and frozen; runtime budgets are asserted where stated.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import json
import random
import time

from affinecrystal import (
    Box,
    Partition,
    bracket_string,
    check_intertwining,
    compare_graphs,
    content,
    count_regular,
    e_m,
    e_up,
    eps_phi,
    export_json,
    f_box,
    f_down,
    f_m,
    format_monomial,
    format_partition,
    generate_graph,
    graph_from_json,
    height,
    horizontal_arm,
    is_regular,
    monomial_bracket_string,
    mult_a,
    parse_monomial,
    parse_partition,
    partition_to_monomial,
    partitions_of_size,
    random_arm,
    residue,
    stats,
    weight,
    y,
)
from affinecrystal.arms import illegal_boxes
from affinecrystal.graphs import CrystalGraph
from helpers import (
    box_tokens_as_slots,
    cancel_matching_slot_pairs,
    check_corner_order_rules,
    max_multiplicity,
    monomial_tokens_as_slots,
    oracle_partitions,
    oracle_precedes,
    random_monomial,
    random_partition,
    random_reachable_monomial,
    regular_partitions,
)

BIG = parse_partition("[11,7,4,2,1,1,1,1,1,1]")
BIG_IMAGE = "Y(2,12)^-1*Y(2,10)*Y(1,9)^-1*Y(2,8)*Y(1,7)^-1*Y(1,5)*Y(3,5)"
WIDE = parse_partition("[7,6,5,5,5,3,3,1]")


def announce(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_lowering_figure():
    a = horizontal_arm(4)

    def body():
        assert is_regular(BIG, a)
        assert f_box(BIG, 2, a) == Box(11, 1)
        assert f_down(BIG, 2, a) == parse_partition("[11,7,4,2,1,1,1,1,1,1,1]")
        assert format_monomial(partition_to_monomial(BIG, 4)) == BIG_IMAGE
        box_side = box_tokens_as_slots(bracket_string(BIG, 2, a))
        mono_side = monomial_tokens_as_slots(
            monomial_bracket_string(partition_to_monomial(BIG, 4), 2)
        )
        reduced, removed = cancel_matching_slot_pairs(box_side)
        assert reduced == mono_side
        assert removed == 1

    body()
    assert best_of(5, body) < 1e-3, "budget is 1 ms"
    announce(1, "lowering step and corner image on the size-30 example")


def test_criterion_2_illegal_box_figure():
    a = horizontal_arm(4)
    b = Box(3, 2)

    def body():
        from affinecrystal import arm as arm_stat, hook

        assert hook(WIDE, b) == 8
        assert arm_stat(WIDE, b) == 3
        assert content(b) == -1
        assert height(b) == 4
        assert (b, 8, 3) in illegal_boxes(WIDE, a)
        assert not is_regular(WIDE, a)

    body()
    assert best_of(5, body) < 1e-3, "budget is 1 ms"
    announce(2, "illegal box statistics on the size-35 example")


def test_criterion_3_monomial_acting_positions():
    n = 4
    base = y(n, 1, 13, -1) * y(n, 1, 9)
    padded = base * y(n, 1, 12) * y(n, 1, 11, -1) * y(n, 0, 12)
    flanked = (
        base
        * y(n, 1, 15) * y(n, 1, 14, -1)
        * y(n, 1, 8) * y(n, 1, 6, -1)
        * y(n, 2, 5, -2)
    )
    for m in (base, padded, flanked):
        s = monomial_bracket_string(m, 1)
        assert s.payloads[s.last_close] == (1, 13)
        assert s.payloads[s.first_open] == (1, 9)
        for mode in ("analytic", "bracket"):
            assert e_m(m, 1, mode) == mult_a(m, 1, 12, +1)
            assert f_m(m, 1, mode) == mult_a(m, 1, 10, -1)
    announce(3, "raising through A(1,12), lowering through A(1,10)^-1")


def test_criterion_4_intertwining_exhaustive():
    t0 = time.perf_counter()
    checked = 0
    for n in (3, 4, 5):
        for lam in regular_partitions(n, 12):
            for i in range(n):
                report = check_intertwining(lam, i, n)
                assert report.ok, (lam, i, n)
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"budget is 30 s, took {elapsed:.1f}"
    # 145, 193, and 223 regular partitions at ranks 3, 4, 5, times the rank
    assert checked == 435 + 772 + 1115
    announce(4, f"intertwining on every regular partition of size <= 12 ({checked} checks)")


def test_criterion_5_odd_rank_bijection():
    t0 = time.perf_counter()
    for n in (3, 5):
        g1 = generate_graph("partition", n, 12)
        g2 = generate_graph("monomial", n, 12)
        result = compare_graphs(g1, g2)
        assert result.isomorphic, result.mismatch
        assert len(result.bijection) == len(g1.vertices)
        # the colored bijection is the corner map, read off the labels
        for v1, v2 in result.bijection.items():
            lam = parse_partition(g1.vertices[v1])
            assert partition_to_monomial(lam, n) == parse_monomial(g2.vertices[v2], n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"budget is 30 s, took {elapsed:.1f}"
    announce(5, "depth-12 colored bijection through the corner map, n = 3 and 5")


def test_criterion_6_definition_equivalence():
    cases = 10_000
    for n in (3, 4, 5):
        rng = random.Random(600 + n)
        for _ in range(cases):
            m = random_monomial(rng, n)
            i = rng.randrange(n)
            assert e_m(m, i, "analytic") == e_m(m, i, "bracket")
            assert f_m(m, i, "analytic") == f_m(m, i, "bracket")
    announce(6, f"analytic and bracket operators agree on {cases} monomials per rank")


def test_criterion_7_lemma_suite():
    # adding box b multiplies the corner-map image by A(residue, height)^-1
    for n in (3, 4, 5):
        for m in range(11):
            for lam in partitions_of_size(m):
                image = partition_to_monomial(lam, n)
                for b in lam.addable_boxes():
                    grown = partition_to_monomial(lam.add_box(b), n)
                    assert grown == mult_a(image, residue(b, n), height(b), -1), (lam, b, n)

    # the bracket string reads corners by height, then content, which is
    # the arm order by definition; then the five corner-separation rules
    for n in (3, 4, 5):
        a = horizontal_arm(n)
        for lam in regular_partitions(n, 12):
            for i in range(n):
                corners = [
                    b
                    for b in lam.addable_boxes() + lam.removable_boxes()
                    if residue(b, n) == i
                ]
                by_key = sorted(corners, key=lambda b: (height(b), content(b)), reverse=True)
                assert list(bracket_string(lam, i, a).payloads) == by_key, (lam, i, n)
                for x in range(len(by_key)):
                    for z in range(x + 1, len(by_key)):
                        assert oracle_precedes(by_key[z], by_key[x], a)
                        assert not oracle_precedes(by_key[x], by_key[z], a)
                assert check_corner_order_rules(lam, i, n).ok, (lam, i, n)
    announce(7, "single-box factor, height order, and corner separation rules")


def test_criterion_8_arm_family():
    t0 = time.perf_counter()
    depth_closure, depth_compare = 10, 8
    for n in (3, 4):
        reference = generate_graph("partition", n, depth_compare)
        for seed in range(10):
            a = random_arm(n, 48, seed)
            frontier = [Partition()]
            seen = {Partition()}
            for _ in range(depth_closure):
                nxt = []
                for lam in frontier:
                    for i in range(n):
                        down = f_down(lam, i, a)
                        if down is not None:
                            assert is_regular(down, a), (a.descriptor, lam, i)
                            if down not in seen:
                                seen.add(down)
                                nxt.append(down)
                        up = e_up(lam, i, a)
                        if up is not None:
                            assert is_regular(up, a), (a.descriptor, lam, i)
                frontier = nxt
            g = generate_graph("partition", n, depth_compare, a)
            result = compare_graphs(g, reference)
            assert result.isomorphic, (a.descriptor, result.mismatch)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"budget is 60 s, took {elapsed:.1f}"
    announce(8, "closure and structural bijection for 10 random arm sequences per rank")


def test_criterion_9_counting_cross_oracle():
    got = count_regular(3, horizontal_arm(3), 10)
    expected = [
        sum(1 for parts in oracle_partitions(m) if max_multiplicity(parts) < 3)
        for m in range(11)
    ]
    assert got == expected
    assert got[:6] == [1, 1, 2, 2, 4, 5]
    announce(9, "regular counts equal no-triple-repeat counts, sizes 0..10")


def test_criterion_10_property_laws():
    cases = 10_000

    rng = random.Random(101)
    for _ in range(cases):
        n = rng.choice([3, 4, 5])
        a = horizontal_arm(n) if rng.random() < 0.7 else random_arm(n, 48, rng.randrange(20))
        lam = random_partition(rng, 14)
        i = rng.randrange(n)
        down = f_down(lam, i, a)
        if down is not None:
            assert e_up(down, i, a) == lam
        up = e_up(lam, i, a)
        if up is not None:
            assert f_down(up, i, a) == lam

    rng = random.Random(102)
    for _ in range(cases):
        n = rng.choice([3, 4, 5])
        m = random_reachable_monomial(rng, n, 12)
        i = rng.randrange(n)
        down = f_m(m, i)
        if down is not None:
            assert e_m(down, i) == m
        up = e_m(m, i)
        if up is not None:
            assert f_m(up, i) == m

    rng = random.Random(103)
    for _ in range(cases):
        n = rng.choice([3, 4, 5])
        lam = random_partition(rng, 14)
        i = rng.randrange(n)
        eps, phi = eps_phi(lam, i, horizontal_arm(n))
        adds = sum(1 for b in lam.addable_boxes() if residue(b, n) == i)
        rems = sum(1 for b in lam.removable_boxes() if residue(b, n) == i)
        assert phi - eps == adds - rems

    rng = random.Random(104)
    for _ in range(cases):
        n = rng.choice([3, 4, 5])
        m = random_monomial(rng, n)
        i = rng.randrange(n)
        st = stats(m, i)
        assert st.phi - st.eps == sum(m.exponent(i, k) for k in m.support(i))

    rng = random.Random(105)
    for _ in range(cases):
        n = rng.choice([3, 4, 5])
        m = random_monomial(rng, n)
        i, k = rng.randrange(n), rng.randint(-6, 12)
        before, after = weight(m), weight(mult_a(m, i, k, -1))
        delta = {
            j: after.get(j, 0) - before.get(j, 0)
            for j in range(n)
            if after.get(j, 0) != before.get(j, 0)
        }
        assert delta == {i: -2, (i + 1) % n: 1, (i - 1) % n: 1}

    rng = random.Random(106)
    for _ in range(cases):
        n = rng.choice([3, 4, 5])
        m = partition_to_monomial(random_partition(rng, 20), n)
        assert sum(u for _, u in m.factors()) == 1

    rng = random.Random(107)
    for _ in range(cases):
        lam = random_partition(rng, 20)
        assert parse_partition(format_partition(lam)) == lam
        n = rng.choice([3, 4, 5])
        m = random_monomial(rng, n)
        assert parse_monomial(format_monomial(m), n) == m

    rng = random.Random(108)
    for _ in range(cases):
        n = rng.choice([3, 4, 5])
        size = rng.randint(1, 5)
        labels = [format_partition(random_partition(rng, 6)) for _ in range(size)]
        # a crystal graph has at most one out-edge of each color per vertex
        edges, out_colors = [], set()
        for _ in range(rng.randint(0, 4)):
            src, dst, color = rng.randrange(size), rng.randrange(size), rng.randrange(n)
            if (src, color) not in out_colors:
                out_colors.add((src, color))
                edges.append((src, dst, color))
        g = CrystalGraph(
            model=rng.choice(["partition", "monomial"]),
            n=n,
            depth=rng.randint(0, 9),
            arm=rng.choice([None, "horizontal", "random:3:20"]),
            vertices=labels,
            edges=edges,
        )
        doc = export_json(g)
        assert graph_from_json(doc) == g
        json.loads(doc)

    announce(10, f"inverse, counting, weight, and round-trip laws at {cases} cases each")
