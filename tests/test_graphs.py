import copy
import functools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import affinecrystal.graphs as graphs
import affinecrystal.isomorphism as isomorphism
import affinecrystal.monomial_crystal as monomial_crystal
from affinecrystal import (
    ArmSequence,
    CrystalError,
    CrystalGraph,
    GraphComparison,
    Partition,
    compare_graphs,
    compare_models,
    count_regular,
    e_m,
    e_up,
    export_dot,
    export_json,
    f_down,
    f_m,
    format_monomial,
    format_partition,
    generate_graph,
    graph_from_json,
    horizontal_arm,
    parse_monomial,
    parse_partition,
    partition_to_monomial,
    partitions_of_size,
    random_arm,
    validate_arm,
    weight,
)
from affinecrystal._kernel_py import f_children, f_step
from affinecrystal.errors import (
    BoundOutOfRange,
    DepthMismatch,
    HorizonExceedsTable,
    ParseError,
    RankMismatch,
    UnknownChoice,
)
from helpers import (
    apply_graph_edit,
    graph_json_edits,
    max_multiplicity,
    oracle_export_dot,
    oracle_export_json,
    oracle_is_regular,
    oracle_monomial_graph,
    oracle_monomial_stats,
    oracle_mult_a,
    oracle_partition_graph,
    oracle_partitions,
    oracle_regular_counts,
    oracle_weight_multiplicities,
    random_partition,
    y,
)


class TestGeneration:
    def test_depth_zero_monomial(self):
        g = generate_graph("monomial", 3, 0)
        assert g.vertices == ["Y(0,0)"]
        assert g.edges == []
        assert g.arm is None

    def test_small_partition_graph(self):
        g = generate_graph("partition", 3, 2)
        assert g.vertices == ["[]", "[1]", "[2]", "[1,1]"]
        assert g.edges == [(0, 1, 0), (1, 2, 1), (1, 3, 2)]
        assert g.arm == "horizontal"

    def test_deterministic(self):
        a = generate_graph("partition", 4, 6)
        b = generate_graph("partition", 4, 6)
        assert a == b

    def test_arm_of_another_rank(self):
        with pytest.raises(RankMismatch):
            generate_graph("partition", 5, 3, horizontal_arm(3))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_vertex_objects(self, n):
        # the BFS runs on raw tuples; every vertex its label names must pass
        # the validating constructor, as must every operator result on it,
        # and each edge must lead where f_down does
        for a in (horizontal_arm(n), random_arm(n, 40, seed=n)):
            g = generate_graph("partition", n, 10, a)
            out = g.out_edges()
            for k, label in enumerate(g.vertices):
                lam = parse_partition(label)
                assert type(lam) is Partition
                assert str(lam) == label
                for i in range(n):
                    down = f_down(lam, i, a)
                    for mu in (down, e_up(lam, i, a)):
                        if mu is not None:
                            assert type(mu) is Partition
                            assert Partition(mu.parts) == mu
                    if i in out[k]:
                        assert str(down) == g.vertices[out[k][i]]

    @pytest.mark.parametrize("depth", [-1, 2.5, True, "2", None])
    def test_depth_out_of_range(self, depth):
        with pytest.raises(BoundOutOfRange):
            generate_graph("partition", 3, depth)

    @pytest.mark.parametrize("model", ["partition", "monomial"])
    @pytest.mark.parametrize("n", [3.5, 4.0, "3", True, None])
    def test_rank_not_int(self, model, n):
        with pytest.raises(BoundOutOfRange, match=r"^rank must be an int >= 3, got "):
            generate_graph(model, n, 2)

    def test_bad_model(self):
        with pytest.raises(UnknownChoice):
            generate_graph("tableau", 3, 2)

    @pytest.mark.parametrize("model", ["partition", "monomial"])
    def test_degree_bounds(self, model):
        g = generate_graph(model, 4, 7)
        out_seen, in_seen = set(), set()
        for src, dst, color in g.edges:
            assert (src, color) not in out_seen
            assert (dst, color) not in in_seen
            out_seen.add((src, color))
            in_seen.add((dst, color))

    @pytest.mark.parametrize("model", ["partition", "monomial"])
    def test_root_sources_everything(self, model):
        g = generate_graph(model, 3, 7)
        targets = {dst for _, dst, _ in g.edges}
        assert g.root == 0 and 0 not in targets
        assert targets == set(range(1, len(g.vertices)))

    def test_raising_inverts_every_edge(self):
        n = 4
        a = horizontal_arm(n)
        g = generate_graph("partition", n, 7)
        for src, dst, color in g.edges:
            lam = parse_partition(g.vertices[dst])
            assert e_up(lam, color, a) == parse_partition(g.vertices[src])
        g = generate_graph("monomial", n, 7)
        for src, dst, color in g.edges:
            m = parse_monomial(g.vertices[dst], n)
            assert e_m(m, color) == parse_monomial(g.vertices[src], n)

    def test_size_grading_matches_counts(self):
        n, depth = 3, 8
        g = generate_graph("partition", n, depth)
        by_size = {}
        for label in g.vertices:
            size = parse_partition(label).size
            by_size[size] = by_size.get(size, 0) + 1
        counts = count_regular(n, horizontal_arm(n), depth)
        assert [by_size.get(m, 0) for m in range(depth + 1)] == counts

    def test_monomial_weights_stay_level_one(self):
        g = generate_graph("monomial", 5, 8)
        for label in g.vertices:
            m = parse_monomial(label, 5)
            assert sum(weight(m).values()) == 1

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("model, seed", [("partition", None), ("partition", 8),
                                             ("monomial", None)])
    def test_labels_each_vertex_once(self, model, seed, n, monkeypatch):
        # the label _model_side gives is called once per vertex, and never
        # for an edge that reaches a vertex already found
        labelled = []
        original = graphs._model_side

        def model_side(*args):
            root, children, label = original(*args)

            def counted(v):
                labelled.append(v)
                return label(v)

            return root, children, counted

        monkeypatch.setattr(graphs, "_model_side", model_side)
        a = None if seed is None else random_arm(n, 40, seed)
        g = generate_graph(model, n, 12, a)
        assert len(labelled) == len(set(labelled)) == len(g.vertices) < len(g.edges)


def axiom_breaking_arm(n, horizon, seed):
    """A table of arbitrary values in 0..n t; fails condition (i) or (ii)."""
    rng = random.Random(seed)
    a = ArmSequence(n, [rng.randint(0, n * t) for t in range(1, horizon + 1)])
    assert list(validate_arm(a, horizon)) != []
    return a


def horizon_error(fn):
    """The text of the HorizonExceedsTable that ``fn()`` raises, or None."""
    try:
        fn()
    except HorizonExceedsTable as exc:
        return str(exc)
    return None


class TestPartitionBFS:
    """The partition BFS lowers every color at once, apart from ``f_down``."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_matches_plain_bfs(self, n):
        arms = [horizontal_arm(n), random_arm(n, 40, seed=n),
                axiom_breaking_arm(n, 40, seed=n)]
        for a in arms:
            for depth in (0, 1, 5, 10):
                g = generate_graph("partition", n, depth, a)
                vertices, edges = oracle_partition_graph(n, depth, a)
                assert g.vertices == [format_partition(lam) for lam in vertices]
                assert g.edges == edges

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_children_match_single_color_steps(self, n):
        rng = random.Random(100 + n)
        tables = [None, random_arm(n, 40, seed=n).values,
                  axiom_breaking_arm(n, 40, seed=n).values]
        irregular = 0
        for _ in range(60):
            parts = random_partition(rng, 16).parts
            irregular += not oracle_is_regular(parts, n, horizontal_arm(n).value)
            for table in tables:
                children = f_children(parts, n, table)
                assert children == [f_step(parts, i, n, table) for i in range(n)]
        assert irregular > 0

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_short_table_raises_identically(self, n):
        raised = 0
        for horizon in (1, 2, 3):
            for seed in range(4):
                a = random_arm(n, horizon, seed)
                depth = 3 * n + 4
                want = horizon_error(lambda: oracle_partition_graph(n, depth, a))
                got = horizon_error(lambda: generate_graph("partition", n, depth, a))
                assert got == want
                raised += want is not None
        assert raised > 0
        rng = random.Random(n)
        raised = 0
        for _ in range(40):
            parts = random_partition(rng, 20).parts
            table = random_arm(n, 1, rng.randrange(10)).values
            want = horizon_error(lambda: [f_step(parts, i, n, table) for i in range(n)])
            assert horizon_error(lambda: f_children(parts, n, table)) == want
            raised += want is not None
        assert raised > 0


def residue_form(m):
    """The monomial vertex of ``m``: per residue, its (k, u) terms by increasing k."""
    return tuple(tuple(sorted((k, u) for (j, k), u in m.factors() if j == i))
                 for i in range(m.n))


def square_moment(m):
    return sum(u * k * k for (_, k), u in m.factors())


class TestMonomialBFS:
    """The monomial BFS runs on per-residue term tuples, apart from ``f_m``."""

    @pytest.mark.parametrize("mode", ["analytic", "bracket"])
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_matches_plain_bfs(self, n, mode):
        for depth in (0, 1, 5, 10):
            g = generate_graph("monomial", n, depth)
            vertices, edges = oracle_monomial_graph(n, depth, mode)
            assert g.vertices == [format_monomial(m) for m in vertices]
            assert g.edges == edges

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_edges_follow_definition(self, n):
        # f_i multiplies by A(i, q + 1)^-1 at the smallest q maximizing the
        # running sum; both come from the oracles, not the library helpers
        g = generate_graph("monomial", n, 10)
        out = g.out_edges()
        # ids are canonical, so the vertices above the last level come first
        expanded = len(generate_graph("monomial", n, 9).vertices)
        for v, label in enumerate(g.vertices[:expanded]):
            m = parse_monomial(label, n)
            for i in range(n):
                _, phi, _, q = oracle_monomial_stats(m, i)
                if phi == 0:
                    assert i not in out[v]
                else:
                    want = oracle_mult_a(m, i, q + 1, -1)
                    assert parse_monomial(g.vertices[out[v][i]], n) == want
                    # the BFS dedups one level at a time, relying on
                    # A(i,k)^-1 lowering sum(u k^2) by exactly 2
                    assert square_moment(m) - square_moment(want) == 2

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_vertex_objects(self, n):
        # the lowering step both the BFS and the walk run: on a vertex's
        # per-residue terms it gives, per color, the per-residue form of
        # f_m, and the edge of that color leads to its label
        g = generate_graph("monomial", n, 10)
        out = g.out_edges()
        root, _, text = monomial_crystal._monomial_side(n)
        assert residue_form(parse_monomial(g.vertices[0], n)) == root
        assert text(root) == g.vertices[0]
        children = monomial_crystal._lowering(n)
        for v, label in enumerate(g.vertices):
            m = parse_monomial(label, n)
            for i, child in enumerate(children(residue_form(m))):
                down = f_m(m, i)
                if child is None:
                    assert down is None
                    continue
                assert child == down._res == residue_form(down)
                assert text(child) == format_monomial(down)
                if i in out[v]:
                    assert format_monomial(down) == g.vertices[out[v][i]]

    def test_memos_live_one_call(self, monkeypatch):
        # each generate_graph and compare_models call starts with empty
        # memos, so a second call lowers every residue anew
        calls = []
        original = monomial_crystal._phi_q

        def phi_q(terms):
            calls.append(1)
            return original(terms)

        monkeypatch.setattr(monomial_crystal, "_phi_q", phi_q)
        for run in (lambda: generate_graph("monomial", 4, 12),
                    lambda: compare_models(4, 12, "partition", "monomial", use_psi=True)):
            counts = []
            for _ in range(2):
                calls.clear()
                run()
                counts.append(len(calls))
            assert counts[0] == counts[1] > 0


class TestComparison:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_psi_bijection(self, n, monkeypatch):
        # the walk calls the corner map once for every vertex, root
        # included, looked up on the isomorphism module at call time
        depth = 12
        g1 = generate_graph("partition", n, depth)
        g2 = generate_graph("monomial", n, depth)
        checked = []
        original = isomorphism.partition_to_monomial

        def corner_map(lam, rank):
            checked.append(format_partition(lam))
            return original(lam, rank)

        monkeypatch.setattr(isomorphism, "partition_to_monomial", corner_map)
        vertices, mismatch = compare_models(
            n, depth, "partition", "monomial", use_psi=True
        )
        assert mismatch is None
        assert vertices == len(g1.vertices) == len(g2.vertices)
        assert checked == g1.vertices
        result = compare_graphs(g1, g2)
        assert result.isomorphic, result.mismatch
        assert len(result.bijection) == len(g1.vertices)

    def test_psi_disagreement_witnessed(self, monkeypatch):
        # the corner map sends the last vertex of depth 5 to the root's image
        n = 4
        g1 = generate_graph("partition", n, 5)
        last = len(g1.vertices) - 1
        original = isomorphism.partition_to_monomial

        def corner_map(lam, rank):
            if format_partition(lam) == g1.vertices[last]:
                lam = Partition()
            return original(lam, rank)

        monkeypatch.setattr(isomorphism, "partition_to_monomial", corner_map)
        _, mismatch = compare_models(n, 5, "partition", "monomial", use_psi=True)
        assert mismatch.kind == "label-mismatch"
        assert mismatch.vertex1 == mismatch.vertex2 == last
        g2 = generate_graph("monomial", n, 5)
        assert mismatch.detail == (
            f"{g1.vertices[last]!r} does not correspond to {g2.vertices[last]!r}"
        )

    def test_label_mismatch_witnessed(self, monkeypatch):
        # a corner map that is wrong everywhere fails at the root pair
        monkeypatch.setattr(
            isomorphism, "partition_to_monomial", lambda lam, n: y(n, 1, 0)
        )
        _, mismatch = compare_models(3, 3, "partition", "monomial", use_psi=True)
        assert mismatch.kind == "label-mismatch"
        assert mismatch.vertex1 == mismatch.vertex2 == 0
        assert str(mismatch) == (
            "label-mismatch at v0/v0: '[]' does not correspond to 'Y(0,0)'"
        )

    def test_two_random_arms_structurally_equal(self):
        n, depth = 3, 8
        g1 = generate_graph("partition", n, depth, random_arm(n, 32, 1))
        g2 = generate_graph("partition", n, depth, random_arm(n, 32, 2))
        assert compare_graphs(g1, g2).isomorphic

    def test_deleted_edge_is_witnessed(self):
        g1 = generate_graph("partition", 3, 6)
        g2 = generate_graph("partition", 3, 6)
        dropped = g2.edges.pop()
        result = compare_graphs(g1, g2)
        assert not result.isomorphic
        assert result.mismatch.kind == "edge-presence"
        assert result.mismatch.color == dropped[2]

    def test_inconsistent_pairing_witnessed(self):
        # both colors lead to one vertex of g2 but to two of g1
        g1 = CrystalGraph("partition", 3, 1, None, ["a", "b", "c"],
                          [(0, 1, 0), (0, 2, 1)])
        g2 = CrystalGraph("partition", 3, 1, None, ["a", "b"],
                          [(0, 1, 0), (0, 1, 1)])
        result = compare_graphs(g1, g2)
        assert result.mismatch.kind == "inconsistent-pairing"
        assert (result.mismatch.vertex1, result.mismatch.vertex2) == (2, 1)
        assert result.mismatch.color == 1
        assert str(result.mismatch) == (
            "inconsistent-pairing at v2/v1 color 1: "
            "conflicts with an earlier pairing"
        )

    def test_unreached_vertices_witnessed(self):
        g1 = CrystalGraph("partition", 3, 1, None, ["a", "b", "c"], [(0, 1, 0)])
        g2 = CrystalGraph("partition", 3, 1, None, ["a", "b"], [(0, 1, 0)])
        result = compare_graphs(g1, g2)
        assert result.mismatch.kind == "unreached-vertices"
        assert result.mismatch.vertex1 is None
        assert str(result.mismatch) == "unreached-vertices: paired 2 of 3/2"

    def test_hand_built_edges_off_the_next_level(self):
        # a chain 0 -0-> 1 -0-> 2 -0-> 3, an edge 1 -1-> 3 past the next
        # level, 3 -2-> 0 back to the root, 2 -1-> 1 back one level and a
        # loop at 4: the graph walk pairs along every edge, so a one-level
        # map would pair 3 and 4 twice
        g = CrystalGraph("partition", 3, 3, None, ["a", "b", "c", "d", "e"],
                         [(0, 1, 0), (1, 2, 0), (2, 3, 0), (1, 3, 1), (3, 0, 2),
                          (2, 1, 1), (0, 4, 2), (4, 4, 1)])
        identity = compare_graphs(g, g).bijection
        assert identity == {v: v for v in range(5)}
        assert list(identity) == [0, 1, 4, 2, 3]  # pairing order
        perm = [3, 0, 4, 1, 2]
        renumbered = g._replace(edges=[(perm[s], perm[d], c) for s, d, c in g.edges],
                                root=perm[0])
        assert compare_graphs(g, renumbered).bijection == dict(enumerate(perm))
        # each mutant against g, then g against it
        conflict, lowers = ": conflicts with an earlier pairing", " graph lowers here"
        edits = {
            ((3, 0, 2), (3, 1, 2)): ("inconsistent-pairing at v0/v1 color 2" + conflict,
                                     "inconsistent-pairing at v1/v0 color 2" + conflict),
            ((1, 3, 1), (1, 2, 1)): ("inconsistent-pairing at v3/v2 color 1" + conflict,
                                     "inconsistent-pairing at v2/v3 color 1" + conflict),
            ((4, 4, 1), (4, 0, 1)): ("inconsistent-pairing at v4/v0 color 1" + conflict,
                                     "inconsistent-pairing at v0/v4 color 1" + conflict),
            ((1, 3, 1), None): ("edge-presence at v1/v1 color 1: only the first" + lowers,
                                "edge-presence at v1/v1 color 1: only the second" + lowers),
            ((3, 0, 2), None): ("edge-presence at v3/v3 color 2: only the first" + lowers,
                                "edge-presence at v3/v3 color 2: only the second" + lowers),
        }
        for (old, new), wanted in edits.items():
            mutant = g._replace(edges=[new if e == old else e for e in g.edges
                                       if e != old or new is not None])
            for pair, want in zip(((g, mutant), (mutant, g)), wanted):
                assert str(compare_graphs(*pair).mismatch) == want

    def test_depth_guard(self):
        with pytest.raises(DepthMismatch):
            compare_graphs(
                generate_graph("partition", 3, 2), generate_graph("partition", 3, 3)
            )

    def test_rank_guard(self):
        with pytest.raises(RankMismatch):
            compare_graphs(
                generate_graph("partition", 3, 2), generate_graph("partition", 4, 2)
            )

    def test_rank_ceiling(self):
        # a hand-built record skips graph_from_json's check; without one the
        # walk would list 10**19 colors for the root
        g = CrystalGraph("partition", 10**19, 1, None, ["[]", "[1]"], [(0, 1, 0)])
        with pytest.raises(BoundOutOfRange, match="ceiling"):
            compare_graphs(g, g)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_fuzzed_mutants_compared_or_refused(self, data):
        # one edit of a real export, compared with the original both ways:
        # a CrystalError, a mismatch, or a bijection that an independent
        # check confirms.  An edit that graph_from_json refuses is built by
        # hand, and compare_graphs refuses it with ParseError
        model = data.draw(st.sampled_from(["partition", "monomial"]))
        n, depth = data.draw(st.sampled_from([3, 4])), data.draw(st.integers(0, 6))
        doc = copy.deepcopy(exported_doc(model, n, depth))
        edges, count = doc["edges"], len(doc["vertices"])
        kind = data.draw(st.sampled_from(
            ["retarget", "drop", "add", "depth", "renumber", "malformed"] if edges
            else ["add", "depth", "renumber", "malformed"]))
        original = graph_from_json(json.dumps(exported_doc(model, n, depth)))
        if kind == "malformed":
            mutant = data.draw(malformed(original))
            for g1, g2 in ((original, mutant), (mutant, original)):
                with pytest.raises(ParseError):
                    compare_graphs(g1, g2)
            return
        if kind == "retarget":  # an edge pointed at another vertex
            e = data.draw(st.sampled_from(edges))
            e["dst"] = data.draw(st.integers(0, count - 1).filter(lambda v: v != e["dst"]))
        elif kind == "drop":
            edges.remove(data.draw(st.sampled_from(edges)))
        elif kind == "add":  # a color the source has no out-edge of
            used = {(e["src"], e["color"]) for e in edges}
            src, color = data.draw(st.sampled_from(
                [(v, c) for v in range(count) for c in range(n) if (v, c) not in used]))
            edges.append({"src": src, "dst": data.draw(st.integers(0, count - 1)),
                          "color": color})
        elif kind == "depth":
            doc["depth"] += data.draw(st.sampled_from([1, -1] if depth else [1]))
        else:  # the same graph under other vertex ids
            perm = data.draw(st.permutations(range(count)))
            for v in doc["vertices"]:
                v["id"] = perm[v["id"]]
            for e in edges:
                e["src"], e["dst"] = perm[e["src"]], perm[e["dst"]]
            doc["root"] = perm[doc["root"]]
        mutant = graph_from_json(json.dumps(doc))
        for g1, g2 in ((original, mutant), (mutant, original)):
            try:
                result = compare_graphs(g1, g2)
            except CrystalError:
                assert kind == "depth"
                continue
            assert type(result) is GraphComparison
            if result.bijection is None:
                assert result.mismatch is not None and kind != "renumber"
            else:
                assert result.mismatch is None
                assert_colored_bijection(g1, g2, result.bijection)
        if kind == "renumber":
            assert compare_graphs(original, mutant).bijection == dict(enumerate(perm))


class TestWalk:
    """The model walk against compare_graphs on the two generated graphs."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_same_verdict_as_compare_graphs(self, n):
        # axiom-breaking tables only diverge once hooks reach n t for a bad
        # t, so the depth grows with n; every pair has a valid side
        depth = n + 7
        valid = [("partition", horizontal_arm(n)),
                 ("partition", random_arm(n, 40, seed=n)), ("monomial", None)]
        breaking = [("partition", axiom_breaking_arm(n, 40, seed))
                    for seed in range(n, n + 40, 3)]
        graphs_of = {}

        def graph(model, a):
            key = id(a)
            if key not in graphs_of:
                graphs_of[key] = generate_graph(
                    model, n, depth, a if model == "partition" else None)
            return graphs_of[key]

        mismatches = 0
        for side1 in valid + breaking:
            for side2 in valid + (breaking if side1 in valid else []):
                (model1, a1), (model2, a2) = side1, side2
                vertices, mismatch = compare_models(n, depth, model1, model2, a1, a2)
                result = compare_graphs(graph(*side1), graph(*side2))
                if result.isomorphic:
                    assert mismatch is None
                    assert vertices == len(result.bijection)
                else:
                    # kind, ids, color and detail
                    assert str(mismatch) == str(result.mismatch)
                    mismatches += 1
        assert mismatches > 0

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_psi_mismatch_is_first_in_id_order(self, n):
        # under a valid non-horizontal arm the graphs are isomorphic but the
        # corner map fails; the walk reports the first failing pair in id
        # order, reached by the color of its first in-edge
        depth = n + 7
        g2 = generate_graph("monomial", n, depth)
        first_edge = {}
        for src, dst, color in g2.edges:
            first_edge.setdefault(dst, color)
        failures = 0
        arms = [horizontal_arm(n)] + [random_arm(n, 40, seed) for seed in range(n, n + 4)]
        for a in arms:
            g1 = generate_graph("partition", n, depth, a)
            bijection = compare_graphs(g1, g2).bijection
            assert bijection == {v: v for v in range(len(g1.vertices))}
            bad = [v for v in range(len(g1.vertices))
                   if partition_to_monomial(parse_partition(g1.vertices[v]), n)
                   != parse_monomial(g2.vertices[v], n)]
            vertices, mismatch = compare_models(n, depth, "partition", "monomial", a,
                                                use_psi=True)
            if not bad:
                assert mismatch is None and vertices == len(g1.vertices)
                continue
            failures += 1
            assert (mismatch.kind, mismatch.vertex1, mismatch.vertex2) == (
                "label-mismatch", bad[0], bad[0])
            assert mismatch.color == first_edge.get(bad[0])
        assert failures > 0

    def test_documented_pairing_conflict(self):
        a = ArmSequence(3, [0, 5, 1, 9, 2, 7])
        want = ("inconsistent-pairing at v17/v18 color 0: "
                "conflicts with an earlier pairing")
        _, mismatch = compare_models(3, 12, "partition", "partition", a)
        assert str(mismatch) == want
        result = compare_graphs(generate_graph("partition", 3, 12, a),
                                generate_graph("partition", 3, 12))
        assert str(result.mismatch) == want

    def test_mismatch_pair_counts(self, monkeypatch):
        # the pairs made up to the first mismatch, that one included, for
        # each kind; a vertex not yet paired is named by that count
        a = ArmSequence(3, [0, 5, 1, 9, 2, 7])
        assert compare_models(3, 12, "partition", "partition", a)[0] == 18
        assert str(compare_models(3, 12, "partition", "partition", None, a)[1]) == (
            "inconsistent-pairing at v18/v17 color 0: conflicts with an earlier pairing")
        vertices, mismatch = compare_models(3, 10, "partition", "monomial",
                                            random_arm(3, 40, 3), use_psi=True)
        assert (vertices, str(mismatch)) == (6, (
            "label-mismatch at v5/v5 color 1: "
            "'[2,1]' does not correspond to 'Y(1,4)^-1*Y(0,3)*Y(1,1)'"))
        # a monomial side that does not lower v7 by its first color
        target = generate_graph("monomial", 3, 6).vertices[7]
        model_side = graphs._model_side

        def pruned_side(model, n, a):
            root, children, label = model_side(model, n, a)
            if model != "monomial":
                return root, children, label

            def pruned(v):
                kids = children(v)
                if label(v) == target:
                    kids[next(i for i, w in enumerate(kids) if w is not None)] = None
                return kids

            return root, pruned, label

        monkeypatch.setattr(graphs, "_model_side", pruned_side)
        for models, side in ((("partition", "monomial"), "first"),
                             (("monomial", "partition"), "second")):
            vertices, mismatch = compare_models(3, 6, *models)
            assert (vertices, str(mismatch)) == (
                12, f"edge-presence at v7/v7 color 0: only the {side} graph lowers here")

    def test_holds_two_levels(self):
        # a child can only meet a vertex of the next level, so the walk
        # keeps the frontier's level and the one it is discovering, not
        # every vertex it has paired; counted on vertices that track their
        # live instances
        n, depth = 3, 14
        sizes = oracle_regular_counts(n, depth)
        root, children, _ = graphs._model_side("partition", n, None)

        class Vertex:
            __slots__ = ("parts",)
            live = 0

            def __init__(self, parts):
                self.parts = parts
                Vertex.live += 1

            def __del__(self):
                Vertex.live -= 1

            def __eq__(self, other):
                return self.parts == other.parts

            def __hash__(self):
                return hash(self.parts)

        def counted(v):
            level = sum(v.parts)
            # both sides' vertices of v's level and the next, plus the two
            # roots, the first side's child list and the last pair looked at
            assert Vertex.live <= 2 * (sizes[level] + sizes[level + 1]) + n + 4
            return [None if w is None else Vertex(w) for w in children(v.parts)]

        pairs, mismatch = graphs._walk((Vertex(root), counted), (Vertex(root), counted),
                                       depth)
        assert (pairs, mismatch) == (sum(sizes), None)

    def test_builds_no_graph(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the walk built a graph")

        for name in ("generate_graph", "_bfs", "CrystalGraph"):
            monkeypatch.setattr(graphs, name, refuse)
        for model1 in ("partition", "monomial"):
            for model2 in ("partition", "monomial"):
                assert compare_models(4, 6, model1, model2)[1] is None

    def test_rank_and_model_guards(self):
        with pytest.raises(RankMismatch):
            compare_models(4, 2, "partition", "partition", horizontal_arm(3))
        with pytest.raises(UnknownChoice):
            compare_models(3, 2, "partition", "tableau")
        # the corner map goes from the partition model to the monomial one
        for models in (("monomial", "partition"), ("partition", "partition")):
            with pytest.raises(UnknownChoice):
                compare_models(3, 2, *models, use_psi=True)


class TestWeightMultiplicities:
    """Frenkel-Kac weight multiplicities, from the edges alone."""

    @pytest.mark.parametrize("n, depth", [(3, 18), (4, 14), (5, 12), (6, 11), (7, 10)])
    def test_both_models_and_a_random_arm(self, n, depth):
        for g in (generate_graph("partition", n, depth),
                  generate_graph("monomial", n, depth),
                  generate_graph("partition", n, depth, random_arm(n, 40, seed=n))):
            assert oracle_weight_multiplicities(g) == []

    @pytest.mark.parametrize("model", ["partition", "monomial"])
    def test_dropped_or_duplicated_vertex_fails(self, model):
        g = generate_graph(model, 4, 8)
        for v in (1, len(g.vertices) // 2, len(g.vertices) - 1):
            # drop v: its in-edges go, and v's last id is reused by nothing
            dropped = CrystalGraph(g.model, g.n, g.depth, g.arm, g.vertices[:],
                                   [e for e in g.edges if v not in e[:2]])
            assert oracle_weight_multiplicities(dropped) != []
            # duplicate v: a copy reached by the same edge as v
            edge = next(e for e in g.edges if e[1] == v)
            copy = CrystalGraph(g.model, g.n, g.depth, g.arm, g.vertices + [g.vertices[v]],
                                g.edges + [(edge[0], len(g.vertices), edge[2])])
            assert oracle_weight_multiplicities(copy) != []


class TestCeilings:
    def test_ceiling_depth_covers_every_rank(self):
        # n = 3 has the fewest vertices at every depth, so the series never
        # needs more than _CEILING_DEPTH terms
        cap = graphs._CEILING_DEPTH
        assert sum(oracle_regular_counts(3, cap - 1)) <= graphs.MAX_GRAPH_VERTICES
        for n in range(3, 13):
            counts = oracle_regular_counts(n, cap)
            assert sum(counts) > graphs.MAX_GRAPH_VERTICES
            if n > 3:
                previous = oracle_regular_counts(n - 1, cap)
                assert all(c >= p for c, p in zip(counts, previous))

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 10])
    def test_refused_before_any_bfs(self, n, monkeypatch):
        # the first depth above the ceiling, and every larger one, is
        # refused without walking; the depth below reaches the BFS
        totals = [sum(oracle_regular_counts(n, d)) for d in range(graphs._CEILING_DEPTH + 1)]
        above = next(d for d, t in enumerate(totals) if t > graphs.MAX_GRAPH_VERTICES)

        class Walked(Exception):
            pass

        def walked(*args, **kwargs):
            raise Walked

        for name in ("_bfs", "_walk"):
            monkeypatch.setattr(graphs, name, walked)
        for depth in (above, above + 1, 10**9):
            for model in ("partition", "monomial"):
                with pytest.raises(BoundOutOfRange, match="ceiling"):
                    generate_graph(model, n, depth)
            with pytest.raises(BoundOutOfRange, match="ceiling"):
                compare_models(n, depth, "partition", "monomial", use_psi=True)
        for model in ("partition", "monomial"):
            with pytest.raises(Walked):
                generate_graph(model, n, above - 1)
        with pytest.raises(Walked):
            compare_models(n, above - 1, "partition", "monomial")

    def test_backstop_per_level(self, monkeypatch):
        # with the closed form skipped, a BFS or a walk that passes the
        # ceiling stops at the end of that level
        monkeypatch.setattr(graphs, "_check_graph_size", lambda n, depth: None)
        monkeypatch.setattr(graphs, "MAX_GRAPH_VERTICES", 50)
        a = axiom_breaking_arm(4, 40, seed=4)
        for run in (lambda: generate_graph("partition", 4, 12, a),
                    lambda: generate_graph("monomial", 4, 12),
                    lambda: compare_models(4, 12, "partition", "partition", a, a)):
            with pytest.raises(BoundOutOfRange, match="ceiling is 50"):
                run()


class TestCounting:
    def test_small_counts(self):
        assert count_regular(3, horizontal_arm(3), 5) == [1, 1, 2, 2, 4, 5]

    def test_size_zero(self):
        assert count_regular(6, horizontal_arm(6), 0) == [1]

    def test_counts_free_of_arm_choice(self):
        for n in (3, 4):
            base = count_regular(n, horizontal_arm(n), 8)
            for seed in (3, 4, 5):
                assert count_regular(n, random_arm(n, 24, seed), 8) == base

    def test_against_run_length_oracle(self):
        # the regular count at rank 3 matches partitions with no part
        # repeated three or more times
        got = count_regular(3, horizontal_arm(3), 9)
        expected = [
            sum(1 for parts in oracle_partitions(m) if max_multiplicity(parts) < 3)
            for m in range(10)
        ]
        assert got == expected

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_closed_form(self, n):
        expected = oracle_regular_counts(n, 30)
        assert count_regular(n, horizontal_arm(n), 30) == expected
        for seed in (1, 2, 3):
            assert count_regular(n, random_arm(n, 40, seed), 30) == expected

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_closed_form_misra_miwa_extremes(self, n):
        # the two ends of axiom (i): (n - 1) t gives a leg-0 rule, whose cut
        # has no upper end, and t - 1 the longest runs of legal rows
        expected = oracle_regular_counts(n, 40)
        for values in ([t - 1 for t in range(1, 61)],
                       [(n - 1) * t for t in range(1, 61)]):
            a = ArmSequence(n, values)
            assert list(validate_arm(a, 60)) == []
            assert count_regular(n, a, 40) == expected, values[:2]

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_against_brute_force(self, n):
        # the unchecked tables break the arm axioms, so their counts are not
        # the closed form, but the row-by-row traversal must still be exact
        arms = [
            horizontal_arm(n),
            random_arm(n, 8, seed=n),
            ArmSequence(n, [(3 * t) % (2 * n) for t in range(1, 9)]),
            # the two extremes of axiom (i); (n - 1) t gives a leg-0 rule
            ArmSequence(n, [t - 1 for t in range(1, 61)]),
            ArmSequence(n, [(n - 1) * t for t in range(1, 61)]),
            # no box has a negative arm, nor a hook n t with arm >= n t
            ArmSequence(n, [-1, 2, -3, 5, -2, 7, -1, 9]),
            ArmSequence(n, [n * t + t % 2 for t in range(1, 9)]),
        ]
        levels = [[lam.parts for lam in partitions_of_size(m)] for m in range(19)]
        for a in arms:
            expected = [sum(1 for parts in level if oracle_is_regular(parts, n, a.value))
                        for level in levels]
            assert count_regular(n, a, 18) == expected, a
        # no box is illegal under the last table
        assert expected == [len(level) for level in levels]

    @pytest.mark.parametrize("n", [3, 6])
    def test_closed_form_size_50(self, n):
        expected = oracle_regular_counts(n, 50)
        assert count_regular(n, horizontal_arm(n), 50) == expected
        assert count_regular(n, random_arm(n, 60, seed=n), 50) == expected

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("horizon", [2, 3])
    def test_horizon_boundary(self, n, horizon):
        a = random_arm(n, horizon, seed=horizon)
        last = n * (horizon + 1) - 1
        assert len(count_regular(n, a, last)) == last + 1
        for max_size in (last + 1, last + 1 + 2 * n):
            with pytest.raises(HorizonExceedsTable) as err:
                count_regular(n, a, max_size)
            assert (err.value.t, err.value.horizon) == (horizon + 1, horizon)

    def test_arm_of_another_rank(self):
        with pytest.raises(RankMismatch):
            count_regular(5, horizontal_arm(3), 6)

    @pytest.mark.parametrize("max_size", [-1, 101, 2.5, True, "2"])
    def test_max_size_out_of_range(self, max_size):
        with pytest.raises(BoundOutOfRange):
            count_regular(3, horizontal_arm(3), max_size)

    def test_rank_not_int(self):
        with pytest.raises(BoundOutOfRange, match=r"^rank must be an int >= 3, got "):
            count_regular(4.0, horizontal_arm(4.0), 3)
        with pytest.raises(BoundOutOfRange, match=r"^rank must be an int >= 3, got "):
            count_regular(4.0, horizontal_arm(4), 3)


class TestExport:
    def test_dot_single_node(self):
        g = generate_graph("monomial", 3, 0)
        dot = export_dot(g)
        assert dot.startswith("digraph crystal {")
        assert 'v0 [label="Y(0,0)"];' in dot

    def test_dot_counts(self):
        dot = export_dot(generate_graph("partition", 3, 2))
        assert dot.count("[label=") == 4 + 3
        assert 'v1 -> v2 [label="1"];' in dot

    def test_json_round_trip(self):
        for model, depth in (("partition", 5), ("monomial", 4)):
            g = generate_graph(model, 4, depth)
            assert graph_from_json(export_json(g)) == g

    def test_json_round_trip_random_arm(self):
        g = generate_graph("partition", 3, 5, random_arm(3, 24, 9))
        doc = export_json(g)
        assert '"arm": "random:9:24"' in doc
        assert graph_from_json(doc) == g

    def test_json_deterministic(self):
        g = generate_graph("partition", 4, 5)
        assert export_json(g) == export_json(generate_graph("partition", 4, 5))

    def test_bad_json(self):
        with pytest.raises(ParseError):
            graph_from_json("{not json")
        with pytest.raises(ParseError, match="missing or malformed field"):
            graph_from_json('{"model": "partition"}')
        for top in ("[]", '"x"', "null"):
            with pytest.raises(ParseError, match="missing or malformed field"):
                graph_from_json(top)

    @pytest.mark.parametrize(
        "text", ['{"n": ' + "9" * 5000 + "}", "[" * 100_000],
        ids=["integer-past-digit-limit", "nesting-past-recursion-limit"],
    )
    def test_json_past_decoder_limits(self, text):
        with pytest.raises(ParseError):
            graph_from_json(text)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: doc["vertices"][-1].update(id=-1),
            lambda doc: doc["vertices"][1].update(id=0),
            lambda doc: doc["vertices"][1].update(id=len(doc["vertices"])),
            lambda doc: doc["vertices"][1].update(id="1"),
            lambda doc: doc["vertices"][1].update(label=5),
            lambda doc: doc["edges"][0].update(dst=len(doc["vertices"])),
            lambda doc: doc["edges"][0].update(src=-1),
            lambda doc: doc["edges"][0].update(color=doc["n"]),
            lambda doc: doc["edges"][0].update(color=-1),
            lambda doc: doc["edges"].append(dict(doc["edges"][0], dst=2)),
            lambda doc: doc.update(root=len(doc["vertices"])),
            lambda doc: doc.update(n=2),
            lambda doc: doc.update(n=10**19),
            lambda doc: doc.update(model=7),
            lambda doc: doc.update(depth="3"),
            lambda doc: doc.update(depth=-5),
            lambda doc: doc.update(depth=None),
            lambda doc: doc.update(depth=3.0),
            lambda doc: doc.update(arm=3),
            lambda doc: doc.update(vertices=5),
            lambda doc: doc.update(vertices=None),
            lambda doc: doc.update(vertices="ab"),
            lambda doc: doc.update(vertices={"a": 1}),
            lambda doc: doc["vertices"].__setitem__(1, 5),
            lambda doc: doc["vertices"].__setitem__(1, [0]),
            lambda doc: doc.update(edges={"a": 1}),
            lambda doc: doc["edges"].__setitem__(0, [0, 1, 0]),
        ],
        ids=[
            "negative-id", "duplicate-id", "id-past-end", "string-id", "int-label",
            "dst-out-of-range", "negative-src", "color-n", "negative-color",
            "two-out-edges-one-color", "root-out-of-range", "rank-too-small",
            "rank-past-ceiling", "int-model", "string-depth", "negative-depth",
            "null-depth", "float-depth", "int-arm", "int-vertices", "null-vertices",
            "string-vertices", "object-vertices", "int-vertex", "list-vertex",
            "object-edges", "list-edge",
        ],
    )
    def test_malformed_graph_rejected(self, corrupt):
        doc = json.loads(export_json(generate_graph("partition", 3, 3)))
        corrupt(doc)
        with pytest.raises(ParseError):
            graph_from_json(json.dumps(doc))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_json_read_or_refused(self, data):
        # any other exception, or a different graph read back, fails
        g, doc, edits = data.draw(st.sampled_from(fuzz_cases()))
        edit = data.draw(st.sampled_from(edits))
        text = json.dumps(apply_graph_edit(doc, edit))
        if edit.kept:
            assert graph_from_json(text) == g
        else:
            with pytest.raises(ParseError):
                graph_from_json(text)

    def test_handmade_graph_round_trip(self):
        g = CrystalGraph(
            model="partition",
            n=3,
            depth=1,
            arm=None,
            vertices=["[]", "[1]"],
            edges=[(0, 1, 0)],
        )
        assert graph_from_json(export_json(g)) == g

    @pytest.mark.parametrize("model", ["partition", "monomial"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_json_matches_oracle(self, model, n):
        for depth in range(9):
            g = generate_graph(model, n, depth)
            text = export_json(g)
            assert text == oracle_export_json(g), depth
            assert graph_from_json(text) == g

    def test_json_matches_oracle_random_arm(self):
        g = generate_graph("partition", 4, 8, random_arm(4, 30, seed=7))
        text = export_json(g)
        assert text == oracle_export_json(g)
        assert graph_from_json(text) == g

    def test_json_escapes_match_oracle(self):
        g = escapes_graph()
        text = export_json(g)
        assert text == oracle_export_json(g)
        assert graph_from_json(text) == g

    def test_dot_escapes_match_oracle(self):
        g = escapes_graph()
        assert export_dot(g) == oracle_export_dot(g)

    @pytest.mark.parametrize("model", ["partition", "monomial"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_dot_matches_oracle(self, model, n):
        for depth in (0, 1, 6):
            g = generate_graph(model, n, depth)
            assert export_dot(g) == oracle_export_dot(g), depth

    def test_dot_matches_oracle_random_arm(self):
        g = generate_graph("partition", 4, 8, random_arm(4, 30, seed=7))
        assert export_dot(g) == oracle_export_dot(g)

    def test_hand_built_scalars_keep_their_text(self):
        # a hand-built record may hold what generate_graph never does: an
        # edge field prints as str() does, the other scalars go through
        # json.dumps, and both writers refuse a label that is not text
        g = CrystalGraph(model="partition", n=3, depth=2.0, arm=None,
                         vertices=["5", "x"],
                         edges=[(True, 1.0, False), (4, 0, 2)], root=True)
        label = '    {{\n      "id": {},\n      "label": {}\n    }}'.format
        edge = '    {{\n      "src": {},\n      "dst": {},\n      "color": {}\n    }}'.format
        assert export_json(g) == (
            '{\n  "model": "partition",\n  "n": 3,\n  "arm": null,\n  "depth": 2.0,\n'
            '  "root": true,\n  "vertices": [\n'
            + ",\n".join(label(*v) for v in enumerate(['"5"', '"x"']))
            + '\n  ],\n  "edges": [\n'
            + edge("True", "1.0", "False") + ",\n" + edge(4, 0, 2) + "\n  ]\n}\n"
        )
        assert export_dot(g) == (
            'digraph crystal {\n  v0 [label="5"];\n  v1 [label="x"];\n'
            '  vTrue -> v1.0 [label="False"];\n  v4 -> v0 [label="2"];\n}\n'
        )
        bad = g._replace(vertices=["a", 5, None, True, 2.5])
        for export in (export_json, export_dot):
            with pytest.raises(ParseError, match=r"^vertex 1 label is not a string: 5$"):
                export(bad)


@functools.cache
def exported_doc(model, n, depth):
    """The parsed JSON export of a generated graph; callers copy it."""
    return json.loads(export_json(generate_graph(model, n, depth)))


def assert_colored_bijection(g1, g2, bijection):
    """``bijection`` maps the vertices of g1 one to one onto those of g2,
    root to root, and the colored edges of g1 onto those of g2."""
    assert sorted(bijection) == list(range(len(g1.vertices)))
    assert sorted(bijection.values()) == list(range(len(g2.vertices)))
    assert bijection[g1.root] == g2.root
    assert len(g1.edges) == len(g2.edges)
    assert {(bijection[s], bijection[d], c) for s, d, c in g1.edges} == set(g2.edges)


@st.composite
def malformed(draw, g):
    """``g`` with one root or edge field that graph_from_json refuses: an
    id past either end, a float or a bool, a color outside 0..n-1, an edge
    repeated, so its source has two out-edges of one color, or an edge
    that is not a triple."""
    count = len(g.vertices)
    field = draw(st.sampled_from(["src", "dst", "color", "root", "arity"]
                                 + (["repeat"] if g.edges else [])))
    if field == "root":
        return g._replace(root=draw(st.sampled_from([-1, count, 0.0, False])))
    edge = draw(st.sampled_from(g.edges or [(0, 0, 0)]))
    if field == "arity":
        edge = draw(st.sampled_from([edge[:2], edge + (0,), None]))
    elif field != "repeat":
        k = ("src", "dst", "color").index(field)
        top = g.n if field == "color" else count
        bad = draw(st.sampled_from([-1, top, float(edge[k]), bool(edge[k])]))
        edge = edge[:k] + (bad,) + edge[k + 1:]
    edges = list(g.edges)
    edges.insert(draw(st.integers(0, len(edges))), edge)
    return g._replace(edges=edges)


@functools.cache
def fuzz_cases():
    """(graph, its parsed export, every edit of it) for small graphs of
    both models, a random arm and the one-vertex graph."""
    cases = []
    for g in (generate_graph("partition", 3, 3), generate_graph("monomial", 4, 3),
              generate_graph("partition", 4, 3, random_arm(4, 30, seed=5)),
              generate_graph("partition", 5, 0)):
        doc = json.loads(export_json(g))
        cases.append((g, doc, graph_json_edits(doc)))
    return cases


def escapes_graph():
    """A hand-built graph whose texts need JSON and DOT escapes."""
    return CrystalGraph(
        model='part"ition\\',
        n=3,
        depth=2,
        arm="file:arms/a b\n\"q\"",
        vertices=["[]", 'x"y\\z', "line\nbreak\ttab\x00\x1f\x7f", "λ→ü \u2028 \U0001f600"],
        edges=[(0, 1, 0), (1, 2, 2), (1, 3, 1)],
    )
