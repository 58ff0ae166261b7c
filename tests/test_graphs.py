import json

import pytest

from affinecrystal import (
    CrystalGraph,
    Monomial,
    Partition,
    compare_graphs,
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
    unchecked_arm,
    weight,
)
from affinecrystal.errors import (
    BoundOutOfRange,
    DepthMismatch,
    HorizonExceedsTable,
    ParseError,
    RankMismatch,
    RankTooSmall,
    UnknownChoice,
)
from helpers import (
    max_multiplicity,
    oracle_export_json,
    oracle_is_regular,
    oracle_monomial_graph,
    oracle_monomial_stats,
    oracle_mult_a,
    oracle_partitions,
    oracle_regular_counts,
)


def psi_agree(n, partitions, monomials):
    """Paired ids agree when the corner map takes one vertex to the other."""

    def agree(v1, v2):
        return partition_to_monomial(partitions[v1], n) == monomials[v2]

    return agree


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
        # the BFS runs on raw tuples and wraps them unchecked; every object
        # it hands out, and every operator result on it, must pass the
        # validating constructor
        for a in (horizontal_arm(n), random_arm(n, 40, seed=n)):
            objs = []
            g = generate_graph("partition", n, 10, a, objects=objs)
            out = g.out_edges()
            assert len(objs) == len(g.vertices)
            for k, lam in enumerate(objs):
                assert type(lam) is Partition
                assert Partition(lam.parts) == lam
                assert str(lam) == g.vertices[k]
                for i in range(n):
                    down = f_down(lam, i, a)
                    for mu in (down, e_up(lam, i, a)):
                        if mu is not None:
                            assert type(mu) is Partition
                            assert Partition(mu.parts) == mu
                    if i in out[k]:
                        assert down == objs[out[k][i]]

    @pytest.mark.parametrize("depth", [-1, 2.5, True, "2", None])
    def test_depth_out_of_range(self, depth):
        with pytest.raises(BoundOutOfRange):
            generate_graph("partition", 3, depth)

    @pytest.mark.parametrize("model", ["partition", "monomial"])
    @pytest.mark.parametrize("n", [3.5, 4.0, "3", True, None])
    def test_rank_not_int(self, model, n):
        with pytest.raises(RankTooSmall):
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


def square_moment(m):
    return sum(u * k * k for (_, k), u in m.factors())


class TestMonomialBFS:
    """The monomial BFS runs on canonical keys, apart from ``f_m``."""

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
        # objects wrap the BFS's own dicts unchecked; each must equal the
        # monomial its label parses to, hash included, and lower like it
        objs = []
        g = generate_graph("monomial", n, 10, objects=objs)
        out = g.out_edges()
        assert len(objs) == len(g.vertices)
        for v, m in enumerate(objs):
            assert type(m) is Monomial
            parsed = parse_monomial(g.vertices[v], n)
            assert m == parsed and hash(m) == hash(parsed)
            assert format_monomial(m) == g.vertices[v]
            for i, w in out[v].items():
                assert f_m(m, i) == objs[w]


class TestComparison:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_psi_bijection(self, n):
        depth = 12
        partitions, monomials = [], []
        g1 = generate_graph("partition", n, depth, None, partitions)
        g2 = generate_graph("monomial", n, depth, None, monomials)
        assert [format_partition(lam) for lam in partitions] == g1.vertices
        assert [format_monomial(m) for m in monomials] == g2.vertices
        checked = []
        corner_map_agrees = psi_agree(n, partitions, monomials)

        def agree(v1, v2):
            checked.append(v1)
            return corner_map_agrees(v1, v2)

        result = compare_graphs(g1, g2, agree)
        assert result.isomorphic, result.mismatch
        assert len(result.bijection) == len(g1.vertices) == len(g2.vertices)
        assert sorted(checked) == list(range(len(g1.vertices)))

    def test_psi_disagreement_witnessed(self):
        n = 4
        partitions, monomials = [], []
        g1 = generate_graph("partition", n, 5, None, partitions)
        g2 = generate_graph("monomial", n, 5, None, monomials)
        last = len(monomials) - 1
        monomials[last] = monomials[0]
        result = compare_graphs(g1, g2, psi_agree(n, partitions, monomials))
        assert result.mismatch.kind == "label-mismatch"
        assert result.mismatch.vertex2 == last

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

    def test_label_mismatch_witnessed(self):
        g1 = generate_graph("partition", 3, 3)
        g2 = generate_graph("monomial", 3, 3)
        result = compare_graphs(
            g1, g2, lambda v1, v2: g1.vertices[v1] == g2.vertices[v2]
        )
        assert not result.isomorphic
        assert result.mismatch.kind == "label-mismatch"
        assert result.mismatch.vertex1 == g1.root

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

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_against_brute_force(self, n):
        # the unchecked table breaks the arm axioms, so its counts are not
        # the closed form, but the row-by-row traversal must still be exact
        arms = [
            horizontal_arm(n),
            random_arm(n, 8, seed=n),
            unchecked_arm(n, [(3 * t) % (2 * n) for t in range(1, 9)]),
        ]
        for a in arms:
            expected = [
                sum(1 for lam in partitions_of_size(m)
                    if oracle_is_regular(lam.parts, n, a.value))
                for m in range(15)
            ]
            assert count_regular(n, a, 14) == expected, a

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
        with pytest.raises(RankTooSmall):
            count_regular(4.0, horizontal_arm(4.0), 3)
        with pytest.raises(RankTooSmall):
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
        with pytest.raises(ParseError):
            graph_from_json('{"model": "partition"}')

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
            lambda doc: doc.update(model=7),
            lambda doc: doc.update(depth="3"),
            lambda doc: doc.update(depth=-5),
            lambda doc: doc.update(depth=None),
            lambda doc: doc.update(depth=3.0),
            lambda doc: doc.update(arm=3),
        ],
        ids=[
            "negative-id", "duplicate-id", "id-past-end", "string-id", "int-label",
            "dst-out-of-range", "negative-src", "color-n", "negative-color",
            "two-out-edges-one-color", "root-out-of-range", "rank-too-small",
            "int-model", "string-depth", "negative-depth", "null-depth",
            "float-depth", "int-arm",
        ],
    )
    def test_malformed_graph_rejected(self, corrupt):
        doc = json.loads(export_json(generate_graph("partition", 3, 3)))
        corrupt(doc)
        with pytest.raises(ParseError):
            graph_from_json(json.dumps(doc))

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
        g = CrystalGraph(
            model='part"ition\\',
            n=3,
            depth=2,
            arm="file:arms/a b\n\"q\"",
            vertices=["[]", 'x"y\\z', "line\nbreak\ttab\x00\x1f\x7f", "λ→ü \u2028 \U0001f600"],
            edges=[(0, 1, 0), (1, 2, 2), (1, 3, 1)],
        )
        text = export_json(g)
        assert text == oracle_export_json(g)
        assert graph_from_json(text) == g

