"""Graph routine checks against brute force and networkx."""

import random
import struct
from itertools import combinations

import numpy as np
import pytest

from bodychase.adapters import MatchingState
from bodychase.graphs import (
    GraphError,
    apply_augmenting_path,
    build_adjacency,
    global_min_cut,
    is_connected,
    kruskal_mst,
    maximum_matching,
    shortest_augmenting_path,
    two_color,
    two_color_adjacency,
)
from oracles import dict_global_min_cut, unionfind_kruskal_mst


def test_two_color_path_and_odd_cycle():
    assert two_color([], [(0, 1), (1, 2)]) == {0: 0, 1: 1, 2: 0}
    assert two_color([], [(0, 1), (1, 2), (0, 2)]) is None
    # isolated vertices get a color too
    colors = two_color([7], [(0, 1)])
    assert colors[7] == 0


def test_connectivity():
    assert is_connected([0, 1, 2], [(0, 1), (1, 2)])
    assert not is_connected([0, 1, 2], [(0, 1)])
    assert is_connected([5], [])


def test_kruskal_triangle():
    total, tree = kruskal_mst([0, 1, 2], [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
    assert total == 3.0
    assert sorted((u, v) for u, v, _ in tree) == [(0, 1), (1, 2)]
    with pytest.raises(GraphError):
        kruskal_mst([0, 1, 2], [(0, 1, 1.0)])


def brute_min_cut(vertices, edges):
    verts = sorted(vertices)
    rest = verts[1:]
    best = float("inf")
    for r in range(len(rest) + 1):
        for side_rest in combinations(rest, r):
            side = {verts[0], *side_rest}
            if len(side) == len(verts):
                continue
            value = sum(w for u, v, w in edges if (u in side) != (v in side))
            best = min(best, value)
    return best


def test_min_cut_triangle_values():
    edges = [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)]
    value, side = global_min_cut([0, 1, 2], edges)
    assert value == pytest.approx(1.0)
    assert len(side) in (1, 2)
    value0, _ = global_min_cut([0, 1, 2], [(0, 1, 0.0), (1, 2, 0.0), (0, 2, 0.0)])
    assert value0 == 0.0


def test_min_cut_matches_brute_force():
    rng = np.random.default_rng(42)
    for trial in range(40):
        n = int(rng.integers(2, 8))
        verts = list(range(n))
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.6:
                    edges.append((u, v, float(rng.uniform(0.0, 2.0))))
        if not edges:
            edges.append((0, 1, 1.0))
        value, side = global_min_cut(verts, edges)
        assert value == pytest.approx(brute_min_cut(verts, edges), abs=1e-9), trial
        # returned side must realize the value
        realized = sum(w for u, v, w in edges if (u in side) != (v in side))
        assert realized == pytest.approx(value, abs=1e-9)
        assert 0 < len(side) < n


def test_min_cut_needs_two_vertices():
    with pytest.raises(GraphError):
        global_min_cut([0], [])


def outcome(routine, vertices, edges):
    """What `routine` returns or raises, comparable bit for bit: a float as
    its bytes, so that 0.0 and -0.0 differ."""
    try:
        value, rest = routine(vertices, edges)
    except Exception as exc:  # the exception is what is compared
        return type(exc), exc.args
    return struct.pack("<d", value), rest


def random_weighted_graph(rng):
    """2 to 9 int or string vertices and up to 3n edges among them: parallel
    edges, self-loops, zero and tied weights, often disconnected."""
    n = rng.randint(2, 9)
    vertices = ["v%d" % i for i in range(n)] if rng.random() < 0.3 else list(range(n))
    rng.shuffle(vertices)
    pool = rng.sample(vertices, rng.randint(1, n))  # edges stay on these
    edges = []
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.choice(pool), rng.choice(pool)
        weight = rng.choice((0.0, 0.5, 1.0, 1.0, 2.5)) if rng.random() < 0.5 else rng.random()
        edges.append((u, v, weight))
    return vertices, edges


def test_min_cut_and_kruskal_match_their_references_bit_for_bit():
    rng = random.Random(2901)
    cuts = disconnected = 0
    for trial in range(20000):
        vertices, edges = random_weighted_graph(rng)
        fault = rng.random()
        if fault < 0.02:
            edges.append((vertices[0], vertices[-1], -0.25))
        elif fault < 0.04:
            edges.insert(rng.randint(0, len(edges)), (vertices[0], "x" if
                                                       isinstance(vertices[0], str) else 99, 1.0))
        elif fault < 0.05:
            vertices = vertices[:1]
        mine = outcome(global_min_cut, vertices, edges)
        assert mine == outcome(dict_global_min_cut, vertices, edges), trial
        cuts += isinstance(mine[0], bytes)
        mine = outcome(kruskal_mst, vertices, edges)
        assert mine == outcome(unionfind_kruskal_mst, vertices, edges), trial
        disconnected += mine[0] is GraphError
    assert cuts > 18000 and disconnected > 5000


def test_augmenting_path_truncation():
    # path a-b-c-d with (b,c) matched: shortest augmenting path has 3 edges
    adj = build_adjacency([("a", "b"), ("b", "c"), ("c", "d")])
    matching = {"b": "c", "c": "b"}
    assert shortest_augmenting_path(adj, matching, max_len=1) is None
    path = shortest_augmenting_path(adj, matching, max_len=3)
    assert path in (["a", "b", "c", "d"], ["d", "c", "b", "a"])
    apply_augmenting_path(matching, path)
    assert matching["a"] == "b" and matching["c"] == "d"


def test_maximum_matching_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(7)
    for trial in range(30):
        left = int(rng.integers(1, 7))
        right = int(rng.integers(1, 7))
        edges = []
        for u in range(left):
            for v in range(right):
                if rng.random() < 0.4:
                    edges.append((("L", u), ("R", v)))
        mine = len(maximum_matching(edges)) // 2
        G = nx.Graph()
        G.add_nodes_from({e[0] for e in edges}, bipartite=0)
        G.add_nodes_from({e[1] for e in edges}, bipartite=1)
        G.add_edges_from(edges)
        if edges:
            top = {n for n in G if n[0] == "L"}
            theirs = len(nx.bipartite.maximum_matching(G, top_nodes=top)) // 2
        else:
            theirs = 0
        assert mine == theirs, trial


def test_non_bipartite_rejected_in_search():
    adj = build_adjacency([(0, 1), (1, 2), (0, 2)])
    with pytest.raises(GraphError):
        shortest_augmenting_path(adj, {})


def random_bipartite_churn(rng, left, right, updates):
    """Live edge lists of a random insert/delete churn on a left x right pool."""
    pool = [(("L", u), ("R", v)) for u in range(left) for v in range(right)]
    live = []
    for _ in range(updates):
        dead = [e for e in pool if e not in live]
        if dead and (not live or rng.random() < 0.6):
            live.append(dead[int(rng.integers(len(dead)))])
        else:
            live.remove(live[int(rng.integers(len(live)))])
        yield sorted(live)


def test_warm_started_maximum_matching_under_churn():
    # the matching adapter keeps its maximum matching between updates and
    # repairs it where the graph changed; networkx solves every graph afresh
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(2201)
    for trial in range(8):
        state, before = MatchingState(), set()
        for edges in random_bipartite_churn(rng, 4, 5, 60):
            live = set(edges)
            for op, edge in [("insert", e) for e in live - before] + \
                    [("delete", e) for e in before - live]:
                getattr(state, op)(*edge)
            before = live
            size = state.optimum()
            kept = state.matching
            assert all(tuple(sorted((u, v))) in live and kept[v] == u for u, v in kept.items())
            assert size == len(kept) // 2 == len(maximum_matching(edges)) // 2, trial
            G = nx.Graph(edges)
            top = {v for v in G if v[0] == "L"}
            assert size == (len(nx.bipartite.maximum_matching(G, top_nodes=top)) // 2
                            if edges else 0), trial


def test_a_search_from_given_free_vertices_finds_an_augmenting_path_from_them():
    rng = np.random.default_rng(2501)
    searched = found = 0
    for edges in random_bipartite_churn(rng, 4, 4, 120):
        adj = build_adjacency(edges)
        color = two_color_adjacency(adj)
        matching = {}
        while True:
            coloured = shortest_augmenting_path(adj, matching, color=color)
            by_side = {0: [], 1: []}
            for v in adj:
                if v not in matching:
                    by_side[color[v]].append(v)
            # from all colour-0 free vertices: the default search itself
            assert shortest_augmenting_path(adj, matching, free=sorted(by_side[0])) == coloured
            for v in by_side[0] + by_side[1]:
                path = shortest_augmenting_path(adj, matching, free=[v])
                searched += 1
                if path is not None:
                    found += 1
                    assert path[0] == v and path[-1] not in matching and path[-1] != v
                    assert all(path[i + 1] in adj[path[i]] for i in range(len(path) - 1))
                    assert all(matching[path[i]] == path[i + 1] for i in range(1, len(path) - 1, 2))
                elif coloured is not None:
                    assert v not in coloured  # an end of some augmenting path has one
            if coloured is None:
                break
            apply_augmenting_path(matching, coloured)
    assert searched > 1000 and found > 300


def test_augmenting_search_with_a_given_colouring_finds_the_same_path():
    rng = np.random.default_rng(2202)
    searched = found = 0
    for edges in random_bipartite_churn(rng, 4, 4, 200):
        adj = build_adjacency(edges)
        color = two_color_adjacency(adj)
        assert color == two_color([], edges)
        matching = {}
        # augment from the empty matching to a maximum one, checking every search
        while True:
            for max_len in (1, 3, None):
                path = shortest_augmenting_path(adj, matching, max_len)
                assert shortest_augmenting_path(adj, matching, max_len, color) == path
                searched += 1
            if path is None:
                break
            found += 1
            apply_augmenting_path(matching, path)
    assert searched > 500 and found > 200
