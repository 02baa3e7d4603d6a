"""Small deterministic graph routines shared by adapters and rounding.

Everything here is desk-scale and tie-broken by vertex label so that
runs replay bit-for-bit: BFS two-coloring, union-find connectivity,
Kruskal trees, a node-contraction global min cut, and bipartite
matching via shortest augmenting paths.
"""

from __future__ import annotations

from collections import deque

__all__ = [
    "GraphError",
    "two_color",
    "two_color_adjacency",
    "is_connected",
    "kruskal_mst",
    "global_min_cut",
    "build_adjacency",
    "shortest_augmenting_path",
    "apply_augmenting_path",
    "maximum_matching",
]


class GraphError(Exception):
    pass


def build_adjacency(edges, vertices=()):
    adj = {v: [] for v in vertices}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for v in adj:
        adj[v] = sorted(set(adj[v]))
    return adj


def two_color(vertices, edges):
    """BFS bipartition, or None when an odd cycle exists."""
    return two_color_adjacency(build_adjacency(edges, vertices))


def two_color_adjacency(adj):
    """`two_color` of the graph whose `build_adjacency` is `adj`."""
    color = {}
    for root in sorted(adj):
        if root in color:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in color:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    return color


def is_connected(vertices, edges) -> bool:
    parent = {v: v for v in vertices}
    parts = len(parent)
    if parts <= 1:
        return True
    for u, v in edges:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[max(u, v)] = min(u, v)
            parts -= 1
    return parts == 1


def kruskal_mst(vertices, edges):
    """Minimum spanning tree of (u, v, cost) edges.

    Returns (total cost, tree edges). Ties broken by (cost, u, v) for
    deterministic replay. Raises GraphError on a disconnected graph.
    The union-find is inline: path halving, roots joined toward the
    smaller label.
    """
    parent = {v: v for v in vertices}
    tree, total = [], 0.0
    for cost, u, v in sorted((c, u, v) for u, v, c in edges):
        ru, rv = u, v
        while parent[ru] != ru:
            parent[ru] = ru = parent[parent[ru]]
        while parent[rv] != rv:
            parent[rv] = rv = parent[parent[rv]]
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
            tree.append((u, v, cost))
            total += cost
    if len(tree) != len(parent) - 1:
        raise GraphError("graph is disconnected")
    return total, tree


def global_min_cut(vertices, edges):
    """Global minimum cut of a nonnegatively weighted graph.

    Deterministic maximum-adjacency contraction: each phase orders the
    remaining supervertices by total weight into the grown set (smallest
    label on ties), records the cut separating the last vertex, and
    contracts the last two. Returns (cut value, frozenset of one side).
    Vertices are positions in label order over a dense weight matrix, an
    absent edge weighing +0.0, which adds nothing to a nonnegative sum.
    """
    verts = sorted(set(vertices))
    n = len(verts)
    if n < 2:
        raise GraphError("min cut needs at least two vertices")
    pos = {v: i for i, v in enumerate(verts)}
    w = [[0.0] * n for _ in range(n)]
    for u, v, weight in edges:
        if u == v:
            continue
        if weight < 0:
            raise GraphError("negative edge weight")
        i, j = pos[u], pos[v]
        w[i][j] += weight
        w[j][i] += weight
    groups = [[v] for v in verts]
    active = list(range(n))
    best_value, best_side = float("inf"), None
    while len(active) > 1:
        wsum = w[active[0]][:]
        rest = active[1:]
        s = active[0]
        while len(rest) > 1:
            # the next pick s: the first strict maximum, so ties go to the smallest label
            s, top = rest[0], wsum[rest[0]]
            for p in rest:
                if wsum[p] > top:
                    s, top = p, wsum[p]
            rest.remove(s)
            row = w[s]
            for p in rest:
                wsum[p] += row[p]
        t = rest[0]  # the last pick, whose sum is the phase's cut
        if best_side is None or wsum[t] < best_value:
            best_value, best_side = wsum[t], groups[t]
        ws, wt = w[s], w[t]
        active.remove(t)
        for p in active:
            if p != s:
                ws[p] = w[p][s] = ws[p] + wt[p]
        groups[s].extend(groups[t])
    return best_value, frozenset(best_side)


def shortest_augmenting_path(adj, matching, max_len=None, color=None, free=None):
    """Shortest augmenting path in a bipartite graph, or None.

    adj maps vertex -> its neighbors, iterated in a fixed order; matching
    maps both endpoints of each matched edge to each other. Paths longer
    than max_len edges are not reported. Layered BFS from the vertices of
    `free`, which must be free vertices of adj on one side of the graph;
    by default from every free vertex of colour 0 in `color`, the graph's
    `two_color_adjacency(adj)` (computed if omitted).
    """
    if free is None:
        color = two_color_adjacency(adj) if color is None else color
        if color is None:
            raise GraphError("augmenting search requires a bipartite graph")
        free = sorted(v for v in adj if color[v] == 0 and v not in matching)
    parent = dict.fromkeys(free)
    queue = deque((v, 0) for v in free)
    while queue:
        u, depth = queue.popleft()
        if max_len is not None and depth + 1 > max_len:
            continue
        for v in adj[u]:
            if v in parent:
                continue
            parent[v] = u
            if v not in matching:
                path = [v]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            mate = matching[v]
            if mate not in parent:
                parent[mate] = v
                queue.append((mate, depth + 2))
    return None


def apply_augmenting_path(matching, path):
    """Flip matched and unmatched edges along an augmenting path in place."""
    if len(path) % 2 != 0:
        raise GraphError("augmenting path must have odd edge count")
    for v in path:
        mate = matching.pop(v, None)
        if mate is not None:
            matching.pop(mate, None)
    for i in range(0, len(path) - 1, 2):
        matching[path[i]] = path[i + 1]
        matching[path[i + 1]] = path[i]


def maximum_matching(edges, vertices=()):
    """Maximum bipartite matching as a symmetric partner map."""
    adj = build_adjacency(edges, vertices)
    color, matching = two_color_adjacency(adj), {}
    while True:
        path = shortest_augmenting_path(adj, matching, color=color)
        if path is None:
            return matching
        apply_augmenting_path(matching, path)
