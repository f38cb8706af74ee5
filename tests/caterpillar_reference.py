"""The caterpillar recognizer as it was before the one-pass version.

Two breadth-first searches for a longest path over the neighbour sets: the
first from vertex 0, the second from the vertex the first ends at.  Kept
here as the reference that ``recognize_caterpillar`` must agree with,
structure for structure, including which longest path it picks.
"""

from p3conv.caterpillar import CaterpillarStructure


def two_search_caterpillar(g):
    if g.n < 2:
        raise ValueError("caterpillar recognition needs at least two vertices")
    if g.edge_count != g.n - 1:
        return None
    nbrs = [g.adj(v) for v in range(g.n)]

    def farthest(src):
        # Breadth-first: each vertex's parent (-1 if unreached), and the vertex
        # a search over ascending neighbor lists finds last, which in a tree is
        # the deepest one whose path from src is lexicographically largest.
        parent = [-1] * g.n
        parent[src] = src
        frontier = [src]
        while frontier:
            deepest = frontier
            frontier = []
            for u in deepest:
                for w in nbrs[u]:
                    if parent[w] < 0:
                        parent[w] = u
                        frontier.append(w)
        # Climb to the deepest vertices' lowest common ancestor, then walk
        # back down taking the largest label at each level.
        levels = [deepest]
        while len(levels[-1]) > 1:
            levels.append({parent[v] for v in levels[-1]})
        (last,) = levels.pop()
        while levels:
            last = max(w for w in levels.pop() if parent[w] == last)
        return last, parent

    end_a, parent = farthest(0)
    if -1 in parent:
        return None
    end_b, parent = farthest(end_a)
    path = [end_b]
    while path[-1] != end_a:
        path.append(parent[path[-1]])
    spine = tuple(path)

    # The spine sends sum(degrees) - 2(k - 1) edges off itself, each to its own
    # vertex, as g is a tree.  When that reaches all n - k other vertices, each
    # of them is a leaf: a second neighbor would also hang off the spine and
    # close a cycle.  A spine vertex of degree at most two carries no leaf.
    on_spine = set(spine)
    degrees = [len(nbrs[v]) for v in spine]
    if sum(degrees) - 2 * (len(spine) - 1) != g.n - len(spine):
        return None
    return CaterpillarStructure(
        spine=spine,
        reduced_degrees=tuple([min(d, 4) for d in degrees]),
        leaves=tuple(
            [tuple(sorted(nbrs[v] - on_spine)) if d > 2 else () for v, d in zip(spine, degrees)]
        ),
    )
