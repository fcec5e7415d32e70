"""Reference implementations the tests check the package against."""

from typing import Iterable

from bracketforge.config import Config, _point_line_graph


def subset_has_cycle_dfs(cfg: Config, subset: Iterable[int]) -> bool:
    """Independent cross-check of config.subset_has_cycle: a depth-first
    search of the same point-line incidence graph, which has a cycle iff the
    search meets an edge to a visited vertex other than the one it came from."""
    adj = _point_line_graph(cfg, subset)
    seen: set = set()
    for root in adj:
        if root in seen:
            continue
        seen.add(root)
        # (parent, vertex, unexplored neighbours) along the current path
        stack = [(None, root, iter(adj[root]))]
        while stack:
            parent, v, children = stack[-1]
            w = next(children, None)
            if w is None:
                stack.pop()
            elif w != parent:
                if w in seen:
                    return True
                seen.add(w)
                stack.append((v, w, iter(adj[w])))
    return False
