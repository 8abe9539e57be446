"""Rooted topic taxonomy with ancestor/path queries.

A small, WordNet-shaped structure: every node has one parent (single
inheritance keeps Leacock–Chodorow well-defined), node depth is counted in
*nodes* from the root (root depth = 1, as NLTK does), and shortest paths
go through the lowest common ancestor.
"""

from __future__ import annotations

from typing import Iterator, Optional


class TaxonomyError(Exception):
    """Malformed taxonomy operation (unknown node, duplicate, cycle...)."""


class TaxonomyTree:
    """A rooted tree of topic names.

    >>> tree = TaxonomyTree("entity")
    >>> tree.add("sports", "entity")
    >>> tree.add("football", "sports")
    >>> tree.depth("football")
    3
    >>> tree.path_length("football", "sports")
    1
    """

    def __init__(self, root: str) -> None:
        if not root:
            raise TaxonomyError("root name must be non-empty")
        self.root = root
        self._parent: dict[str, Optional[str]] = {root: None}
        self._children: dict[str, list[str]] = {root: []}
        self._depth: dict[str, int] = {root: 1}
        # Tree-level memos — the one keyed store every similarity consumer
        # (MatchEngine, the context audit, LCH scoring) shares.  All three
        # are invalidated together whenever the tree gains a node.
        self._path_cache: dict[tuple[str, str], int] = {}
        self._neighborhood_cache: dict[tuple[str, int], frozenset[str]] = {}
        self._max_depth_cache: Optional[int] = None

    def __contains__(self, name: str) -> bool:
        return name in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def __iter__(self) -> Iterator[str]:
        return iter(self._parent)

    def add(self, name: str, parent: str) -> None:
        """Attach *name* under *parent*."""
        if not name:
            raise TaxonomyError("node name must be non-empty")
        if name in self._parent:
            raise TaxonomyError(f"duplicate node: {name!r}")
        if parent not in self._parent:
            raise TaxonomyError(f"unknown parent: {parent!r}")
        self._parent[name] = parent
        self._children[name] = []
        self._children[parent].append(name)
        self._depth[name] = self._depth[parent] + 1
        self._path_cache.clear()
        self._neighborhood_cache.clear()
        self._max_depth_cache = None

    def add_path(self, *names: str) -> None:
        """Attach a chain under the root, creating missing links.

        ``add_path('sports', 'football', 'la-liga')`` ensures
        root→sports→football→la-liga, adding only absent nodes (and
        verifying the parents of already-present ones).
        """
        parent = self.root
        for name in names:
            if name in self._parent:
                if self._parent[name] != parent:
                    raise TaxonomyError(
                        f"{name!r} already attached under {self._parent[name]!r}, "
                        f"not {parent!r}")
            else:
                self.add(name, parent)
            parent = name

    def parent(self, name: str) -> Optional[str]:
        """Parent of *name* (None for the root)."""
        self._require(name)
        return self._parent[name]

    def children(self, name: str) -> tuple[str, ...]:
        """Direct children of *name*."""
        self._require(name)
        return tuple(self._children[name])

    def depth(self, name: str) -> int:
        """Depth in nodes (root = 1)."""
        self._require(name)
        return self._depth[name]

    @property
    def max_depth(self) -> int:
        """Depth of the deepest node — the D in Leacock–Chodorow."""
        if self._max_depth_cache is None:
            self._max_depth_cache = max(self._depth.values())
        return self._max_depth_cache

    def ancestors(self, name: str) -> list[str]:
        """Path from *name* up to (and including) the root."""
        self._require(name)
        path = [name]
        while True:
            parent = self._parent[path[-1]]
            if parent is None:
                return path
            path.append(parent)

    def lowest_common_ancestor(self, a: str, b: str) -> str:
        """The deepest node that is an ancestor of both *a* and *b*."""
        ancestors_a = set(self.ancestors(a))
        for node in self.ancestors(b):
            if node in ancestors_a:
                return node
        raise TaxonomyError("tree is disconnected")  # unreachable by construction

    def path_length_uncached(self, a: str, b: str) -> int:
        """Path length without the memo: walk both ancestor chains per call."""
        lca = self.lowest_common_ancestor(a, b)
        return (self._depth[a] - self._depth[lca]) + (self._depth[b] - self._depth[lca])

    def path_length(self, a: str, b: str) -> int:
        """Shortest path between two nodes, counted in edges (memoised).

        Pair results are cached under an order-normalised key — the memo
        every LCH-similarity consumer shares — and invalidated whenever
        the tree grows.
        """
        key = (a, b) if a <= b else (b, a)
        cached = self._path_cache.get(key)
        if cached is None:
            cached = self.path_length_uncached(a, b)
            self._path_cache[key] = cached
        return cached

    def nodes_within(self, name: str, edges: int) -> frozenset[str]:
        """Every node at most *edges* tree edges from *name* (memoised).

        This is the set-index form of the path-length criterion:
        ``b in tree.nodes_within(a, r)`` iff ``tree.path_length(a, b) <= r``.
        The matching engine and the context audit intersect these
        neighbourhoods with topic sets instead of running nested
        per-pair path computations.
        """
        if edges < 0:
            raise TaxonomyError("edges must be non-negative")
        key = (name, edges)
        cached = self._neighborhood_cache.get(key)
        if cached is None:
            self._require(name)
            frontier = [name]
            reached = {name}
            for _ in range(edges):
                next_frontier: list[str] = []
                for node in frontier:
                    parent = self._parent[node]
                    if parent is not None and parent not in reached:
                        reached.add(parent)
                        next_frontier.append(parent)
                    for child in self._children[node]:
                        if child not in reached:
                            reached.add(child)
                            next_frontier.append(child)
                frontier = next_frontier
            cached = frozenset(reached)
            self._neighborhood_cache[key] = cached
        return cached

    def subtree(self, name: str) -> list[str]:
        """*name* plus every descendant (preorder)."""
        self._require(name)
        result = []
        stack = [name]
        while stack:
            node = stack.pop()
            result.append(node)
            stack.extend(reversed(self._children[node]))
        return result

    def _require(self, name: str) -> None:
        if name not in self._parent:
            raise TaxonomyError(f"unknown node: {name!r}")
