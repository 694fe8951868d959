"""Disjoint-set (union-find) data structure.

The paper's ClusterGraph (Section 3.2, Algorithm 1) merges matching objects
into clusters with the classic union-find algorithm of Tarjan [20].  This
implementation uses union by size and path compression, giving effectively
constant amortised time per operation.

Elements may be arbitrary hashable objects and are added lazily on first use.

One extension supports the incremental frontier:
:meth:`UnionFind.checkpoint` / :meth:`UnionFind.rollback` — a journal of
structural changes so a caller can apply speculative unions (the optimistic
"all unlabeled pairs match" scan) and undo them in time proportional to the
speculation, not the structure.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple


class UnionFind:
    """Union-find over arbitrary hashable elements.

    Examples:
        >>> uf = UnionFind()
        >>> uf.union("a", "b")
        'a'
        >>> uf.connected("a", "b")
        True
        >>> uf.connected("a", "c")
        False
    """

    def __init__(self, elements: Iterable[Hashable] = ()) -> None:
        self._parent: Dict[Hashable, Hashable] = {}
        self._size: Dict[Hashable, int] = {}
        self._n_components = 0
        # Journal of undoable structural changes; None when no checkpoint is
        # active.  Entries: ("add", element) or ("union", survivor, loser,
        # loser_size).
        self._journal: Optional[List[Tuple]] = None
        for element in elements:
            self.add(element)

    def add(self, element: Hashable) -> None:
        """Register ``element`` as a singleton component if unseen."""
        if element not in self._parent:
            self._parent[element] = element
            self._size[element] = 1
            self._n_components += 1
            if self._journal is not None:
                self._journal.append(("add", element))

    def __contains__(self, element: Hashable) -> bool:
        return element in self._parent

    def __len__(self) -> int:
        """Number of registered elements."""
        return len(self._parent)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._parent)

    @property
    def n_components(self) -> int:
        """Number of disjoint components among registered elements."""
        return self._n_components

    def find(self, element: Hashable) -> Hashable:
        """Return the canonical representative of ``element``'s component.

        Unseen elements are registered as singletons first.  Uses iterative
        path compression (two-pass) so deep structures never hit the
        recursion limit.
        """
        self.add(element)
        parent = self._parent
        root = element
        while parent[root] != root:
            root = parent[root]
        if self._journal is None:
            # Path compression rewrites parent pointers; while a checkpoint
            # is active we skip it so the journal stays proportional to the
            # speculative unions (union by size keeps depth logarithmic).
            while parent[element] != root:
                parent[element], element = root, parent[element]
        return root

    def union(self, a: Hashable, b: Hashable) -> Hashable:
        """Merge the components of ``a`` and ``b``; return the surviving root.

        Union by size: the root of the larger component survives, which keeps
        tree depth logarithmic even without compression.
        """
        root_a = self.find(a)
        root_b = self.find(b)
        if root_a == root_b:
            return root_a
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]
        self._n_components -= 1
        if self._journal is not None:
            self._journal.append(("union", root_a, root_b, self._size[root_b]))
        return root_a

    # ------------------------------------------------------------------
    # speculative operation (checkpoint / rollback)
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Start journaling structural changes for a later :meth:`rollback`.

        While a checkpoint is active, path compression is suspended (union by
        size alone keeps find logarithmic), so undoing costs time proportional
        to the operations performed since the checkpoint.

        Raises:
            RuntimeError: if a checkpoint is already active (the journal does
                not nest).
        """
        if self._journal is not None:
            raise RuntimeError("a checkpoint is already active")
        self._journal = []

    def rollback(self) -> None:
        """Undo every structural change since :meth:`checkpoint`.

        Raises:
            RuntimeError: if no checkpoint is active.
        """
        if self._journal is None:
            raise RuntimeError("no active checkpoint to roll back")
        journal = self._journal
        self._journal = None
        for entry in reversed(journal):
            if entry[0] == "union":
                _, survivor, loser, loser_size = entry
                self._parent[loser] = loser
                self._size[survivor] -= loser_size
                self._n_components += 1
            else:  # ("add", element)
                _, element = entry
                del self._parent[element]
                del self._size[element]
                self._n_components -= 1

    def connected(self, a: Hashable, b: Hashable) -> bool:
        """True iff ``a`` and ``b`` are in the same component."""
        return self.find(a) == self.find(b)

    def component_size(self, element: Hashable) -> int:
        """Number of elements in ``element``'s component."""
        return self._size[self.find(element)]

    def components(self) -> List[Set[Hashable]]:
        """All components as a list of sets (deterministic insertion order)."""
        by_root: Dict[Hashable, Set[Hashable]] = {}
        for element in self._parent:
            by_root.setdefault(self.find(element), set()).add(element)
        return list(by_root.values())

    def roots(self) -> Set[Hashable]:
        """The set of canonical representatives."""
        return {self.find(element) for element in self._parent}

    def copy(self) -> "UnionFind":
        """An independent copy (components are preserved)."""
        clone = UnionFind()
        clone._parent = dict(self._parent)
        clone._size = dict(self._size)
        clone._n_components = self._n_components
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UnionFind({len(self)} elements, {self.n_components} components)"
