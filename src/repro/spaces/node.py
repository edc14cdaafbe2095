"""Index nodes: the abstract "loop indices" of recursive iteration spaces.

The nested recursion template of the paper (Figure 2) is written over
binary trees, but the paper is explicit that the tree nodes are really
*abstract positions* in a recursive iteration space — the equivalent of
loop indices.  This module defines :class:`IndexNode`, the minimal
protocol every recursion index must satisfy, and :class:`TreeNode`, the
concrete labeled node used by the synthetic kernels and the worked
examples of the paper.

The schedule executors in :mod:`repro.core` rely on exactly three pieces
of state on a node:

``children``
    The ordered child positions ("increment operations" in the loop
    analogy).  An empty tuple marks a position with no successors.

``size``
    The number of positions in the subtree rooted at this node,
    *including* the node itself.  Recursion twisting (Figure 4a) bases
    its twist-or-not decision entirely on comparing these sizes.

truncation scratch state (``trunc``, ``trunc_counter``, ``number``)
    Used only by the irregular-truncation machinery of Section 4; see
    :mod:`repro.core.truncation`.  ``number`` is the pre-order number of
    the node within its tree, and also serves as a stable integer
    identity for address mapping in :mod:`repro.memory.layout`.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence


class IndexNode:
    """A position in a recursive iteration space.

    Subclasses add domain payloads (tree data, bounding volumes, point
    sets); the schedule executors only ever touch the attributes defined
    here.  ``__slots__`` keeps node objects small so that large spaces
    (hundreds of thousands of nodes) stay cheap to allocate.
    """

    __slots__ = (
        "children",
        "size",
        "trunc",
        "trunc_counter",
        "number",
        # Per-root table of packed SoA views ({order: SoATree}), set
        # lazily by repro.spaces.soa.soa_view on roots only.  It lives
        # on the node rather than in a module-level cache because a
        # SoATree references every node of its tree: any global table
        # (even weak-keyed) would pin dead trees through its own
        # values, while here views + tree form one collectable cycle.
        "_soa_views",
        # Weak referencability lets repro.memo.TreeMemo pin cached
        # results to live roots (backend choices, lint reports, the
        # compiled backend's twist sequences) without keeping dead
        # trees alive.
        "__weakref__",
    )

    def __init__(self) -> None:
        self.children: tuple["IndexNode", ...] = ()
        self.size: int = 1
        #: Truncation flag of Figure 6(b); managed by the executors.
        self.trunc: bool = False
        #: Counter of the Section 4.3 optimization; ``-1`` = untruncated.
        self.trunc_counter: int = -1
        #: Pre-order number within the node's tree (set by builders).
        self.number: int = -1

    @property
    def is_leaf(self) -> bool:
        """True when the node has no child positions."""
        return not self.children

    def iter_preorder(self) -> Iterator["IndexNode"]:
        """Yield the subtree rooted here in depth-first pre-order.

        Implemented with an explicit stack so it works on degenerate
        (list-shaped) trees far deeper than Python's recursion limit.
        """
        stack: list[IndexNode] = [self]
        while stack:
            node = stack.pop()
            yield node
            # Reversed so children come off the stack in declared order.
            stack.extend(reversed(node.children))

    def reset_truncation_state(self) -> None:
        """Clear truncation scratch state in the whole subtree."""
        for node in self.iter_preorder():
            node.trunc = False
            node.trunc_counter = -1


class TreeNode(IndexNode):
    """A labeled binary-or-wider tree node with an optional payload.

    This is the concrete node used by the Tree Join and Matrix
    Multiplication kernels and by all unit tests.  ``label`` is any
    hashable value (the paper labels the outer tree ``A..G`` and the
    inner tree ``1..7``); ``data`` is the payload read by ``work``.
    """

    __slots__ = ("label", "data")

    def __init__(self, label: Any, data: Any = None) -> None:
        super().__init__()
        self.label = label
        self.data = data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TreeNode({self.label!r}, size={self.size})"

    @property
    def left(self) -> Optional["TreeNode"]:
        """First child or ``None`` (binary-tree convenience accessor)."""
        return self.children[0] if len(self.children) >= 1 else None  # type: ignore[return-value]

    @property
    def right(self) -> Optional["TreeNode"]:
        """Second child or ``None`` (binary-tree convenience accessor)."""
        return self.children[1] if len(self.children) >= 2 else None  # type: ignore[return-value]


def finalize_tree(root: IndexNode) -> IndexNode:
    """Compute ``size`` and pre-order ``number`` for a built tree.

    Builders call this once after linking children.  Returns ``root``
    for chaining.  One explicit-stack walk assigns pre-order numbers on
    the way down and post-order sizes on the way back up, so
    arbitrarily deep (e.g. million-node list) trees finalize without
    ``RecursionError`` and without a second full traversal.
    """
    count = 0
    # Frames: (node, False) = first visit (number it, schedule the
    # close frame below its children); (node, True) = children done
    # (their sizes are final), total the subtree size.
    stack: list[tuple[IndexNode, bool]] = [(root, False)]
    while stack:
        node, closing = stack.pop()
        if closing:
            size = 1
            for child in node.children:
                size += child.size
            node.size = size
        else:
            node.number = count
            count += 1
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node.children))
    return root


def tree_nodes(root: Optional[IndexNode]) -> list[IndexNode]:
    """All nodes of the (sub)tree rooted at ``root``, pre-order.

    Accepts ``None`` for convenience (returns an empty list), matching
    the template's use of ``null`` as the truncation sentinel.
    """
    if root is None:
        return []
    return list(root.iter_preorder())


def tree_depth(root: Optional[IndexNode]) -> int:
    """Height of the tree in nodes (0 for an empty tree)."""
    if root is None:
        return 0
    depth = 0
    frontier: Sequence[IndexNode] = [root]
    while frontier:
        depth += 1
        frontier = [child for node in frontier for child in node.children]
    return depth


def validate_index_node(node: Any) -> None:
    """Raise :class:`~repro.errors.SpecError` unless ``node`` is usable.

    The executors assume the index-node protocol; validating the roots
    up front turns attribute errors deep inside a recursion into a clear
    configuration error at spec construction time.
    """
    from repro.errors import SpecError

    from repro.spaces.soa import SoATree

    if isinstance(node, SoATree):
        raise SpecError(
            "got a structure-of-arrays tree handle (SoATree) where a "
            "linked index node was expected. SoA trees run through the "
            "soa-native executors — pass the original linked root to the "
            "spec and select backend='soa' (repro.core.soa_exec), or "
            "convert back with repro.spaces.soa.to_linked(soa)."
        )
    for attr in ("children", "size", "trunc", "trunc_counter", "number"):
        if not hasattr(node, attr):
            raise SpecError(
                f"{node!r} does not implement the index-node protocol: "
                f"missing attribute {attr!r}. Build nodes with "
                f"repro.spaces (or subclass IndexNode) and call "
                f"finalize_tree on the root."
            )
    if hasattr(node.number, "__len__"):
        # A column-valued ``number`` means someone handed us SoA-style
        # storage: the repro.memory.layout address mapping keys nodes by
        # their scalar pre-order ``number``, so array-valued numbers
        # would fail deep inside an executor instead of here.
        raise SpecError(
            f"{type(node).__name__}.number is array-valued, not a scalar "
            "pre-order number (repro.memory.layout maps addresses via "
            "node.number). This looks like SoA storage: use the "
            "soa-native executors (backend='soa') or rebuild linked "
            "nodes with repro.spaces.soa.to_linked first."
        )
