"""A memo pinned to live trees, shared by the executors and the analyzers.

Backend selection, the lint passes and the compiled backend's twist
sequences all cache per-tree results keyed on tree identity.  This leaf
module (stdlib only, so both :mod:`repro.core` and
:mod:`repro.transform.lint` import it without a cycle) holds the one
memo they use.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Any, Optional


class TreeMemo:
    """An LRU memo whose entries live only as long as their trees.

    Every entry is keyed on the identity of its roots as well as the
    caller's key, and pinned to those roots by weak references: a hit
    needs each root to be the same live object, and a root's death
    drops its entries at once — a stream of transient specs (one per
    served query) leaves nothing behind.  At most ``cap`` entries are
    kept and, when ``max_bytes`` is set, at most that many bytes as
    declared by each :meth:`put`; the least recently used go first.  An
    entry larger than ``max_bytes`` on its own, or whose roots cannot be
    weakly referenced, is not memoized.  One lock serializes every
    operation, so the thread engine's tasks may share a memo.
    """

    def __init__(self, cap: int = 64, max_bytes: Optional[int] = None) -> None:
        if cap < 1 or (max_bytes is not None and max_bytes < 1):
            raise ValueError("TreeMemo needs cap >= 1 and max_bytes >= 1")
        self.cap = cap
        self.max_bytes = max_bytes
        #: Declared bytes of the live entries.
        self.nbytes = 0
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()
        # Re-entrant: a root dying mid-operation runs ``drop`` at once.
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Any, roots: tuple) -> Any:
        """The value memoized under ``key`` for these live roots, or None."""
        full = (key, *map(id, roots))
        with self._lock:
            entry = self._entries.get(full)
            if entry is None:
                return None
            refs, value, _nbytes = entry
            if any(ref() is not root for ref, root in zip(refs, roots)):
                return None
            self._entries.move_to_end(full)
            return value

    def put(self, key: Any, roots: tuple, value: Any, nbytes: int = 0) -> None:
        """Memoize ``value`` under ``key`` until a root dies or it ages out."""
        full = (key, *map(id, roots))

        def drop(dead: weakref.ref) -> None:
            with self._lock:
                entry = self._entries.get(full)
                if entry is not None and any(ref is dead for ref in entry[0]):
                    self._pop(full)

        with self._lock:
            self._pop(full)
            if self.max_bytes is not None and nbytes > self.max_bytes:
                return
            try:
                refs = tuple(weakref.ref(root, drop) for root in roots)
            except TypeError:
                return
            self._entries[full] = (refs, value, nbytes)
            self.nbytes += nbytes
            while len(self._entries) > self.cap or (
                self.max_bytes is not None and self.nbytes > self.max_bytes
            ):
                self._pop(next(iter(self._entries)))

    def _pop(self, full: tuple) -> None:
        entry = self._entries.pop(full, None)
        if entry is not None:
            self.nbytes -= entry[2]

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()
            self.nbytes = 0
