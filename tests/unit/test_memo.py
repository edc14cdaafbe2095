"""The tree-pinned memo shared by the selector, the analyzers and the
compiled backend's twist cache."""

import gc

import pytest

from repro.memo import TreeMemo
from repro.spaces.trees import balanced_tree


class Blob:
    """A value that declares its own size, like a pair of position arrays."""

    def __init__(self, nbytes):
        self.nbytes = nbytes


def remember(memo, key, roots, nbytes=0):
    value = Blob(nbytes)
    memo.put(key, roots, value, nbytes)
    return value


class TestHitsAndKeys:
    def test_a_hit_needs_the_same_key_and_live_roots(self):
        memo = TreeMemo()
        outer, inner = balanced_tree(7), balanced_tree(3)
        value = remember(memo, "k", (outer, inner))
        assert memo.get("k", (outer, inner)) is value
        assert memo.get("other", (outer, inner)) is None
        assert memo.get("k", (inner, outer)) is None
        assert memo.get("k", (outer, balanced_tree(3))) is None

    def test_put_replaces_and_recounts_bytes(self):
        memo = TreeMemo(max_bytes=100)
        root = balanced_tree(3)
        remember(memo, "k", (root,), 60)
        value = remember(memo, "k", (root,), 30)
        assert (len(memo), memo.nbytes) == (1, 30)
        assert memo.get("k", (root,)) is value

    def test_unreferenceable_roots_are_not_memoized(self):
        memo = TreeMemo()
        memo.put("k", (object(),), Blob(8), 8)
        assert (len(memo), memo.nbytes) == (0, 0)

    def test_clear_drops_entries_and_bytes(self):
        memo = TreeMemo()
        remember(memo, "k", (balanced_tree(3),), 8)
        memo.clear()
        assert (len(memo), memo.nbytes) == (0, 0)

    def test_bad_caps_are_refused(self):
        with pytest.raises(ValueError):
            TreeMemo(cap=0)
        with pytest.raises(ValueError):
            TreeMemo(max_bytes=0)


class TestBounds:
    def test_entry_cap_evicts_least_recent(self):
        memo = TreeMemo(cap=3)
        roots = [balanced_tree(3) for _ in range(4)]
        for index, root in enumerate(roots[:3]):
            remember(memo, index, (root,))
        memo.get(0, (roots[0],))  # 0 is now the most recent
        remember(memo, 3, (roots[3],))
        assert len(memo) == 3
        assert memo.get(1, (roots[1],)) is None
        assert all(
            memo.get(index, (roots[index],)) is not None for index in (0, 2, 3)
        )

    def test_byte_cap_evicts_least_recent(self):
        # Two entries of 15.5 KB under a 24 KB cap: the second insertion
        # evicts the first although the entry cap is far away.
        memo = TreeMemo(cap=8, max_bytes=24 * 1024)
        first, second = balanced_tree(3), balanced_tree(3)
        remember(memo, "k", (first,), 15_876)
        assert len(memo) == 1
        kept = remember(memo, "k", (second,), 15_876)
        assert (len(memo), memo.nbytes) == (1, 15_876)
        assert memo.get("k", (first,)) is None
        assert memo.get("k", (second,)) is kept

    def test_an_entry_over_the_byte_cap_is_not_kept(self):
        memo = TreeMemo(max_bytes=100)
        root = balanced_tree(3)
        remember(memo, "small", (root,), 40)
        remember(memo, "huge", (root,), 101)
        assert (len(memo), memo.nbytes) == (1, 40)
        assert memo.get("huge", (root,)) is None


class TestDeadRoots:
    def test_a_dead_root_drops_its_entries_and_bytes(self):
        memo = TreeMemo()
        outer, inner = balanced_tree(7), balanced_tree(3)
        remember(memo, "pair", (outer, inner), 32)
        remember(memo, "inner", (inner,), 8)
        del outer
        gc.collect()
        assert len(memo) == 1
        assert memo.nbytes == 8
        assert memo.get("inner", (inner,)) is not None

    def test_entries_never_keep_their_trees_alive(self):
        import weakref

        memo = TreeMemo()
        root = balanced_tree(15)
        ref = weakref.ref(root)
        memo.put("k", (root,), ("value", 1))
        del root
        gc.collect()
        assert ref() is None
        assert len(memo) == 0


class TestThreads:
    def test_concurrent_puts_and_gets_keep_the_books(self):
        """The thread engine's tasks share module memos: with more
        threads than cores and a tiny switch interval, no operation may
        fail and the byte count must equal the live entries' sizes."""
        import sys
        import threading

        memo = TreeMemo(cap=5, max_bytes=64)
        roots = [balanced_tree(3) for _ in range(12)]
        errors = []

        def churn(seed):
            try:
                for step in range(6000):
                    root = roots[(seed * 7 + step) % len(roots)]
                    if memo.get(step % 3, (root,)) is None:
                        memo.put(step % 3, (root,), step, 1 + step % 16)
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=churn, args=(seed,)) for seed in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(memo) <= memo.cap
        assert memo.nbytes == sum(entry[2] for entry in memo._entries.values())
        assert memo.nbytes <= memo.max_bytes
