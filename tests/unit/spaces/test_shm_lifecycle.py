"""Shared-memory segment lifecycle under service-style reuse.

The serving layer keeps one :class:`SharedPublication` alive for the
process lifetime and lets pool workers attach through a per-process
cache.  These tests pin the lifecycle invariants that make that safe:
repeated publish/attach/close cycles, finalizer cleanup when an owner
forgets to close, and idempotent closes — none may leave a
``/dev/shm`` entry behind.
"""

import gc
import os

import numpy as np
import pytest

from repro.spaces.soa import (
    SharedPublication,
    attach_shared_arrays_cached,
    clear_attach_cache,
)


def shm_entries():
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux hosts
        return set()


def sample_arrays():
    return {
        "points": np.arange(24, dtype=float).reshape(8, 3),
        "weights": np.ones(8),
    }


class TestPublicationLifecycle:
    def test_publish_arrays_close_cycle_leaks_nothing(self):
        before = shm_entries()
        for _ in range(5):
            publication = SharedPublication.publish(sample_arrays())
            views = publication.arrays()
            assert np.array_equal(views["points"], sample_arrays()["points"])
            publication.close()
            assert publication.closed
        assert shm_entries() == before

    def test_close_is_idempotent(self):
        publication = SharedPublication.publish(sample_arrays())
        publication.close()
        publication.close()
        assert publication.closed

    def test_finalizer_unlinks_on_garbage_collection(self):
        # An owner that forgets close(): dropping the last reference
        # must still unlink the segments (weakref.finalize), so a
        # crashed service cannot strand /dev/shm entries.
        before = shm_entries()
        publication = SharedPublication.publish(sample_arrays())
        assert shm_entries() != before
        del publication
        gc.collect()
        assert shm_entries() == before

    def test_context_manager_closes(self):
        before = shm_entries()
        with SharedPublication.publish(sample_arrays()) as publication:
            assert not publication.closed
        assert publication.closed
        assert shm_entries() == before

    def test_arrays_after_close_refused(self):
        publication = SharedPublication.publish(sample_arrays())
        publication.close()
        with pytest.raises(Exception):
            publication.arrays()


class TestAttachCache:
    def test_cached_attach_returns_the_same_views(self):
        clear_attach_cache()
        publication = SharedPublication.publish(sample_arrays())
        try:
            first = attach_shared_arrays_cached(publication.handles)
            second = attach_shared_arrays_cached(publication.handles)
            # Cache hit: the very same array objects, zero-copy.
            assert all(
                first[name] is second[name] for name in first
            )
            assert np.array_equal(
                first["points"], sample_arrays()["points"]
            )
        finally:
            clear_attach_cache()
            publication.close()

    def test_clear_attach_cache_detaches(self):
        before = shm_entries()
        publication = SharedPublication.publish(sample_arrays())
        attach_shared_arrays_cached(publication.handles)
        clear_attach_cache()
        publication.close()
        assert shm_entries() == before
