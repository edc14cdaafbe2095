"""Multi-level cache hierarchies: the simulated evaluation machine.

The paper's evaluation platform is a Xeon with 32 KB L1 / 256 KB L2 /
20 MB shared L3 (Section 6.1).  This module composes
:class:`~repro.memory.cache.SetAssociativeCache` levels into a
hierarchy: an access probes L1; on miss it proceeds to L2, then L3,
then memory.  Each level keeps its own local hit/miss statistics, which
is exactly what the paper's performance-counter figures report.

Because recursion twisting is *parameterless* — it tiles for every
cache level at once (Section 3.2) — reproducing its signature requires
a hierarchy, not a single cache: the claim "miss rates are improved
dramatically in *both* levels of cache" (Figure 8b) is only observable
with at least L2 and L3 modeled.

:func:`scaled_hierarchy` is the default machine, the paper's Xeon with
every level shrunk by the same factor as our scaled-down workloads (see
DESIGN.md Section 2 for the substitution argument).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import MemorySimError
from repro.memory.cache import Address, CacheStats, SetAssociativeCache


@dataclass
class LevelSpec:
    """Configuration of one cache level."""

    name: str
    capacity_lines: int
    ways: int = 8

    def build(self) -> SetAssociativeCache:
        """Instantiate the cache for this level."""
        if self.capacity_lines % self.ways != 0:
            raise MemorySimError(
                f"{self.name}: capacity_lines ({self.capacity_lines}) must "
                f"be a multiple of ways ({self.ways})"
            )
        return SetAssociativeCache(
            num_sets=self.capacity_lines // self.ways,
            ways=self.ways,
            name=self.name,
        )


class CacheHierarchy:
    """An ordered sequence of caches backed by memory.

    :meth:`access` returns the index of the level that hit (0 for the
    first level) or ``len(levels)`` when the access went all the way to
    memory.  Misses allocate the line into every level probed on the
    way down (a simple inclusive fill policy).
    """

    def __init__(self, levels: Sequence[SetAssociativeCache]) -> None:
        if not levels:
            raise MemorySimError("a hierarchy needs at least one cache level")
        self.levels = list(levels)
        #: number of accesses that reached memory (missed everywhere)
        self.memory_accesses = 0

    @property
    def memory_level(self) -> int:
        """The level index returned for accesses that reach memory."""
        return len(self.levels)

    def access(self, line: Address) -> int:
        """Access one line; return the hit level index (see class doc)."""
        for index, level in enumerate(self.levels):
            if level.access(line):
                return index
        self.memory_accesses += 1
        return self.memory_level

    def access_all(self, lines: Iterable[Address]) -> None:
        """Access a batch of lines, discarding the per-line results."""
        for line in lines:
            self.access(line)

    def stats(self) -> list[CacheStats]:
        """Per-level statistics, L1 first."""
        return [level.stats for level in self.levels]

    def stats_by_name(self) -> dict[str, CacheStats]:
        """Per-level statistics keyed by level name (``"L1"``...)."""
        return {level.name: level.stats for level in self.levels}

    def flush(self) -> None:
        """Empty every level (keeps statistics)."""
        for level in self.levels:
            level.flush()

    def reset_stats(self) -> None:
        """Zero every level's statistics and the memory counter."""
        for level in self.levels:
            level.reset_stats()
        self.memory_accesses = 0


def xeon_like_hierarchy(line_bytes: int = 64) -> CacheHierarchy:
    """The paper's evaluation machine at full size.

    32 KB L1 (8-way), 256 KB L2 (8-way), 20 MB L3 (20-way), 64-byte
    lines — i.e. 512 / 4096 / 327680 lines.  Usable, but the scaled
    machine below is what the benchmarks run on (Python traces at
    full-Xeon working-set sizes would take days; see DESIGN.md).
    """
    return CacheHierarchy(
        [
            LevelSpec("L1", 32 * 1024 // line_bytes, ways=8).build(),
            LevelSpec("L2", 256 * 1024 // line_bytes, ways=8).build(),
            LevelSpec("L3", 20 * 1024 * 1024 // line_bytes, ways=20).build(),
        ]
    )


def scaled_hierarchy() -> CacheHierarchy:
    """The default simulated machine for all experiments.

    The Xeon's L1 : L2 : L3 line-capacity ratio is 1 : 8 : 640; we keep
    the same ordering of scales at benchmark-friendly sizes:
    L1 = 32 lines, L2 = 256 lines, L3 = 4096 lines, all 8-way.  With
    one ~64-byte tree node per line, an 8K-node tree exceeds the
    simulated L3 the way the paper's 800K-node trees exceed 20 MB.
    """
    return CacheHierarchy(
        [
            LevelSpec("L1", 32, ways=8).build(),
            LevelSpec("L2", 256, ways=8).build(),
            LevelSpec("L3", 4096, ways=8).build(),
        ]
    )


def tiny_hierarchy() -> CacheHierarchy:
    """A miniature machine (L1=4, L2=16, L3=64 lines) for unit tests."""
    return CacheHierarchy(
        [
            LevelSpec("L1", 4, ways=2).build(),
            LevelSpec("L2", 16, ways=4).build(),
            LevelSpec("L3", 64, ways=8).build(),
        ]
    )
