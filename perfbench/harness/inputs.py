"""Every input of every workload, generated here from the run's seed.

The benchmark never calls the program's own generators
(``repro.bench``, ``repro.spaces.points``), so no program change can
change a workload.  One seed gives one set of inputs: each input draws
from its own named stream of ``numpy.random.default_rng([seed, tag])``.

Point sets are Gaussian blobs around one fixed layout of blob centers
(:data:`CENTERS`).  The seed draws the points, queries and arrivals,
never the layout: where the blobs sit decides how much every count and
neighbor query costs, and a layout drawn per seed would make the work
of a run, not just its sample, differ from seed to seed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

#: Query kinds and their share of the serve mix.
KINDS = ("nn", "knn", "count")
MIX = (0.4, 0.2, 0.4)
KNN_K = 5
COUNT_RADIUS = 0.3


def stream(seed: int, tag: str) -> np.random.Generator:
    """The named random stream ``tag`` of ``seed``."""
    return np.random.default_rng([seed, zlib.crc32(tag.encode())])


#: The blob layout every point set is drawn around: 24 centers in the
#: unit square, the same for every seed.
CENTERS = stream(0, "layout").random((24, 2))


#: Standard deviation of each blob.
SPREAD = 0.05


def clustered(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` 2-D points from Gaussian blobs around :data:`CENTERS`.

    Dense blobs and empty space between them: the regime where
    dual-tree pruning pays (lots of base cases, lots of pruning).
    """
    assignment = rng.integers(0, len(CENTERS), size=n)
    return CENTERS[assignment] + rng.normal(0.0, SPREAD, size=(n, 2))


# ---------------------------------------------------------------------------
# batch


@dataclass(frozen=True)
class BatchSizes:
    """Sizes of the six batch jobs (the paper-shaped defaults)."""

    tj_nodes: int = 1200
    mm_n: int = 384
    mm_p: int = 8
    pc_points: int = 8192
    pc_radius: float = 0.35
    nn_points: int = 6144
    kde_points: int = 2048
    kde_bandwidth: float = 0.12
    kde_epsilon: float = 1e-3
    leaf_size: int = 8


TINY_BATCH = BatchSizes(
    tj_nodes=63, mm_n=24, pc_points=256, nn_points=192, kde_points=128
)

#: (job name, schedule) in run order.
BATCH_JOBS = (
    ("TJ-original", "original"),
    ("TJ-twist", "twist"),
    ("MM-twist", "twist"),
    ("PC-twist", "twist"),
    ("NN-original", "original"),
    ("KDE-original", "original"),
)


def batch_arrays(seed: int, sizes: BatchSizes) -> dict[str, np.ndarray]:
    """The numeric inputs of the batch jobs (TJ's trees are fixed by size)."""
    mm = stream(seed, "batch.mm")
    return {
        "mm.a": mm.random((sizes.mm_n, sizes.mm_p)),
        "mm.b": mm.random((sizes.mm_p, sizes.mm_n)),
        "pc.points": clustered(stream(seed, "batch.pc"), sizes.pc_points),
        "nn.queries": clustered(stream(seed, "batch.nn.q"), sizes.nn_points),
        "nn.references": clustered(stream(seed, "batch.nn.r"), sizes.nn_points),
        "kde.queries": clustered(stream(seed, "batch.kde.q"), sizes.kde_points),
        "kde.references": clustered(stream(seed, "batch.kde.r"), sizes.kde_points),
    }


# ---------------------------------------------------------------------------
# serve


@dataclass(frozen=True)
class ServeSizes:
    """Reference set, traffic and phases of the serve workloads."""

    references: int = 16384
    hot_set: int = 64
    hot_fraction: float = 0.7
    #: untimed open-loop requests before phase A
    warmup_requests: int = 100
    #: phase A: this many open-loop Poisson arrivals at this rate (1000
    #: samples put ten beyond the p99)
    rate_qps: float = 50.0
    open_requests: int = 1000
    #: phase B: this many requests in flight for the rest of the run's
    #: seconds, but at least this long
    window: int = 1024
    min_closed_s: float = 5.0


TINY_SERVE = ServeSizes(
    references=2048,
    hot_set=16,
    warmup_requests=10,
    open_requests=40,
    window=64,
    min_closed_s=1.0,
)


@dataclass(frozen=True)
class Query:
    """One generated query; k-NN asks for :data:`KNN_K`, count uses :data:`COUNT_RADIUS`."""

    kind: str
    point: tuple[float, float]


class QueryStream:
    """The seeded request sequence of one serve workload.

    Kinds follow the mix (:meth:`next`); each kind also has its own
    query sequence (:meth:`next_of`), so a closed loop can replace an
    answered query with one of the same kind.  ``hot=True``
    (serve-hot): a query re-asks one of the kind's hot-set queries with
    probability ``hot_fraction``, else it is fresh.  ``hot=False``
    (serve-unique): every query is fresh, so no two requests of a run
    are equal.  Fresh points come from the reference set's own blobs
    (users ask where the data is), never the reference points
    themselves.
    """

    _BLOCK = 4096

    def __init__(self, seed: int, sizes: ServeSizes, hot: bool) -> None:
        self._sizes = sizes
        self._hot = hot
        self._kind_rng = stream(seed, "serve.kinds")
        self._rngs = {kind: stream(seed, f"serve.queries.{kind}") for kind in KINDS}
        # The hot set is stratified: slot i sits in blob i mod 24 and asks
        # a fixed kind, each kind in its mix share.  The seed only moves
        # each hot point within its blob, so every seed's hot set costs
        # about the same to answer.
        counts = [round(share * sizes.hot_set) for share in MIX[:-1]]
        counts.append(sizes.hot_set - sum(counts))
        kinds = [kind for kind, count in zip(KINDS, counts) for _ in range(count)]
        kinds = [kinds[i] for i in stream(0, "layout.hot-kinds").permutation(len(kinds))]
        blobs = CENTERS[np.arange(sizes.hot_set) % len(CENTERS)]
        offsets = stream(seed, "serve.hot").normal(0.0, SPREAD, size=(sizes.hot_set, 2))
        self.hot_set = [
            Query(kind, (float(p[0]), float(p[1])))
            for kind, p in zip(kinds, blobs + offsets)
        ]
        self._hot_by_kind = {
            kind: [q for q in self.hot_set if q.kind == kind] for kind in KINDS
        }
        self._kinds: list[str] = []
        self._queries: dict[str, list[Query]] = {kind: [] for kind in KINDS}

    def next(self) -> Query:
        """The next request, its kind drawn by the mix."""
        if not self._kinds:
            drawn = self._kind_rng.choice(len(KINDS), size=self._BLOCK, p=MIX)
            self._kinds = [KINDS[k] for k in drawn[::-1]]
        return self.next_of(self._kinds.pop())

    def next_of(self, kind: str) -> Query:
        """The next request of ``kind``."""
        queue = self._queries[kind]
        if not queue:
            rng, n = self._rngs[kind], self._BLOCK
            points = clustered(rng, n)
            hot = rng.random(n) < (self._sizes.hot_fraction if self._hot else 0.0)
            picks = rng.integers(0, 1 << 30, size=n)
            pool = self._hot_by_kind[kind]
            queue.extend(
                pool[pick % len(pool)] if use_hot and pool
                else Query(kind, (float(p[0]), float(p[1])))
                for p, use_hot, pick in zip(points[::-1], hot[::-1], picks[::-1])
            )
        return queue.pop()


def serve_references(seed: int, sizes: ServeSizes) -> np.ndarray:
    """The served reference set."""
    return clustered(stream(seed, "serve.references"), sizes.references)


def poisson_offsets(seed: int, rate: float, n: int, tag: str = "serve.arrivals") -> np.ndarray:
    """Send times (seconds from phase start) of ``n`` Poisson arrivals."""
    gaps = stream(seed, tag).exponential(1.0 / rate, size=n)
    return np.cumsum(gaps)
