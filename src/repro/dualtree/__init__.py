"""Dual-tree n-body substrate (Curtin et al.-style, Section 6).

* :mod:`repro.dualtree.boxes` — hyperrectangle and metric-ball bounds;
* :mod:`repro.dualtree.spatial` — shared spatial-node/tree machinery;
* :mod:`repro.dualtree.kdtree` / :mod:`repro.dualtree.vptree` — tree
  builders;
* :mod:`repro.dualtree.rules` — tree-independent Score/BaseCase rule
  sets (point correlation, NN, k-NN);
* :mod:`repro.dualtree.traverser` — the lowering onto the nested
  recursion template (Score as ``truncateInner2?``);
* :mod:`repro.dualtree.algorithms` — the PC/NN/KNN/VP benchmarks as
  runnable objects;
* :mod:`repro.dualtree.batch` — padded leaf blocks and vectorized
  block distances for node-block dispatch;
* :mod:`repro.dualtree.frontier` — point-level leaf frontiers: exact
  per-point k-NN and range counts without a query tree (serve ticks);
* :mod:`repro.dualtree.brute` — brute-force oracles.

Every name in ``__all__`` resolves on first use, importing only the
module that defines it: a query server that needs the kd-tree, the
leaf blocks and the frontier never loads the rules, the traverser or
the benchmark objects (and through them :mod:`repro.core`).
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    globals(),
    {
        "repro.dualtree.algorithms": (
            "KNearestNeighbors",
            "NearestNeighbor",
            "PointCorrelation",
            "VPNearestNeighbors",
        ),
        "repro.dualtree.batch": (
            "BoundArrays",
            "LeafBlocks",
            "block_distances",
            "bound_arrays",
            "build_leaf_blocks",
            "leaf_blocks",
            "min_dists_to_tree",
            "spatial_payload",
            "spatial_soa_view",
        ),
        "repro.dualtree.boxes": ("Ball", "HRect", "point_dist"),
        "repro.dualtree.brute": (
            "brute_knn",
            "brute_nearest_neighbor",
            "brute_point_correlation",
        ),
        "repro.dualtree.kde": (
            "KdeRules",
            "KernelDensity",
            "brute_kde",
            "gaussian_kernel",
        ),
        "repro.dualtree.kdtree": ("build_kdtree",),
        "repro.dualtree.range_search": (
            "RangeSearch",
            "RangeSearchRules",
            "brute_range_search",
        ),
        "repro.dualtree.rules": (
            "DualTreeRules",
            "KNearestNeighborRules",
            "NearestNeighborRules",
            "PointCorrelationRules",
        ),
        "repro.dualtree.spatial": ("SpatialNode", "SpatialTree"),
        "repro.dualtree.traverser": ("dual_tree_footprint", "dual_tree_spec"),
        "repro.dualtree.vptree": ("build_vptree",),
    },
)
