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
  block distances for the batched executor;
* :mod:`repro.dualtree.frontier` — point-level leaf frontiers: exact
  per-point k-NN and range counts without a query tree (serve ticks);
* :mod:`repro.dualtree.brute` — brute-force oracles.
"""

from repro.dualtree.algorithms import (
    KNearestNeighbors,
    NearestNeighbor,
    PointCorrelation,
    VPNearestNeighbors,
)
from repro.dualtree.batch import (
    BoundArrays,
    LeafBlocks,
    block_distances,
    bound_arrays,
    build_leaf_blocks,
    leaf_blocks,
    min_dists_to_tree,
    spatial_payload,
    spatial_soa_view,
)
from repro.dualtree.boxes import Ball, HRect, point_dist
from repro.dualtree.brute import (
    brute_knn,
    brute_nearest_neighbor,
    brute_point_correlation,
)
from repro.dualtree.kde import KdeRules, KernelDensity, brute_kde, gaussian_kernel
from repro.dualtree.kdtree import build_kdtree
from repro.dualtree.range_search import (
    RangeSearch,
    RangeSearchRules,
    brute_range_search,
)
from repro.dualtree.rules import (
    DualTreeRules,
    KNearestNeighborRules,
    NearestNeighborRules,
    PointCorrelationRules,
)
from repro.dualtree.spatial import SpatialNode, SpatialTree
from repro.dualtree.traverser import dual_tree_footprint, dual_tree_spec
from repro.dualtree.vptree import build_vptree

__all__ = [
    "Ball",
    "BoundArrays",
    "DualTreeRules",
    "HRect",
    "LeafBlocks",
    "block_distances",
    "bound_arrays",
    "build_leaf_blocks",
    "leaf_blocks",
    "min_dists_to_tree",
    "KNearestNeighborRules",
    "KNearestNeighbors",
    "KdeRules",
    "KernelDensity",
    "NearestNeighbor",
    "brute_kde",
    "gaussian_kernel",
    "NearestNeighborRules",
    "PointCorrelation",
    "PointCorrelationRules",
    "RangeSearch",
    "RangeSearchRules",
    "SpatialNode",
    "brute_range_search",
    "SpatialTree",
    "VPNearestNeighbors",
    "brute_knn",
    "brute_nearest_neighbor",
    "brute_point_correlation",
    "build_kdtree",
    "build_vptree",
    "dual_tree_footprint",
    "dual_tree_spec",
    "point_dist",
    "spatial_payload",
    "spatial_soa_view",
]
