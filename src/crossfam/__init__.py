"""crossfam: pairwise crossing and avoiding segment families in the plane.

Exact integer predicates throughout; every family a driver returns has been
verified pairwise before it is handed back.
"""

__version__ = "0.1.0"

from .crossing import (
    FamilyMode,
    RunConfig,
    SegmentFamily,
    find_avoiding_family,
    find_crossing_family,
    match_avoiding_pair,
)
from .clusters import build_clusters, find_avoiding_dense_pair
from .geom import (
    GeometricGraph,
    Orientation,
    Point,
    PointSet,
    Segment,
    convex_hull,
    general_position_check,
    line_meets_hull,
    orientation,
    segments_avoiding,
    segments_cross,
    vertex_mask,
)
from .oracle import max_family_bruteforce, verify_family
from .poset import Chain, Cmp, PairPoset, build_pair_poset, interval_chains, longest_chain
from .theory import split_pair, theory_params
from .zones import Line, ZoneLineSet, build_zone_lines
from .audit import (
    audit_zone_lines,
    hulls_disjoint,
    less_under,
    verify_zone_property,
    zone_point_count,
)

__all__ = [
    "Chain",
    "Cmp",
    "FamilyMode",
    "GeometricGraph",
    "Line",
    "Orientation",
    "PairPoset",
    "Point",
    "PointSet",
    "RunConfig",
    "Segment",
    "SegmentFamily",
    "ZoneLineSet",
    "audit_zone_lines",
    "build_clusters",
    "build_pair_poset",
    "build_zone_lines",
    "convex_hull",
    "find_avoiding_dense_pair",
    "find_avoiding_family",
    "find_crossing_family",
    "general_position_check",
    "hulls_disjoint",
    "interval_chains",
    "less_under",
    "line_meets_hull",
    "longest_chain",
    "match_avoiding_pair",
    "max_family_bruteforce",
    "orientation",
    "segments_avoiding",
    "segments_cross",
    "split_pair",
    "theory_params",
    "verify_family",
    "verify_zone_property",
    "vertex_mask",
    "zone_point_count",
]
