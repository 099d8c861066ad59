"""Two-dimensional computational geometry substrate.

This package provides, from scratch, every geometric primitive the air
indexes need: points, segments, polylines, simple polygons, axis-aligned
rectangles (MBRs), exact-ish predicates on them, convex clipping, and
ear-clipping triangulation.

All coordinates are floats.  Routines that need to match shared edges across
polygons canonicalise coordinates with :func:`repro.geometry.predicates.quantize`
so that edges produced by the same construction (e.g. a Voronoi diagram)
compare equal.
"""

from repro.geometry.point import Point, PointBatch
from repro.geometry.segment import Segment
from repro.geometry.polyline import Polyline, chain_segments
from repro.geometry.rect import Rect
from repro.geometry.polygon import Polygon
from repro.geometry.predicates import (
    EPS,
    orientation,
    on_segment,
    segments_intersect,
    segment_intersection_point,
    ray_crossings,
    quantize,
)
from repro.geometry.clipping import clip_polygon_halfplane, clip_polygon_rect
from repro.geometry.triangulate import triangulate_polygon, Triangle
from repro.geometry.kernels import (
    CompiledPolygon,
    CompiledSubdivision,
    mbrs_contain_batch,
    on_segment_batch,
    orientation_batch,
    point_coords,
    points_in_polygon,
    rect_contains_batch,
)

__all__ = [
    "Point",
    "PointBatch",
    "Segment",
    "Polyline",
    "chain_segments",
    "Rect",
    "Polygon",
    "EPS",
    "orientation",
    "on_segment",
    "segments_intersect",
    "segment_intersection_point",
    "ray_crossings",
    "quantize",
    "clip_polygon_halfplane",
    "clip_polygon_rect",
    "triangulate_polygon",
    "Triangle",
    "CompiledPolygon",
    "CompiledSubdivision",
    "mbrs_contain_batch",
    "on_segment_batch",
    "orientation_batch",
    "point_coords",
    "points_in_polygon",
    "rect_contains_batch",
]
