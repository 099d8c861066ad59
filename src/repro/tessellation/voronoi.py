"""Bounded Voronoi diagrams — the valid scopes of §5 of the paper.

The paper constructs the valid scopes of point datasets "using the Voronoi
Diagram approach": the region of a point is the set of locations for which
that point is the nearest neighbour.  scipy's qhull wrapper produces
unbounded border cells, so we use the standard mirror trick: reflecting all
sites across the four sides of the service rectangle makes every original
cell bounded and clipped exactly to the rectangle, and adjacent original
cells share whole edges with bit-identical vertices (which the D-tree's
edge-cancellation partition extraction relies on).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import Voronoi

from repro.errors import GeometryError, SubdivisionError
from repro.geometry.clipping import clip_polygon_rect, rect_halfplanes
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.predicates import EPS
from repro.geometry.rect import Rect
from repro.tessellation.subdivision import DataRegion, Subdivision


def bounded_voronoi(
    sites: Sequence[Point], service_area: Rect
) -> List[Polygon]:
    """Voronoi cell polygon of every site, clipped to the service area.

    The returned list is parallel to *sites*.  Raises
    :class:`SubdivisionError` if any site falls outside the service area or
    any cell comes out degenerate (duplicate sites).
    """
    if len(sites) < 2:
        raise SubdivisionError("Voronoi tessellation needs at least two sites")
    for p in sites:
        if not service_area.contains_point(p):
            raise SubdivisionError(f"site {p!r} outside service area")

    coords = np.array([[p.x, p.y] for p in sites], dtype=float)
    mirrored = _mirror_sites(coords, service_area)
    all_sites = np.vstack([coords, mirrored])
    vor = Voronoi(all_sites)

    # Whether each Voronoi vertex passes all four of clip_polygon_rect's
    # half-plane tests (the same expression, one array pass per side).  A
    # ring made only of such vertices comes out of the clipping unchanged.
    xs, ys = vor.vertices[:, 0], vor.vertices[:, 1]
    inside = np.ones(len(vor.vertices), dtype=bool)
    for a, b, c in rect_halfplanes(service_area):
        inside &= a * xs + b * ys + c >= -EPS
    inside_list = inside.tolist()
    vertex_x, vertex_y = xs.tolist(), ys.tolist()

    cells: List[Polygon] = []
    for i in range(len(sites)):
        region_index = vor.point_region[i]
        vertex_indices = vor.regions[region_index]
        if -1 in vertex_indices or len(vertex_indices) < 3:
            raise SubdivisionError(
                f"unbounded or degenerate Voronoi cell for site {sites[i]!r} "
                "(duplicate sites?)"
            )
        ring = [Point(vertex_x[j], vertex_y[j]) for j in vertex_indices]
        if all(inside_list[j] for j in vertex_indices):
            try:
                clipped: Optional[Polygon] = Polygon(ring)
            except GeometryError:
                clipped = None
        else:
            clipped = clip_polygon_rect(ring, service_area)
        if clipped is None:
            raise SubdivisionError(f"empty clipped cell for site {sites[i]!r}")
        cells.append(clipped)
    return cells


def voronoi_subdivision(
    sites: Sequence[Point],
    service_area: Rect,
    payload_size: int = 1024,
) -> Subdivision:
    """Subdivision whose region ids are the indices of *sites*."""
    cells = bounded_voronoi(sites, service_area)
    regions = [
        DataRegion(region_id=i, polygon=cell, payload_size=payload_size)
        for i, cell in enumerate(cells)
    ]
    return Subdivision(regions, service_area=service_area)


def _mirror_sites(coords: np.ndarray, rect: Rect) -> np.ndarray:
    """Reflections of *coords* across each side of *rect*."""
    left = coords.copy()
    left[:, 0] = 2.0 * rect.min_x - coords[:, 0]
    right = coords.copy()
    right[:, 0] = 2.0 * rect.max_x - coords[:, 0]
    down = coords.copy()
    down[:, 1] = 2.0 * rect.min_y - coords[:, 1]
    up = coords.copy()
    up[:, 1] = 2.0 * rect.max_y - coords[:, 1]
    return np.vstack([left, right, down, up])


def nearest_site(sites: Sequence[Point], p: Point) -> Tuple[int, float]:
    """Brute-force nearest neighbour (index, distance) — test oracle for the
    Voronoi construction."""
    best_idx: Optional[int] = None
    best_d2 = float("inf")
    for i, s in enumerate(sites):
        d2 = s.squared_distance_to(p)
        if d2 < best_d2:
            best_d2 = d2
            best_idx = i
    assert best_idx is not None
    return best_idx, best_d2 ** 0.5
