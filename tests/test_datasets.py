"""Unit tests for dataset generators and the §5 catalog."""

import random

import pytest

from repro.errors import ReproError, SubdivisionError
from repro.datasets.catalog import (
    _SOCAL_CLUSTERS,
    DATASET_NAMES,
    SERVICE_AREA,
    dataset_by_name,
    hospital_dataset,
    park_dataset,
    uniform_dataset,
)
from repro.datasets.generators import (
    MIN_SEPARATION_FACTOR,
    clustered_points,
    uniform_points,
)
from repro.geometry.point import Point


# -- the per-point generators, as the oracle -------------------------------------
#
# The generators test a draw against every placed point at once, on arrays.
# These are the loops they replaced: one ``Point.squared_distance_to`` call
# per placed point, in the same RNG call order.


def _far_enough(p, existing, min_sep):
    min_sep2 = min_sep * min_sep
    return all(p.squared_distance_to(q) >= min_sep2 for q in existing)


def _min_sep(area):
    return (area.width ** 2 + area.height ** 2) ** 0.5 * MIN_SEPARATION_FACTOR


def oracle_uniform_points(n, seed, area=SERVICE_AREA):
    rng = random.Random(seed)
    points = []
    attempts = 0
    while len(points) < n:
        attempts += 1
        if attempts > 100 * n:
            raise SubdivisionError(f"could not place {n} separated points")
        p = Point(
            rng.uniform(area.min_x, area.max_x), rng.uniform(area.min_y, area.max_y)
        )
        if _far_enough(p, points, _min_sep(area)):
            points.append(p)
    return points


def oracle_clustered_points(
    n, seed, cluster_centers, cluster_spread, noise_fraction=0.1, area=SERVICE_AREA
):
    """The clustered loop; also returns how many draws the separation
    test rejected."""
    rng = random.Random(seed)
    points = []
    rejected = 0
    attempts = 0
    while len(points) < n:
        attempts += 1
        if attempts > 1000 * n:
            raise SubdivisionError(f"could not place {n} separated points")
        if rng.random() < noise_fraction:
            p = Point(
                rng.uniform(area.min_x, area.max_x),
                rng.uniform(area.min_y, area.max_y),
            )
        else:
            cx, cy = cluster_centers[rng.randrange(len(cluster_centers))]
            p = Point(rng.gauss(cx, cluster_spread), rng.gauss(cy, cluster_spread))
            if not area.contains_point(p):
                continue
        if _far_enough(p, points, _min_sep(area)):
            points.append(p)
        else:
            rejected += 1
    return points, rejected


class TestUniformPoints:
    def test_count_and_bounds(self):
        pts = uniform_points(50, seed=1)
        assert len(pts) == 50
        assert all(SERVICE_AREA.contains_point(p) for p in pts)

    def test_deterministic(self):
        assert uniform_points(20, seed=3) == uniform_points(20, seed=3)

    def test_seeds_differ(self):
        assert uniform_points(20, seed=3) != uniform_points(20, seed=4)

    def test_minimum_separation(self):
        pts = uniform_points(100, seed=2)
        min_d2 = min(
            a.squared_distance_to(b)
            for i, a in enumerate(pts)
            for b in pts[i + 1 :]
        )
        assert min_d2 >= _min_sep(SERVICE_AREA) ** 2

    @pytest.mark.parametrize("seed", [0, 1, 42, 977])
    def test_matches_the_per_point_loop(self, seed):
        assert uniform_points(300, seed) == oracle_uniform_points(300, seed)


class TestClusteredPoints:
    def test_count_and_bounds(self):
        pts = clustered_points(
            60, seed=1, cluster_centers=[(0.3, 0.3)], cluster_spread=0.05
        )
        assert len(pts) == 60
        assert all(SERVICE_AREA.contains_point(p) for p in pts)

    def test_clustering_actually_clusters(self):
        pts = clustered_points(
            100,
            seed=5,
            cluster_centers=[(0.5, 0.5)],
            cluster_spread=0.03,
            noise_fraction=0.0,
        )
        center_dists = [((p.x - 0.5) ** 2 + (p.y - 0.5) ** 2) ** 0.5 for p in pts]
        assert sorted(center_dists)[len(pts) // 2] < 0.1  # median near center

    def test_needs_centers(self):
        with pytest.raises(SubdivisionError):
            clustered_points(10, seed=0, cluster_centers=[], cluster_spread=0.1)

    @pytest.mark.parametrize(
        "seed, spread, noise",
        [(0, 0.05, 0.1), (7, 0.02, 0.0), (3, 1e-4, 0.5), (5, 1e-4, 0.7)],
    )
    def test_matches_the_per_point_loop(self, seed, spread, noise):
        centers = [(0.3, 0.3), (0.7, 0.6)]
        want, rejected = oracle_clustered_points(40, seed, centers, spread, noise)
        got = clustered_points(
            40, seed, cluster_centers=centers, cluster_spread=spread,
            noise_fraction=noise,
        )
        assert got == want
        if spread < _min_sep(SERVICE_AREA):
            assert rejected > 0  # the separation test really turned draws down

    def test_attempt_budget_exhausted(self):
        # Every draw lands on the center, so only the first one is placed.
        with pytest.raises(SubdivisionError):
            clustered_points(
                5,
                seed=0,
                cluster_centers=[(0.5, 0.5)],
                cluster_spread=0.0,
                noise_fraction=0.0,
            )


class TestCatalog:
    def test_paper_cardinalities(self):
        assert uniform_dataset().n == 1000
        assert hospital_dataset().n == 185
        assert park_dataset().n == 1102

    def test_catalog_points_match_the_per_point_loop(self):
        assert uniform_dataset().points == oracle_uniform_points(1000, 42)
        for factory, n, seed, spread, noise in (
            (hospital_dataset, 185, 185, 0.05, 0.12),
            (park_dataset, 1102, 1102, 0.06, 0.10),
        ):
            want, _ = oracle_clustered_points(n, seed, _SOCAL_CLUSTERS, spread, noise)
            assert factory().points == want

    def test_by_name(self):
        for name in DATASET_NAMES:
            ds = dataset_by_name(name)
            assert ds.name == name

    def test_by_name_case_insensitive(self):
        assert dataset_by_name("uniform").name == "UNIFORM"

    def test_unknown_name(self):
        with pytest.raises(ReproError):
            dataset_by_name("CITIES")

    def test_subdivision_is_lazy_and_cached(self):
        ds = uniform_dataset(n=30, seed=2)
        assert ds._subdivision is None
        sub = ds.subdivision
        assert ds.subdivision is sub  # cached
        assert len(sub) == 30

    def test_small_dataset_subdivision_valid(self):
        ds = hospital_dataset(n=30, seed=1)
        ds.subdivision.validate(samples=300)

    def test_region_skew_of_clustered_datasets(self):
        # The property the HOSPITAL/PARK stand-ins must reproduce:
        # clustered sites => highly skewed Voronoi region areas.
        uni = uniform_dataset(n=60, seed=2).subdivision
        clu = hospital_dataset(n=60, seed=2).subdivision

        def skew(sub):
            areas = sorted(r.polygon.area for r in sub.regions)
            return areas[-1] / areas[0]

        assert skew(clu) > 2 * skew(uni)
