"""Micro-benchmarks: build time, paging time and logical query throughput
of each index structure (not a paper figure; engineering reference)."""

import random

import pytest

from repro.broadcast.params import SystemParameters
from repro.core.dtree import DTree
from repro.core.paging import PagedDTree
from repro.datasets.catalog import park_dataset, uniform_dataset
from repro.engine.trace import compiled_form
from repro.pointloc.kirkpatrick import TrianTree
from repro.pointloc.trapezoidal import TrapTree
from repro.rstar.paged import rstar_fanout
from repro.rstar.tree import RStarTree


@pytest.fixture(scope="module")
def subdivision():
    return uniform_dataset(n=150, seed=42).subdivision


@pytest.fixture(scope="module")
def query_points(subdivision):
    rng = random.Random(0)
    return [subdivision.random_point(rng) for _ in range(200)]


#: The level-synchronous D-tree build and the trap-tree's integer DAG on
#: the default set and on the paper's largest one.
BUILD_SETS = {
    "UNIFORM-150": lambda: uniform_dataset(n=150, seed=42).subdivision,
    "PARK": lambda: park_dataset().subdivision,
}


@pytest.mark.parametrize("dataset", sorted(BUILD_SETS))
def bench_build_dtree(benchmark, dataset):
    subdivision = BUILD_SETS[dataset]()
    tree = benchmark(DTree.build, subdivision)
    assert tree.node_count == len(subdivision) - 1
    assert tree.check_height_balanced()


@pytest.mark.parametrize("dataset", sorted(BUILD_SETS))
def bench_build_trap(benchmark, dataset):
    subdivision = BUILD_SETS[dataset]()
    tree = benchmark(lambda: TrapTree(subdivision, seed=0))
    assert tree.node_counts()["leaf"] > 0


def bench_build_page_compile_dtree(benchmark):
    """The D-tree's whole set-up on PARK: build, page, compile."""
    subdivision = park_dataset().subdivision
    params = SystemParameters.for_index("dtree", 256)

    def setup():
        paged = DTree.build(subdivision).page(params)
        return paged, compiled_form(paged)

    paged, (family, compiled) = benchmark(setup)
    assert family == "dtree"
    assert len(compiled.left_code) == paged.tree.node_count


def bench_build_page_compile_trap(benchmark):
    """The trap-tree's whole set-up on PARK: build, page, compile."""
    subdivision = park_dataset().subdivision
    params = SystemParameters.for_index("trap", 256)

    def setup():
        paged = TrapTree(subdivision, seed=0).page(params)
        return paged, compiled_form(paged)

    paged, (family, compiled) = benchmark(setup)
    assert family == "trap"
    assert len(compiled.kind) == len(paged.node_packet)


def bench_build_page_compile_trian(benchmark):
    """The trian-tree's whole set-up on PARK: build, page, compile."""
    subdivision = park_dataset().subdivision
    params = SystemParameters.for_index("trian", 256)

    def setup():
        paged = TrianTree(subdivision).page(params)
        return paged, compiled_form(paged)

    paged, (family, compiled) = benchmark(setup)
    assert family == "trian"
    assert len(compiled.region) == len(paged.node_packet)


def bench_build_trian(benchmark, subdivision):
    tree = benchmark.pedantic(
        lambda: TrianTree(subdivision), rounds=1, iterations=1
    )
    assert len(tree.roots) >= 1


#: R* insertion at the packet fan-out on the default set, on UNIFORM and
#: on the paper's largest set.
RSTAR_BUILD_SETS = {
    "UNIFORM-150": lambda: uniform_dataset(n=150, seed=42).subdivision,
    "UNIFORM-1000": lambda: uniform_dataset().subdivision,
    "PARK": lambda: park_dataset().subdivision,
}


@pytest.mark.parametrize("dataset", sorted(RSTAR_BUILD_SETS))
def bench_build_rstar(benchmark, dataset):
    subdivision = RSTAR_BUILD_SETS[dataset]()
    fanout = rstar_fanout(SystemParameters.for_index("rstar", 256))
    tree = benchmark(lambda: RStarTree.build(subdivision, fanout).ensure_built())
    tree.check_invariants()


@pytest.mark.parametrize("dataset", ["PARK", "UNIFORM-1000"])
def bench_build_page_compile_rstar(benchmark, dataset):
    """The R*-tree's whole set-up: insertion at the packet fan-out,
    paging (the preorder snapshot) and compile."""
    subdivision = RSTAR_BUILD_SETS[dataset]()
    params = SystemParameters.for_index("rstar", 256)

    def setup():
        paged = RStarTree.build(subdivision).page(params)
        return paged, compiled_form(paged)

    paged, (family, compiled) = benchmark(setup)
    assert family == "rstar"
    assert len(compiled.packet) == len(paged.node_packet)


#: The separated point draws of the catalog generators.
POINT_SETS = {"UNIFORM": uniform_dataset, "PARK": park_dataset}


@pytest.mark.parametrize("dataset", sorted(POINT_SETS))
def bench_build_points(benchmark, dataset):
    built = benchmark(POINT_SETS[dataset])
    assert len(built.points) == built.n


def bench_page_dtree(benchmark, subdivision):
    tree = DTree.build(subdivision)
    params = SystemParameters.for_index("dtree", 256)
    paged = benchmark(PagedDTree, tree, params)
    assert len(paged.packets) > 0


def bench_query_dtree(benchmark, subdivision, query_points):
    tree = DTree.build(subdivision)

    def run():
        return [tree.locate(p) for p in query_points]

    answers = benchmark(run)
    assert len(answers) == len(query_points)


def bench_query_paged_dtree(benchmark, subdivision, query_points):
    paged = PagedDTree(
        DTree.build(subdivision), SystemParameters.for_index("dtree", 256)
    )

    def run():
        return [paged.trace(p).region_id for p in query_points]

    answers = benchmark(run)
    assert len(answers) == len(query_points)


def bench_query_trap(benchmark, subdivision, query_points):
    tree = TrapTree(subdivision, seed=0)

    def run():
        return [tree.locate(p) for p in query_points]

    answers = benchmark(run)
    assert len(answers) == len(query_points)


def bench_oracle_brute_force(benchmark, subdivision, query_points):
    def run():
        return [subdivision.locate(p) for p in query_points]

    answers = benchmark(run)
    assert len(answers) == len(query_points)
