"""Walk through the paper's running example (Figures 1 and 6).

Builds the four-city subdivision the paper uses to illustrate every index
structure, constructs the D-tree over it, and narrates how Algorithm 2
answers one query in each of the zones D1 / D2 / D3 of the root partition.

Run:  python examples/paper_running_example.py
"""

from repro.core.dtree import DTree
from repro.datasets.running_example import (
    named_vertices,
    running_example_subdivision,
)
from repro.geometry import Point


def main() -> None:
    subdivision = running_example_subdivision()
    subdivision.validate(samples=500)
    names = {0: "P1", 1: "P2", 2: "P3", 3: "P4"}
    print("the paper's four cities tile the unit square:")
    for region in subdivision.regions:
        ring = ", ".join(f"({v.x:g},{v.y:g})" for v in region.polygon.vertices)
        print(f"  {names[region.region_id]}: {ring}")
    print("\nnamed vertices:", {
        k: (v.x, v.y) for k, v in named_vertices().items()
    })

    tree = DTree.build(subdivision)
    root = tree.partition[tree.root]
    print(
        f"\nD-tree root: a {root.dimension}-dimensional partition of "
        f"{root.size} coordinates"
    )
    print(f"  lefthand subspace : {{{', '.join(names[i] for i in root.first_ids)}}}")
    print(f"  righthand subspace: {{{', '.join(names[i] for i in root.second_ids)}}}")
    print(f"  D1 ends at x = {root.first_bound:g} (right_lmc)")
    print(f"  D3 begins at x = {root.second_bound:g} (left_rmc)")
    for polyline in root.polylines:
        print(
            "  division: "
            + " -> ".join(f"({v.x:g},{v.y:g})" for v in polyline.vertices)
        )

    queries = {
        "D1 (exclusive left)": Point(0.2, 0.5),
        "D2 (interlocking)": Point(0.5, 0.5),
        "D3 (exclusive right)": Point(0.8, 0.5),
    }
    print("\nAlgorithm 2 on three queries:")
    for zone, p in queries.items():
        early = root.early_side_of(p)
        step = (
            f"decided by the {zone.split()[0]} comparison"
            if early is not None
            else f"ray parity = {root.ray_crossings(p)} crossings"
        )
        answer = names[tree.locate(p)]
        assert tree.locate(p) == subdivision.locate(p)
        print(f"  ({p.x:g}, {p.y:g}) in {zone:<22} -> {answer}  [{step}]")


if __name__ == "__main__":
    main()
