"""Per-layer metrics of the traced run: names, units, and how each one is
read off the spans, the ``repro.obs`` counters and the replay outcomes.

Every workload reports every name; a layer the workload bypasses reads
0, which is the "no change predicted" half of each prediction.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

from workloads.common import KINDS

#: ``repro.obs`` keys trace counters by the paged-index class.
PAGED_CLASS = {
    "dtree": "PagedDTree",
    "rstar": "PagedRStarTree",
    "trap": "PagedTrapTree",
    "trian": "PagedTrianTree",
}

PER_LAYER: List[Tuple[str, str]] = [
    ("tessellation.subdivision_s", "s"),
    *[(f"build.{k}_s", "s") for k in KINDS],
    *[(f"page.{k}_s", "s") for k in KINDS],
    *[(f"page.{k}.index_packets", "packets") for k in KINDS],
    *[(f"compile.{k}_s", "s") for k in KINDS],
    *[(f"trace.{k}_s", "s") for k in KINDS],
    *[(f"trace.{k}.index_packets", "packets") for k in KINDS],
    ("timeline_s", "s"),
    ("summary_s", "s"),
    ("fleet.chunk_gen_s", "s"),
    ("fleet.fold_s", "s"),
    ("fleet.chunks", "count"),
    ("sim.walk_s", "s"),
    ("sim.read_attempts", "count"),
    ("sim.losses", "count"),
    ("sim.retries", "count"),
    ("sim.useful_read_ratio", "ratio"),
    ("hop.walk_s", "s"),
    ("hop.hops", "count"),
    ("mobility.trajectory_gen_s", "s"),
    ("mobility.exit_bound_s", "s"),
    ("mobility.exit_bound_calls", "count"),
    ("mobility.retune_s", "s"),
    ("mobility.retunes", "count"),
    ("mobility.skip_ratio", "ratio"),
    ("mobility.retunes_per_km", "1/km"),
    ("dynamic.maintain_s", "s"),
    ("dynamic.repage_s", "s"),
    ("dynamic.recompile_s", "s"),
    ("dynamic.fallback_read_s", "s"),
    ("dynamic.client_read_s", "s"),
    ("dynamic.incremental_applies", "count"),
    ("dynamic.full_rebuilds", "count"),
    ("dynamic.refused_reads", "count"),
    ("dynamic.update_ms_mean", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.unattributed_pct", "%"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    rec,
    setups: int,
    traced: Sequence,
    references: Sequence,
    index_packets: Dict[str, int],
    overheads: Sequence[float],
    scale: float,
) -> Dict[str, float]:
    """Per-round (and, for set-up layers, per-set-up) means.

    *traced* and *references* are the traced and the untraced replay
    outcomes; *overheads* the per-pair traced-over-untraced wall-time
    excess in percent; *scale* the host-speed factor every time is
    multiplied by.
    """
    rounds = len(traced)
    self_times = rec.self_times()
    counts = rec.counts()
    s = {k: v * scale / setups for k, v in self_times["setup"].items()}
    r = {k: v * scale / rounds for k, v in self_times["round"].items()}
    n = {k: v / rounds for k, v in counts["round"].items()}
    c = {k: v / rounds for k, v in rec.collector.counters.items()}
    extra = traced[0].extra
    round_wall = scale * sum(span.duration for span in rec.roots("round"))

    m: Dict[str, float] = {"tessellation.subdivision_s": s.get("tessellation.subdivision", 0.0)}
    for k in KINDS:
        m[f"build.{k}_s"] = s.get(f"build.{k}", 0.0)
        m[f"page.{k}_s"] = s.get(f"page.{k}", 0.0)
        m[f"page.{k}.index_packets"] = index_packets.get(k, 0)
        m[f"compile.{k}_s"] = s.get(f"compile.{k}", 0.0)
        m[f"trace.{k}_s"] = r.get(f"trace.{k}", 0.0)
        m[f"trace.{k}.index_packets"] = c.get(f"trace.{PAGED_CLASS[k]}.index_packets", 0)
    m["timeline_s"] = r.get("timeline", 0.0)
    m["summary_s"] = r.get("summary", 0.0)
    m["fleet.chunk_gen_s"] = r.get("fleet.chunk_gen", 0.0) + r.get("mobility.trajectory_gen", 0.0)
    m["fleet.fold_s"] = r.get("fleet.fold", 0.0)
    m["fleet.chunks"] = n.get("fleet.chunk_gen", 0) + n.get("mobility.trajectory_gen", 0)
    m["sim.walk_s"] = r.get("sim.walk", 0.0)
    for name in ("read_attempts", "losses", "retries"):
        m[f"sim.{name}"] = c.get(f"sim.{name}", 0)
    m["sim.useful_read_ratio"] = _ratio(
        m["sim.read_attempts"] - m["sim.losses"], m["sim.read_attempts"]
    )
    m["hop.walk_s"] = r.get("hop.walk", 0.0)
    m["hop.hops"] = c.get("client.hops", 0)
    m["mobility.trajectory_gen_s"] = r.get("mobility.trajectory_gen", 0.0)
    m["mobility.exit_bound_s"] = r.get("mobility.exit_bound", 0.0)
    m["mobility.exit_bound_calls"] = n.get("mobility.exit_bound", 0)
    m["mobility.retune_s"] = r.get("mobility.evaluate", 0.0)
    m["mobility.retunes"] = c.get("mobility.retunes", 0)
    m["mobility.skip_ratio"] = _ratio(c.get("mobility.skips", 0), c.get("mobility.epochs", 0))
    m["mobility.retunes_per_km"] = extra.get("mobility.retunes_per_km", 0.0)
    m["dynamic.maintain_s"] = r.get("dynamic.maintain", 0.0)
    m["dynamic.repage_s"] = r.get("dynamic.apply", 0.0)
    m["dynamic.recompile_s"] = r.get("dynamic.recompile", 0.0)
    m["dynamic.fallback_read_s"] = r.get("dynamic.fallback_read", 0.0)
    m["dynamic.client_read_s"] = r.get("dynamic.client_read", 0.0)
    for name in ("incremental_applies", "full_rebuilds"):
        m[f"dynamic.{name}"] = extra.get(f"dynamic.{name}", 0)
    m["dynamic.refused_reads"] = traced[0].refused
    m["dynamic.update_ms_mean"] = 1000.0 * scale * _ratio(
        sum(o.extra.get("dynamic.update_s", 0.0) for o in references),
        sum(o.extra.get("dynamic.batches", 0) for o in references),
    )
    m["obs.trace_overhead_pct"] = statistics.median(overheads)
    m["obs.unattributed_pct"] = 100.0 * _ratio(r.get("round", 0.0) * rounds, round_wall)
    return m
