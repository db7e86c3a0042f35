"""Per-layer metrics of a traced round.

Two sources, both outside the program:

* host self time per layer, from a ``cProfile`` profile of the round:
  each function's own time (``tottime``) is charged to the layer whose
  source file defines it;
* counts, from the program's public counters (``DiskStats``,
  :func:`repro.obs.load.collect_load`, the engine, cache, CDD and
  transport stats, ``FileSystem.op_counts``,
  ``Environment.processed_events``) and from call counters that
  :class:`EntryCounters` installs on a few public entry points for the
  length of a traced round.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

from repro.fs.blockdev import BlockDevice
from repro.obs.load import (
    CACHE_DIRTY_HW,
    collect_load,
    disk_utilizations,
)
from repro.obs.metrics import MetricsRegistry
from repro.raid.planners import Planner
from repro.sim.shared import BandwidthLink, SharedChannel

#: Source path (relative to the ``repro`` package) -> layer.  The
#: longest matching prefix wins.
LAYER_OF_PATH = {
    "sim/core.py": "sim",
    "sim/events.py": "sim",
    "sim/resources.py": "sim",
    "sim/sync.py": "sim",
    "sim/shared.py": "sim.shared",
    "hardware/disk.py": "hardware.disk",
    "io/": "hardware.disk",
    "hardware/node.py": "hardware.node",
    "hardware/network.py": "hardware.network",
    "hardware/nic.py": "hardware.network",
    "cluster/transport.py": "cluster.transport",
    "cluster/cdd.py": "cluster.cdd",
    "cluster/engine.py": "cluster.engine",
    "cluster/systems.py": "cluster.systems",
    "cluster/cache_stage.py": "cluster.cache_stage",
    "cache/": "cache",
    "raid/": "raid",
    "fs/": "fs",
    "workloads/": "workloads",
}
SELF_LAYERS = sorted(set(LAYER_OF_PATH.values()))

#: (class, method) -> counter name, for entry points whose call count
#: no public counter keeps.
ENTRY_POINTS = (
    (BandwidthLink, "transfer", "sim.shared.transfers"),
    (SharedChannel, "transfer", "sim.shared.transfers"),
    (Planner, "plan", "raid.plans"),
    (BlockDevice, "read_block", "fs.block_ops"),
    (BlockDevice, "write_block", "fs.block_ops"),
)


def layer_of(filename: str, package_root: str) -> str | None:
    rel = os.path.relpath(filename, package_root).replace(os.sep, "/")
    best = None
    for prefix, layer in LAYER_OF_PATH.items():
        if rel.startswith(prefix) and (best is None or len(prefix) > best[0]):
            best = (len(prefix), layer)
    return best[1] if best else None


def self_times(
    stats: dict, package_root: str
) -> Tuple[Dict[str, float], float]:
    """({layer: self seconds}, geometry seconds) from ``pstats`` data.

    Geometry time is the inclusive time of the layouts' lazily built
    placement tables (``_build_*`` in ``repro.raid``)."""
    out = {layer: 0.0 for layer in SELF_LAYERS}
    geometry = 0.0
    for (filename, _line, func), (_cc, _nc, tt, ct, _callers) in stats.items():
        layer = layer_of(filename, package_root)
        if layer is None:
            continue
        out[layer] += tt
        if layer == "raid" and func.startswith("_build"):
            geometry += ct
    return out, geometry


class EntryCounters:
    """Counts calls to :data:`ENTRY_POINTS` while installed."""

    def __init__(self) -> None:
        self.counts = {name: 0 for _cls, _meth, name in ENTRY_POINTS}
        self._saved: List[tuple] = []

    def _wrap(self, fn, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def __enter__(self) -> "EntryCounters":
        for cls, meth, name in ENTRY_POINTS:
            fn = cls.__dict__[meth]
            self._saved.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(fn, name))
        return self

    def __exit__(self, *exc) -> None:
        for cls, meth, fn in reversed(self._saved):
            setattr(cls, meth, fn)
        self._saved.clear()


def _total(reg: MetricsRegistry, prefix: str, suffix: str) -> float:
    return sum(
        reg.counter(n).value
        for n in reg.counter_names()
        if n.startswith(prefix) and n.endswith(suffix)
    )


def _largest(reg: MetricsRegistry, prefix: str, suffix: str) -> float:
    return max(
        (
            reg.counter(n).value
            for n in reg.counter_names()
            if n.startswith(prefix) and n.endswith(suffix)
        ),
        default=0.0,
    )


def counters(outcome, calls: Dict[str, int]) -> Dict[str, float]:
    """Count metrics of one round, summed over the round's clusters."""
    reg = MetricsRegistry()
    for cluster in outcome.clusters:
        collect_load(cluster, reg)
    disks = [d for c in outcome.clusters for d in c.all_disks()]
    ops = sum(d.stats.total_ops for d in disks)
    events = sum(c.env.processed_events for c in outcome.clusters)
    engines = [
        c.storage.engine
        for c in outcome.clusters
        if getattr(c.storage, "engine", None) is not None
    ]
    fast = reg.counter("load.fast_submits").value
    phase = reg.counter("load.phase_submits").value
    hits = _total(reg, "load.node", ".cache.hits")
    misses = _total(reg, "load.node", ".cache.misses")
    dirty_hw = (
        reg.histogram(CACHE_DIRTY_HW).max
        if CACHE_DIRTY_HW in reg.histogram_names()
        else 0.0
    )
    stats = [c.transport.stats for c in outcome.clusters]
    return {
        "sim.events": events,
        "sim.events_per_req": events / max(1, outcome.attempted),
        "sim.shared.transfers": calls["sim.shared.transfers"],
        "hardware.disk.ops": ops,
        "hardware.disk.busy_s": sum(d.stats.busy_time for d in disks),
        "hardware.disk.util_max": max(
            disk_utilizations(reg).values(), default=0.0
        ),
        "hardware.disk.seq_ratio": (
            sum(d.stats.sequential_hits for d in disks) / max(1, ops)
        ),
        "hardware.disk.write_amp": (
            sum(d.stats.bytes_written for d in disks)
            / max(1.0, outcome.logical_written)
        ),
        "hardware.node.cpu_busy_s": _total(reg, "load.node", ".cpu_busy_s"),
        "hardware.node.scsi_busy_s": _total(reg, "load.node", ".scsi_busy_s"),
        "hardware.network.bytes": _total(reg, "load.nic", ".tx_bytes"),
        "hardware.network.tx_busy_max_s": _largest(
            reg, "load.nic", ".tx_busy_s"
        ),
        "cluster.transport.remote_ops": sum(s.remote_block_ops for s in stats),
        "cluster.transport.local_ops": sum(s.local_block_ops for s in stats),
        "cluster.cdd.calls": sum(
            cdd.issued_ops for c in outcome.clusters for cdd in c.cdds
        ),
        "cluster.engine.fast_submits": fast,
        "cluster.engine.phase_submits": phase,
        "cluster.engine.fast_fraction": fast / max(1.0, fast + phase),
        "cluster.engine.mirror_coalesced": sum(
            e.mirror.coalesced_extents for e in engines
        ),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / max(1.0, hits + misses),
        "cache.fast_hits": reg.counter("load.fast_hits").value,
        "cache.fast_fills": reg.counter("load.fast_fills").value,
        "cache.destaged": _total(reg, "load.node", ".cache.destaged"),
        "cache.destage_batches": _total(
            reg, "load.node", ".cache.destage_batches"
        ),
        "cache.evictions": _total(reg, "load.node", ".cache.evictions"),
        "cache.dirty_hw": dirty_hw,
        "raid.plans": calls["raid.plans"],
        "fs.ops": sum(
            sum(fs.op_counts().values()) for fs in outcome.file_systems
        ),
        "fs.block_ops": calls["fs.block_ops"],
    }


#: name -> (unit, better) for every per-layer metric, in report order.
PER_LAYER = {
    "sim.events": ("count", "lower"),
    "sim.events_per_req": ("events/req", "lower"),
    "sim.self_s": ("s", "lower"),
    "sim.shared.transfers": ("count", "lower"),
    "sim.shared.self_s": ("s", "lower"),
    "hardware.disk.ops": ("count", "lower"),
    "hardware.disk.busy_s": ("s", "lower"),
    "hardware.disk.util_max": ("ratio", "lower"),
    "hardware.disk.seq_ratio": ("ratio", "higher"),
    "hardware.disk.write_amp": ("ratio", "lower"),
    "hardware.disk.self_s": ("s", "lower"),
    "hardware.node.cpu_busy_s": ("s", "lower"),
    "hardware.node.scsi_busy_s": ("s", "lower"),
    "hardware.node.self_s": ("s", "lower"),
    "hardware.network.bytes": ("B", "lower"),
    "hardware.network.tx_busy_max_s": ("s", "lower"),
    "hardware.network.self_s": ("s", "lower"),
    "cluster.transport.remote_ops": ("count", "lower"),
    "cluster.transport.local_ops": ("count", "higher"),
    "cluster.transport.self_s": ("s", "lower"),
    "cluster.cdd.calls": ("count", "lower"),
    "cluster.cdd.self_s": ("s", "lower"),
    "cluster.engine.fast_submits": ("count", "higher"),
    "cluster.engine.phase_submits": ("count", "lower"),
    "cluster.engine.fast_fraction": ("ratio", "higher"),
    "cluster.engine.mirror_coalesced": ("count", "higher"),
    "cluster.engine.self_s": ("s", "lower"),
    "cluster.systems.self_s": ("s", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.misses": ("count", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.fast_hits": ("count", "higher"),
    "cache.fast_fills": ("count", "higher"),
    "cache.destaged": ("count", "lower"),
    "cache.destage_batches": ("count", "lower"),
    "cache.evictions": ("count", "lower"),
    "cache.dirty_hw": ("count", "lower"),
    "cache.self_s": ("s", "lower"),
    "cluster.cache_stage.self_s": ("s", "lower"),
    "raid.plans": ("count", "lower"),
    "raid.geometry_s": ("s", "lower"),
    "raid.self_s": ("s", "lower"),
    "fs.ops": ("count", "lower"),
    "fs.block_ops": ("count", "lower"),
    "fs.self_s": ("s", "lower"),
    "workloads.self_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}
