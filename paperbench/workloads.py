"""The four benchmark workloads: input generation, set-up, simulation
and output checks.

Every workload follows the same three steps, which ``run.py`` times
separately:

``setup(seed)``
    generate the inputs from the seed and build every cluster the
    workload uses (host set-up time);
``cells(state)``
    one callable per cell, each running that cell's simulation to the
    end and draining its background work (host simulate time, taken
    per cell);
``finish(state)``
    read the simulated results, run the output checks and gather the
    per-layer counters (not timed).

The program receives only generated inputs: request schedules, file
placements and file sizes are drawn here from ``numpy`` generators
seeded by the workload seed, and handed to the simulator as plain
values.
"""

from __future__ import annotations

import heapq
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Tuple

import numpy as np

from repro.cache import CacheConfig
from repro.cluster.cluster import build_cluster
from repro.config import trojans_cluster
from repro.units import KB, KiB, MB
from repro.workloads.andrew import AndrewBenchmark, AndrewConfig
from repro.workloads.parallel_io import ParallelIOWorkload


@dataclass
class Outcome:
    """What one simulated round produced (everything but host times)."""

    attempted: int
    failed: int
    #: Simulated latency of every logical request that completed (s).
    latencies: List[float]
    #: Simulated time spanned, summed over cells (s).
    sim_s: float
    #: Logical bytes written through ``StorageSystem.submit``, summed
    #: over cells, including untimed preparation writes.
    logical_written: float
    clusters: list
    #: (check name, passed, detail) for every output check.
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    file_systems: list = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


class _Done:
    """Completion callback: one request's simulated latency."""

    __slots__ = ("rec", "start")

    def __init__(self, rec: "SubmitRecorder", start: float) -> None:
        self.rec = rec
        self.start = start

    def __call__(self, event) -> None:
        rec = self.rec
        if event.ok:
            rec.latencies.append(rec.env.now - self.start)
        else:
            rec.failed += 1


class SubmitRecorder:
    """Times every logical request a storage system accepts.

    Replaces ``storage.submit`` on the instance with a wrapper that
    hangs a completion callback on the returned event, so latency runs
    from ``StorageSystem.submit`` to completion whichever path (fast
    or event-driven) served the request.  Requests are counted only
    while ``on`` is set, which keeps untimed preparation out.
    """

    def __init__(self, storage) -> None:
        self.env = storage.env
        self.on = False
        self.attempted = 0
        self.failed = 0
        self.latencies: List[float] = []
        self.nbytes = {"read": 0, "write": 0}
        inner = storage.submit

        def submit(client, op, offset, nbytes):
            ev = inner(client, op, offset, nbytes)
            if self.on:
                self.attempted += 1
                self.nbytes[op] += nbytes
                ev.callbacks.append(_Done(self, self.env.now))
            return ev

        storage.submit = submit


def _drain(cluster) -> None:
    env = cluster.env
    env.run(env.process(cluster.storage.drain()))


def _disk_sum(cluster, attr: str) -> float:
    return sum(getattr(d.stats, attr) for d in cluster.all_disks())


# -- fig5 ---------------------------------------------------------------------

FIG5_ARCHS = ("nfs", "raid5", "raid10", "raidx")
FIG5_CLIENTS = (1, 2, 4, 8, 12)
#: op name -> (read/write, request size, repeats): the paper's Fig. 5
#: panels (2 MB private files; one 32 KB block, reads averaged over 8).
FIG5_OPS = {
    "large_read": ("read", 2 * MB, 1),
    "large_write": ("write", 2 * MB, 1),
    "small_read": ("read", 32 * KiB, 8),
    "small_write": ("write", 32 * KiB, 1),
}
FIG5_NODES = 12
#: Private files sit this far apart, which leaves room for the seeded
#: placement shift below on top of the 2 MB file.
FIG5_FILE_SPACING = 40 * MB
#: Each client's file moves by a seeded number of placement periods,
#: up to this many.
FIG5_MAX_SHIFT = 8


def fig5_period(n: int) -> int:
    """Blocks after which every layout's block-to-disk map repeats:
    n(n-1) is a multiple of the RAID-0/10 row (n), the RAID-5 parity
    rotation (n stripes of n-1 data blocks) and the RAID-x mirror
    rotation (n(n-1) for k = 1).  Shifting a file by whole periods
    keeps which disk serves each block and changes only where on the
    disk it lies, so the seed moves seek distances, not the array's
    load balance."""
    return n * (n - 1)


class _ShiftedParallelIO(ParallelIOWorkload):
    """The Fig. 5 workload with seeded per-client file placement."""

    def __init__(self, cluster, clients, shift_blocks, recorder, **kw):
        self.shift_blocks = shift_blocks
        self.recorder = recorder
        super().__init__(cluster, clients, **kw)

    def file_offset(self, client: int) -> int:
        bs = self.cluster.storage.block_size
        return super().file_offset(client) + self.shift_blocks[client] * bs

    def client_body(self, client: int):
        self.recorder.on = True
        yield from super().client_body(client)


@dataclass
class Fig5Cell:
    op: str
    arch: str
    clients: int
    cluster: object
    recorder: SubmitRecorder
    workload: _ShiftedParallelIO
    bandwidth_mb_s: float = 0.0


def fig5_setup(seed: int) -> List[Fig5Cell]:
    rng = np.random.default_rng(seed)
    period = fig5_period(FIG5_NODES)
    shifts = (rng.integers(0, FIG5_MAX_SHIFT, FIG5_NODES) * period).tolist()
    cells = []
    for op, (kind, size, repeats) in FIG5_OPS.items():
        for arch in FIG5_ARCHS:
            for clients in FIG5_CLIENTS:
                cluster = build_cluster(
                    trojans_cluster(n=FIG5_NODES), architecture=arch
                )
                rec = SubmitRecorder(cluster.storage)
                wl = _ShiftedParallelIO(
                    cluster, clients, shifts, rec, op=kind, size=size,
                    repeats=repeats, file_spacing=FIG5_FILE_SPACING,
                )
                cells.append(Fig5Cell(op, arch, clients, cluster, rec, wl))
    return cells


def _fig5_run(cell: Fig5Cell) -> None:
    cell.bandwidth_mb_s = cell.workload.run().aggregate_bandwidth_mb_s
    _drain(cell.cluster)


def fig5_cells(cells: List[Fig5Cell]) -> list:
    return [partial(_fig5_run, cell) for cell in cells]


def fig5_redundancy(arch: str) -> float:
    """Disk bytes written per logical byte, from the layout definitions.

    RAID-10 and RAID-x write every block twice (data plus one mirror or
    image).  NFS writes each byte once on the server's disk.  RAID-5 in
    its default (paper-faithful) mode updates parity by read-modify-
    write once per modified block: the parity write covers exactly the
    modified byte range of that block, whatever the stripe width or the
    request's alignment, so it too writes two bytes per logical byte.
    """
    return {"nfs": 1.0, "raid5": 2.0, "raid10": 2.0, "raidx": 2.0}[arch]


def fig5_ceiling_mb_s(cluster, arch: str) -> float:
    """Physical bandwidth ceiling: every disk streaming at its media
    rate for the arrays, the server's network port for NFS."""
    cfg = cluster.config
    if arch == "nfs":
        return cfg.network.link_rate / MB
    return cluster.n_disks * cfg.disk.media_rate / MB


def fig5_finish(cells: List[Fig5Cell]) -> Outcome:
    out = Outcome(0, 0, [], 0.0, 0.0, [])
    bw: Dict[Tuple[str, str, int], float] = {}
    for cell in cells:
        kind, size, repeats = FIG5_OPS[cell.op]
        rec, cluster = cell.recorder, cell.cluster
        storage = cluster.storage
        label = f"{cell.op}/{cell.arch}/{cell.clients}"
        out.attempted += rec.attempted
        out.failed += rec.failed
        out.latencies.extend(rec.latencies)
        out.sim_s += cluster.env.now
        out.logical_written += storage.bytes_written
        out.clusters.append(cluster)
        bw[(cell.op, cell.arch, cell.clients)] = cell.bandwidth_mb_s
        moved = cell.clients * size * repeats
        other = "read" if kind == "write" else "write"
        out.check(
            f"fig5 {label} logical bytes",
            rec.nbytes[kind] == moved and rec.nbytes[other] == 0,
            f"{rec.nbytes} vs {moved}",
        )
        written = _disk_sum(cluster, "bytes_written")
        want = fig5_redundancy(cell.arch) * storage.bytes_written
        out.check(
            f"fig5 {label} write redundancy",
            written == want,
            f"disk {written} vs {want}",
        )
        ceiling = fig5_ceiling_mb_s(cluster, cell.arch)
        out.check(
            f"fig5 {label} under physical ceiling",
            0 < cell.bandwidth_mb_s <= ceiling,
            f"{cell.bandwidth_mb_s:.2f} MB/s vs {ceiling:.2f}",
        )
    top = max(FIG5_CLIENTS)
    lw = {a: bw[("large_write", a, top)] for a in FIG5_ARCHS}
    out.check(
        "fig5 large write order raidx > raid10 > raid5 > nfs",
        lw["raidx"] > lw["raid10"] > lw["raid5"] > lw["nfs"],
        str({a: round(v, 2) for a, v in lw.items()}),
    )
    sw_x = bw[("small_write", "raidx", top)]
    sw_5 = bw[("small_write", "raid5", top)]
    out.check(
        "fig5 small write raidx > 2 x raid5",
        sw_x > 2 * sw_5,
        f"{sw_x:.2f} vs {sw_5:.2f}",
    )
    return out


# -- andrew -------------------------------------------------------------------

ANDREW_ARCHS = ("raid5", "raidx")
ANDREW_CLIENTS = 8


class _RecordedAndrew(AndrewBenchmark):
    """Andrew with request timing switched on once the shared source
    tree (untimed set-up inside the simulation) is in place."""

    def __init__(self, cluster, clients, config, recorder):
        super().__init__(cluster, clients, config=config)
        self.recorder = recorder

    def _build_source_tree(self):
        yield from super()._build_source_tree()
        self.recorder.on = True


@dataclass
class AndrewCell:
    arch: str
    cluster: object
    recorder: SubmitRecorder
    bench: _RecordedAndrew
    total_s: float = 0.0


#: The seed draws the Make phase's compile cost within this share of
#: the PII/400 figure.  Drawing it, rather than reshuffling file sizes
#: or placement, moves simulated timing a little without changing the
#: tree: reshuffled sizes spread the p99 latency by 10 % from seed to
#: seed, this by about 3 %.
ANDREW_COMPILE_JITTER = 0.05


def andrew_config(seed: int) -> AndrewConfig:
    """The classic source tree, with a seeded compile cost per KB."""
    base = AndrewConfig()
    scale = np.random.default_rng(seed).uniform(
        1 - ANDREW_COMPILE_JITTER, 1 + ANDREW_COMPILE_JITTER
    )
    return AndrewConfig(compile_cpu_s_per_kb=base.compile_cpu_s_per_kb * scale)


def andrew_setup(seed: int) -> List[AndrewCell]:
    config = andrew_config(seed)
    cells = []
    for arch in ANDREW_ARCHS:
        cluster = build_cluster(trojans_cluster(), architecture=arch)
        rec = SubmitRecorder(cluster.storage)
        bench = _RecordedAndrew(cluster, ANDREW_CLIENTS, config, rec)
        cells.append(AndrewCell(arch, cluster, rec, bench))
    return cells


def _andrew_run(cell: AndrewCell) -> None:
    cell.total_s = cell.bench.run().total
    _drain(cell.cluster)


def andrew_cells(cells: List[AndrewCell]) -> list:
    return [partial(_andrew_run, cell) for cell in cells]


def andrew_expected_ops(cfg: AndrewConfig, clients: int) -> Dict[str, int]:
    """File-system operations the Andrew script issues: the shared
    source tree once, then MakeDir, Copy, ScanDir, ReadAll and Make
    (compile every file, link the objects into ``app``) per client."""
    dirs, files = cfg.n_dirs, cfg.n_files
    return {
        "mkdir": (1 + dirs) * (1 + clients),
        "create": files + clients * (2 * files + 1),
        "write_file": files + clients * (2 * files + 1),
        "read_file": clients * 4 * files,
        "readdir": clients * (1 + dirs),
        "stat": clients * files,
    }


def andrew_expected_sizes(cfg: AndrewConfig, client: int) -> Dict[str, int]:
    """Path -> size of every file a client's Make phase leaves."""
    root = f"/work{client}"
    sizes: Dict[str, int] = {}
    objects = 0
    for d in range(cfg.n_dirs):
        for f in range(cfg.files_per_dir):
            i = (d * cfg.files_per_dir + f) % len(cfg.file_sizes_kb)
            src = cfg.file_sizes_kb[i] * KB
            obj = max(1, int(src * cfg.object_fraction))
            sizes[f"{root}/d{d}/f{f}.c"] = src
            sizes[f"{root}/d{d}/f{f}.o"] = obj
            objects += obj
    sizes[f"{root}/app"] = max(1, objects // 2)
    return sizes


def _stat_all(fs, node: int, paths: List[str], out: Dict[str, int]):
    for path in paths:
        st = yield from fs.stat(node, path)
        out[path] = st.size


def andrew_finish(cells: List[AndrewCell]) -> Outcome:
    out = Outcome(0, 0, [], 0.0, 0.0, [])
    totals = {}
    for cell in cells:
        rec, cluster, bench = cell.recorder, cell.cluster, cell.bench
        out.attempted += rec.attempted
        out.failed += rec.failed
        out.latencies.extend(rec.latencies)
        out.sim_s += cluster.env.now
        out.logical_written += cluster.storage.bytes_written
        out.clusters.append(cluster)
        out.file_systems.append(bench.fs)
        totals[cell.arch] = cell.total_s
        cfg = bench.config
        want_ops = andrew_expected_ops(cfg, bench.clients)
        out.check(
            f"andrew {cell.arch} fs op counts",
            bench.fs.op_counts() == want_ops,
            f"{bench.fs.op_counts()} vs {want_ops}",
        )
    # Stats charge simulated I/O: they run after every simulated figure
    # above has been read, with request timing off.
    for cell in cells:
        cell.recorder.on = False
        bench, env = cell.bench, cell.cluster.env
        bad = []
        for c in range(bench.clients):
            want = andrew_expected_sizes(bench.config, c)
            got: Dict[str, int] = {}
            env.run(env.process(_stat_all(
                bench.fs, bench.node_of_client(c), sorted(want), got
            )))
            bad += [p for p in want if got[p] != want[p]]
        out.check(
            f"andrew {cell.arch} /work trees hold the expected file sizes",
            not bad,
            f"mismatched: {bad[:4]}",
        )
    out.check(
        "andrew raidx total below raid5 total",
        totals["raidx"] < totals["raid5"],
        str({a: round(t, 3) for a, t in totals.items()}),
    )
    return out


# -- open-loop workloads ------------------------------------------------------


class _Timed:
    """Completion callback of one open-loop request."""

    __slots__ = ("run", "index")

    def __init__(self, run: "OpenLoopRun", index: int) -> None:
        self.run = run
        self.index = index

    def __call__(self, event) -> None:
        run = self.run
        if event.ok:
            run.done_at[self.index] = run.env.now
            run.completed += 1
        else:
            event.defused()
            run.failed += 1
        if run.all_done is not None and (
            run.completed + run.failed == len(run.times)
        ):
            run.all_done.succeed()


@dataclass
class OpenLoopRun:
    """A pre-generated open-loop schedule bound to one cluster.

    ``repro.workloads.openloop`` draws its schedule inside the program
    from a seed and keeps only a latency histogram; here the schedule
    is an input, and each request's completion time is kept for the
    exact percentiles and the cache replay."""

    cluster: object
    times: List[float]
    is_read: List[bool]
    blocks: List[int]
    clients: List[int]
    #: Bytes each request moves from the start of its block.
    sizes: List[int]
    done_at: List[float] = field(default_factory=list)
    completed: int = 0
    failed: int = 0
    all_done: object = None

    @property
    def env(self):
        return self.cluster.env

    def cells(self) -> list:
        return [self.simulate]

    def simulate(self) -> None:
        env = self.env
        self.done_at = [math.nan] * len(self.times)
        env.run(env.process(self._driver()))
        _drain(self.cluster)

    def _driver(self):
        env = self.env
        submit = self.cluster.storage.submit
        bs = self.cluster.storage.block_size
        times, is_read = self.times, self.is_read
        blocks, clients, sizes = self.blocks, self.clients, self.sizes
        for i in range(len(times)):
            delay = times[i] - env.now
            if delay > 0:
                yield delay
            op = "read" if is_read[i] else "write"
            ev = submit(clients[i], op, blocks[i] * bs, sizes[i])
            ev.callbacks.append(_Timed(self, i))
        if self.completed + self.failed < len(times):
            self.all_done = env.event()
            yield self.all_done

    def latencies(self) -> List[float]:
        return [
            d - t for d, t in zip(self.done_at, self.times) if d == d
        ]


def poisson_times(rng, rate: float, n: int) -> List[float]:
    return np.cumsum(rng.exponential(1.0 / rate, n)).tolist()


# -- zipf_cache ---------------------------------------------------------------

ZIPF_NODES = 12
ZIPF_REQUESTS = 40_000
ZIPF_RATE = 600.0
ZIPF_READ_FRACTION = 0.7
ZIPF_S = 1.2
#: Blocks the Zipf ranks spread over (scattered by a seeded permutation).
ZIPF_REGION_BLOCKS = 8192
ZIPF_CACHE = CacheConfig(capacity_blocks=128, destage_batch=32)
ZIPF_MIN_READ = 4 * KiB
#: Share of read lookups by which the cache may differ from the LRU
#: replay.  The cache never evicts a dirty block; it passes over it to
#: the next clean one, and which blocks are dirty depends on destage
#: completion times that the replay does not model (see README).
ZIPF_REPLAY_SLACK = 0.005


def zipf_setup(seed: int) -> OpenLoopRun:
    cluster = build_cluster(
        trojans_cluster(n=ZIPF_NODES), architecture="raidx", cache=ZIPF_CACHE
    )
    rng = np.random.default_rng(seed)
    n = ZIPF_REQUESTS
    times = poisson_times(rng, ZIPF_RATE, n)
    weights = 1.0 / np.arange(1, ZIPF_REGION_BLOCKS + 1) ** ZIPF_S
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ranks = np.searchsorted(cdf, rng.random(n), side="left")
    blocks = rng.permutation(ZIPF_REGION_BLOCKS)[ranks].tolist()
    is_read = rng.random(n) < ZIPF_READ_FRACTION
    bs = cluster.storage.block_size
    # Writes replace whole blocks (no fill before admission); reads
    # take the used part of a block, any byte count from 4 KiB up.
    sizes = np.where(
        is_read, rng.integers(ZIPF_MIN_READ, bs + 1, n), bs
    ).tolist()
    is_read = is_read.tolist()
    # Local placement: each request starts on the node that owns the
    # block's primary disk.
    layout = cluster.storage.layout
    owner = {
        b: layout.data_location(b).disk % ZIPF_NODES for b in set(blocks)
    }
    clients = [owner[b] for b in blocks]
    return OpenLoopRun(cluster, times, is_read, blocks, clients, sizes)


def lru_replay(run: OpenLoopRun, capacity: int) -> Tuple[int, int]:
    """(read hits, fills) of a plain per-node LRU cache fed each node's
    generated block stream.

    Reads and writes touch the cache when they are submitted; a read
    miss installs its block when the request completes, so a block
    read again while its fill is in flight misses again.  Writes
    install their (whole) block at once.  Every eviction takes the
    least recently used block.
    """
    caches = [OrderedDict() for _ in range(ZIPF_NODES)]
    pending: List[Tuple[float, int]] = []  # (fill time, request index)
    hits = fills = 0

    def install(cache, block) -> bool:
        if block in cache:
            cache.move_to_end(block)
            return False
        if len(cache) >= capacity:
            cache.popitem(last=False)
        cache[block] = True
        return True

    for i, t in enumerate(run.times):
        while pending and pending[0][0] <= t:
            _t, j = heapq.heappop(pending)
            fills += install(caches[run.clients[j]], run.blocks[j])
        cache = caches[run.clients[i]]
        block = run.blocks[i]
        if run.is_read[i]:
            if block in cache:
                cache.move_to_end(block)
                hits += 1
            else:
                heapq.heappush(pending, (run.done_at[i], i))
        else:
            install(cache, block)
    while pending:
        _t, j = heapq.heappop(pending)
        fills += install(caches[run.clients[j]], run.blocks[j])
    return hits, fills


def zipf_finish(run: OpenLoopRun) -> Outcome:
    cluster = run.cluster
    n = len(run.times)
    reads = sum(run.is_read)
    out = Outcome(
        attempted=n,
        failed=run.failed,
        latencies=run.latencies(),
        sim_s=cluster.env.now,
        logical_written=cluster.storage.bytes_written,
        clusters=[cluster],
    )
    caches = cluster.storage.engine.cache.caches
    hits = sum(c.stats.hits for c in caches)
    misses = sum(c.stats.misses for c in caches)
    fills = sum(c.stats.fills for c in caches)
    disk_reads = _disk_sum(cluster, "reads")
    out.check(
        "zipf completed + failed = attempted",
        run.completed + run.failed == n,
        f"{run.completed} + {run.failed} vs {n}",
    )
    out.check(
        "zipf hits + misses = block lookups",
        hits + misses == reads,
        f"{hits} + {misses} vs {reads}",
    )
    dirty = sum(c.dirty_count for c in caches)
    lost = sum(c.stats.lost for c in caches)
    out.check(
        "zipf nothing dirty or lost after drain",
        dirty == 0 and lost == 0,
        f"dirty {dirty}, lost {lost}",
    )
    out.check(
        "zipf disk reads = cache misses",
        disk_reads == misses,
        f"{disk_reads} vs {misses}",
    )
    want_hits, want_fills = lru_replay(run, ZIPF_CACHE.capacity_blocks)
    slack = ZIPF_REPLAY_SLACK * reads
    out.check(
        "zipf read hits match the LRU replay",
        abs(hits - want_hits) <= slack,
        f"{hits} vs {want_hits}",
    )
    out.check(
        "zipf cache fills match the LRU replay",
        abs(fills - want_fills) <= slack,
        f"{fills} vs {want_fills}",
    )
    return out


# -- scale128 -----------------------------------------------------------------

SCALE_NODES = 128
SCALE_REQUESTS = 6_000
SCALE_RATE = 3_000.0
SCALE_READ_FRACTION = 0.7
#: Requests land uniformly on the first 512 MB of the virtual disk.
SCALE_REGION_BYTES = 512_000_000


def scale_setup(seed: int) -> OpenLoopRun:
    cluster = build_cluster(
        trojans_cluster(n=SCALE_NODES), architecture="raidx"
    )
    rng = np.random.default_rng(seed)
    n = SCALE_REQUESTS
    bs = cluster.storage.block_size
    times = poisson_times(rng, SCALE_RATE, n)
    blocks = rng.integers(0, SCALE_REGION_BYTES // bs, n).tolist()
    is_read = (rng.random(n) < SCALE_READ_FRACTION).tolist()
    clients = [i % SCALE_NODES for i in range(n)]
    return OpenLoopRun(cluster, times, is_read, blocks, clients, [bs] * n)


def scale_finish(run: OpenLoopRun) -> Outcome:
    cluster = run.cluster
    storage = cluster.storage
    bs = storage.block_size
    n = len(run.times)
    reads = sum(run.is_read)
    out = Outcome(
        attempted=n,
        failed=run.failed,
        latencies=run.latencies(),
        sim_s=cluster.env.now,
        logical_written=storage.bytes_written,
        clusters=[cluster],
    )
    out.check(
        "scale completed = attempted",
        run.completed == n,
        f"{run.completed} vs {n}",
    )
    disk_reads = _disk_sum(cluster, "reads")
    out.check(
        "scale disk reads = read requests",
        disk_reads == reads,
        f"{disk_reads} vs {reads}",
    )
    layout = storage.layout
    written = {b for b, r in zip(run.blocks, run.is_read) if not r}
    bad = []
    for b in written:
        images = layout.redundancy_locations(b)
        if len(images) != 1 or images[0].disk == layout.data_location(b).disk:
            bad.append(b)
    out.check(
        "scale each written block has one image off its data disk",
        not bad,
        f"bad blocks {sorted(bad)[:4]}",
    )
    mirror = storage.engine.mirror
    out.check(
        "scale write-behind settled after drain",
        not mirror.queued_extents and not mirror.dirty_groups
        and storage.pending_background_flushes == 0,
        f"queued {len(mirror.queued_extents)}, "
        f"dirty groups {len(mirror.dirty_groups)}",
    )
    accounted = mirror.background_bytes + mirror.absorbed_rewrites * bs
    out.check(
        "scale image bytes + absorbed rewrites = logical bytes written",
        accounted == storage.bytes_written,
        f"{mirror.background_bytes} + {mirror.absorbed_rewrites} x {bs} "
        f"vs {storage.bytes_written}",
    )
    disk_written = _disk_sum(cluster, "bytes_written")
    out.check(
        "scale disk bytes written = data + images",
        disk_written == storage.bytes_written + mirror.background_bytes,
        f"{disk_written} vs {storage.bytes_written} + "
        f"{mirror.background_bytes}",
    )
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    cells: object
    finish: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig5", fig5_setup, fig5_cells, fig5_finish),
        Workload("andrew", andrew_setup, andrew_cells, andrew_finish),
        Workload("zipf_cache", zipf_setup, OpenLoopRun.cells, zipf_finish),
        Workload("scale128", scale_setup, OpenLoopRun.cells, scale_finish),
    )
}
