"""Checks of the benchmark itself, on reduced workloads.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q paperbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import hostspeed
import layers
import run
import workloads
from repro.cache.core import BlockCache
from repro.fs.filesystem import FileSystem
from repro.hardware import node as node_mod
from repro.obs.load import collect_load
from repro.obs.metrics import MetricsRegistry

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

#: Module constants that shrink every workload to a second or two.
REDUCED = {
    "FIG5_CLIENTS": (2,),
    "ANDREW_CLIENTS": 2,
    "ZIPF_REQUESTS": 4000,
    "SCALE_REQUESTS": 600,
}


@pytest.fixture
def reduced(monkeypatch):
    for name, value in REDUCED.items():
        monkeypatch.setattr(workloads, name, value)


def _simulate(name: str, seed: int = 3):
    wl = workloads.WORKLOADS[name]
    state = wl.setup(seed)
    for cell in wl.cells(state):
        cell()
    return wl.finish(state)


def _fingerprint(outcome):
    """Everything the fast paths promise to leave unchanged: simulated
    metrics, per-disk counters, link and NIC counters, cache counters."""
    reg = MetricsRegistry()
    for cluster in outcome.clusters:
        collect_load(cluster, reg)
    links = {
        n: reg.counter(n).value
        for n in reg.counter_names()
        # The fast/phase split is what the switch changes by design.
        if not n.startswith(("load.fast_", "load.phase_", "load.ff_"))
    }
    disks = [
        dataclasses.asdict(d.stats)
        for c in outcome.clusters
        for d in c.all_disks()
    ]
    caches = [
        dataclasses.asdict(cache.stats)
        for c in outcome.clusters
        if getattr(c.storage, "engine", None) is not None
        and c.storage.engine.cache is not None
        for cache in c.storage.engine.cache.caches
    ]
    return (
        run.sim_metrics(outcome),
        outcome.attempted,
        outcome.failed,
        links,
        disks,
        caches,
    )


def _fast_submits(outcome) -> int:
    return sum(
        c.storage.engine.fast_submits
        for c in outcome.clusters
        if getattr(c.storage, "engine", None) is not None
    )


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_node_fast_forward_leaves_results_identical(
    name, reduced, monkeypatch
):
    """The node fast-forward (on by default, off under REPRO_NODE_FF=0)
    is an execution shortcut: the same simulated metrics and the same
    disk, link and cache counters come out either way."""
    fast = _simulate(name)
    monkeypatch.setattr(node_mod, "NODE_FAST_FORWARD", False)
    slow = _simulate(name)
    assert _fast_submits(slow) == 0
    assert _fingerprint(fast) == _fingerprint(slow)
    if name == "zipf_cache":
        assert _fast_submits(fast) > fast.attempted // 2


@pytest.mark.parametrize("name", ["zipf_cache", "andrew"])
def test_reference_samples_leave_results_identical(name, reduced):
    """Pausing the simulation for reference samples changes nothing it
    computes, and no sample's own time is charged to it."""
    timed = run.run_round(workloads.WORKLOADS[name], 3, traced=False)
    assert timed["sim"] == run.sim_metrics(_simulate(name))
    clock = hostspeed.SteadyClock()
    with clock:
        begun = time.perf_counter()
        while time.perf_counter() - begun < 4 * hostspeed.INTERVAL:
            pass
    # The loop's own clock runs through the samples; the clock does not.
    assert 3 * hostspeed.INTERVAL < clock.raw_wall_s < 4 * hostspeed.INTERVAL


def _slowed(cls, method: str, spins: int):
    """``cls.method`` preceded by a fixed busy loop of ``spins`` steps.

    The wrapper is compiled under the file name of the module that
    defines the method, so the profiler charges the added cost to that
    module's layer, exactly as it would a slowdown inside the layer."""
    fn = cls.__dict__[method]
    source = (
        "def make(fn, spins):\n"
        "    def slowed(*args, **kwargs):\n"
        "        for _ in range(spins):\n"
        "            pass\n"
        "        return fn(*args, **kwargs)\n"
        "    return slowed\n"
    )
    namespace = {}
    exec(compile(source, fn.__code__.co_filename, "exec"), namespace)
    return namespace["make"](fn, spins)


def _cpu_s(name: str) -> float:
    return sum(run.run_round(workloads.WORKLOADS[name], 3, False)["cpu_s"])


def _self_s(name: str, layer: str) -> float:
    wl = workloads.WORKLOADS[name]
    return run.run_round(wl, 3, traced=True)["self"][layer]


def _bound(metric: str) -> float:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == metric)


#: Plain/slowed pairs per sensitivity case.
REPEATS = 4


# The transport has no case: no workload bypasses it.  zipf_cache's
# destage image flushes go to remote disks, so a fixed extra cost per
# ``Transport.message`` raises its cpu_s about half as much as
# Andrew's (+23 % against +40 % at ~25 us a call).
@pytest.mark.parametrize(
    "cls, method, spins, layer, stressed, bypass",
    [
        (BlockCache, "lookup", 4000, "cache", "zipf_cache", "fig5"),
        (FileSystem, "read_file", 100_000, "fs", "andrew", "zipf_cache"),
    ],
)
def test_each_workload_measures_its_layer(
    cls, method, spins, layer, stressed, bypass, reduced
):
    """A fixed extra cost in one layer raises that layer's self time and
    the cpu_s of the workload that stresses it, and leaves the cpu_s of
    a workload that bypasses the layer within the benchmark's bound.

    Plain and slowed runs alternate, and each side keeps its fastest
    run: interference from other processes only ever adds time."""
    original = cls.__dict__[method]
    slowed = _slowed(cls, method, spins)
    figures = {False: [], True: []}
    try:
        for _ in range(REPEATS):
            for slow in (False, True):
                setattr(cls, method, slowed if slow else original)
                figures[slow].append(
                    (_cpu_s(stressed), _cpu_s(bypass))
                )
        setattr(cls, method, original)
        base_self = _self_s(stressed, layer)
        setattr(cls, method, slowed)
        slow_self = _self_s(stressed, layer)
    finally:
        setattr(cls, method, original)
    base_cpu, base_bypass = map(min, zip(*figures[False]))
    slow_cpu, slow_bypass = map(min, zip(*figures[True]))
    bound = _bound("cpu_s")
    assert slow_self > base_self * (1 + 2 * bound)
    assert slow_cpu > base_cpu * (1 + bound)
    assert slow_bypass < base_bypass * (1 + bound)


def test_refuses_a_non_default_switch(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_NODE_FF", "0")
    assert run.main(["--workload", "zipf_cache", "--seconds", "1"]) == 2
    assert "REPRO_NODE_FF=0" in capsys.readouterr().err


def test_fails_without_the_simulator(tmp_path):
    """Next to nothing but the benchmark's own files, the command exits
    non-zero and prints no result."""
    shutil.copytree(BENCH, tmp_path / "paperbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "paperbench/run.py", "--workload", "fig5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_lru_replay_models_in_flight_fills():
    """A read issued while the same block's fill is in flight misses
    again; a write installs its block at once."""
    sched = workloads.OpenLoopRun(
        cluster=None,
        times=[0.0, 0.001, 0.002, 0.010, 0.011],
        is_read=[True, True, False, True, True],
        blocks=[7, 7, 9, 7, 9],
        clients=[0, 0, 0, 0, 0],
        sizes=[4096] * 5,
        done_at=[0.005, 0.006, 0.0021, 0.0101, 0.0111],
    )
    hits, fills = workloads.lru_replay(sched, capacity=4)
    assert (hits, fills) == (2, 1)


def test_per_layer_names_match_the_benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
