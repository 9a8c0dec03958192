"""The four workloads of the ORAM benchmark and the measurement loop.

Every workload builds its ORAM through the public facade (``open_oram`` or
``open_service``), prefills it, and then runs *chunks*: fixed, seeded units
of work (a slice of trace, or one round of client requests).  The untraced
run repeats chunks for the requested time and yields the end-to-end
metrics.  The traced run builds two identical instances from the same seed
and alternates their chunks, one plain and one with spans recorded around
each layer's public methods, so the tracing overhead compares identical
work; the per-layer counts come from the traced instance's first
``count_chunks`` chunks, which makes them repeat exactly for a seed.

On a shared host other tenants change the speed of the process: on 2
vCPUs of a shared VM it ran 1.4-2x slower for stretches of seconds to tens
of minutes.  The untraced run therefore times a fixed pure-Python loop
(:func:`reference_loop`) before every chunk and divides the time measured
next to it by the host's slowdown against ``REFERENCE_PACE_S`` (set-ups
by the run's median slowdown): end-to-end timings are host time scaled to
the reference pace.  The run also reports the median slowdown it applied.

Correctness is checked inside every run and counted against the operations
attempted: every trace access must find its (prefilled) block, collected
serve reads and a seeded read-back sample must match a shadow map of the
writes, and the durable store must reopen onto its last committed
generation with a matching digest.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import math
import os
import random
import resource
import shutil
import statistics
import time
from array import array
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro import (
    HierarchicalPathORAM,
    HierarchyConfig,
    Operation,
    ORAMConfig,
    OramSpec,
    ReproError,
    ServiceConfig,
    derive_seed,
    open_oram,
    open_service,
)
from repro.core.memmap_tree import MemmapTreeStorage
from repro.core.stats import AccessStats
from repro.workloads.spec_like import benchmark_trace

from span_recorder import SpanRecorder, SpanTotals, summarize

READ, WRITE = Operation.READ, Operation.WRITE

#: Payload the prefill writes to every block; writes in chunks use
#: positive tokens, so a read-back can tell the two apart.
PREFILL = 0

#: Cache-line size the mcf-like trace's byte addresses are folded onto.
LINE_BYTES = 128

#: On-chip position-map budget of the hierarchical workloads: small enough
#: that a 2,048-block data ORAM recurses once (2 ORAMs) and a 32,768-block
#: one twice (3 ORAMs).
ONCHIP_POSITION_MAP_BYTES = 1024

#: Requests per latency window.  Percentiles are taken per window and the
#: median over windows is reported: a window's p99 has >= 10 requests
#: beyond it, and a burst of host noise moves one window, not the run.
LATENCY_WINDOW = 1000

#: Time of one :func:`reference_loop` at the reference pace: its fastest
#: time on 2 vCPUs of a shared VM (Python 3.11) in a quiet stretch.
REFERENCE_PACE_S = 0.33e-3

#: Hierarchy levels reported per layer (the deepest workload has 3).
MAX_LEVELS = 3
#: Storage levels reported per layer (only ``secure_trace`` reaches
#: storage methods, with 2 ORAMs).
STORAGE_LEVELS = 2


@dataclass(frozen=True)
class Sizes:
    """How much work one workload does."""

    blocks: int
    chunk_ops: int
    count_chunks: int
    readback: int
    setup_reps: int
    #: Chunks between the timed checkpoint snapshots of a non-durable
    #: workload (durable_trace commits inside every chunk instead: 0).
    snapshot_every: int


@dataclass
class Tally:
    """Operations attempted and failed, checks included."""

    attempted: int = 0
    failed: int = 0

    def add(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed


@dataclass
class Window:
    """What a run of chunks did."""

    ops: int = 0
    seconds: float = 0.0
    #: Operations per second of each chunk.
    rates: list[float] = field(default_factory=list)
    #: Latency samples in seconds, and how many requests each stands for
    #: (a same-op trace run of ``n`` accesses is one sample of weight ``n``).
    latency: array = field(default_factory=lambda: array("d"))
    requests: array = field(default_factory=lambda: array("q"))
    #: Consecutive stretches of samples holding >= LATENCY_WINDOW requests.
    latency_windows: list[tuple[int, int]] = field(default_factory=list)
    commits: list[float] = field(default_factory=list)

    def add(self, chunk: "Window", slowdown: float = 1.0) -> None:
        """Add a chunk, dividing its timings by the host's ``slowdown``
        (``seconds`` stays host time)."""
        self.ops += chunk.ops
        self.seconds += chunk.seconds
        self.rates.append(chunk.ops * slowdown / chunk.seconds)
        self.latency.extend(sample / slowdown for sample in chunk.latency)
        self.requests += chunk.requests
        self.commits += [commit / slowdown for commit in chunk.commits]
        start = self.latency_windows[-1][1] if self.latency_windows else 0
        if sum(self.requests[start:]) >= LATENCY_WINDOW:
            self.latency_windows.append((start, len(self.latency)))

    def latency_percentile(self, fraction: float) -> float:
        """Median over latency windows of each window's nearest-rank
        percentile (over all samples when no window filled)."""
        windows = self.latency_windows or [(0, len(self.latency))]
        latency = np.frombuffer(self.latency)
        requests = np.frombuffer(self.requests, dtype=np.int64)
        values = []
        for start, end in windows:
            order = np.argsort(latency[start:end])
            cumulative = np.cumsum(requests[start:end][order])
            rank = max(1, math.ceil(fraction * int(cumulative[-1])))
            values.append(float(latency[start:end][order[np.searchsorted(cumulative, rank)]]))
        return statistics.median(values)


def reference_loop() -> int:
    """Fixed dict and list work of the kind the ORAM code does."""
    table: dict[int, int] = {}
    recent: list[int] = []
    for i in range(3000):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + i
        recent.append(key)
        if len(recent) > 64:
            recent.clear()
    return len(table)


def host_slowdown() -> float:
    """How many times slower than the reference pace the host runs now:
    the fastest of three :func:`reference_loop` calls over
    ``REFERENCE_PACE_S``."""
    fastest = math.inf
    for _ in range(3):
        began = time.perf_counter()
        reference_loop()
        fastest = min(fastest, time.perf_counter() - began)
    return fastest / REFERENCE_PACE_S


def same_op_runs(addresses: list[int], writes: list[bool]) -> list[tuple[bool, list[int]]]:
    """Split a trace into maximal runs of one operation."""
    return [
        (is_write, [address for address, _ in group])
        for is_write, group in itertools.groupby(zip(addresses, writes), key=itemgetter(1))
    ]


def level_counters(orams: tuple, logical: Any) -> dict[str, Any]:
    """Simulated counters (exact for a seed) from the public ``stats``:
    logical accesses and, per ORAM of the chain, its path ops."""
    return {
        "real": logical.real_accesses,
        "dummy": logical.dummy_accesses,
        "levels": [
            (
                oram.stats.path_reads,
                oram.stats.real_accesses,
                oram.stats.dummy_accesses,
                oram.stats.plb_hits,
                oram.stats.plb_misses,
            )
            for oram in orams
        ],
        "configs": [oram.config for oram in orams],
    }


# ----------------------------------------------------------------------
# Trace-replay workloads: secure_trace, engine_trace, durable_trace
# ----------------------------------------------------------------------
@dataclass
class OramState:
    oram: Any
    shadow: dict[int, int] = field(default_factory=dict)
    store_dir: Path | None = None


class OramWorkload:
    """One ORAM replaying seeded same-op ``access_many`` runs."""

    def __init__(
        self,
        name: str,
        spec: OramSpec,
        hierarchical: bool,
        trace: str,
        sizes: Sizes,
        seed: int,
        workdir: Path,
    ) -> None:
        self.name = name
        self.spec = spec
        self.hierarchical = hierarchical
        self.trace = trace
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        self.durable = spec.storage == "memmap-flat"

    # -- set-up ---------------------------------------------------------
    def open(self, rep: int) -> OramState:
        data = ORAMConfig(working_set_blocks=self.sizes.blocks)
        config: Any = data
        if self.hierarchical:
            config = HierarchyConfig(
                data_oram=data, onchip_position_map_limit_bytes=ONCHIP_POSITION_MAP_BYTES
            )
        spec = self.spec
        store_dir = None
        if self.durable:
            store_dir = self.workdir / f"{self.name}-store{rep}"
            shutil.rmtree(store_dir, ignore_errors=True)
            spec = spec.with_updates(storage_path=os.fspath(store_dir))
        return OramState(open_oram(spec, config, seed=self.seed), store_dir=store_dir)

    def prefill(self, state: OramState) -> None:
        addresses = list(range(1, self.sizes.blocks + 1))
        state.oram.access_many(addresses, WRITE, PREFILL)
        state.shadow = dict.fromkeys(addresses, PREFILL)
        if self.durable:
            state.oram.snapshot()

    def close(self, state: OramState) -> None:
        if self.durable:
            state.oram.storage.abandon()
            shutil.rmtree(state.store_dir, ignore_errors=True)

    # -- measured work --------------------------------------------------
    def chunk_trace(self, index: int) -> tuple[list[int], list[bool]]:
        blocks = self.sizes.blocks
        chunk_seed = derive_seed(self.seed, (self.name, "chunk", index))
        if self.trace == "mcf":
            records = benchmark_trace("mcf", self.sizes.chunk_ops, seed=chunk_seed)
            return (
                [record.address // LINE_BYTES % blocks + 1 for record in records],
                [record.is_write for record in records],
            )
        rng = random.Random(chunk_seed)
        ops = range(self.sizes.chunk_ops)
        return [rng.randrange(1, blocks + 1) for _ in ops], [rng.random() < 0.3 for _ in ops]

    def run_chunk(
        self, state: OramState, index: int, tally: Tally, recorder: SpanRecorder | None = None
    ) -> Window:
        runs = same_op_runs(*self.chunk_trace(index))
        oram = state.oram
        access_many, snapshot = oram.access_many, oram.snapshot
        if recorder is not None:
            access_many = recorder.traced(access_many, "core.access_many")
            snapshot = recorder.traced(snapshot, "core.snapshot")
        window = Window(ops=self.sizes.chunk_ops)
        failed = 0
        written: list[tuple[list[int], int]] = []
        clock = time.perf_counter
        start = clock()
        for number, (is_write, addresses) in enumerate(runs):
            token = index * self.sizes.chunk_ops + number + 1
            began = clock()
            try:
                result = access_many(addresses, WRITE if is_write else READ, token)
            except ReproError:
                failed += len(addresses)
            else:
                # Every address was prefilled, so every access must find it.
                failed += len(addresses) - result.found
                if is_write:
                    written.append((addresses, token))
            # A run's accesses are submitted together and served one after
            # another: each is charged the run's time per access.
            window.latency.append((clock() - began) / len(addresses))
            window.requests.append(len(addresses))
        if self.durable:
            began = clock()
            snapshot()
            window.commits.append(clock() - began)
        window.seconds = clock() - start
        for addresses, token in written:
            state.shadow.update(dict.fromkeys(addresses, token))
        tally.add(self.sizes.chunk_ops, failed)
        return window

    # -- correctness ----------------------------------------------------
    def check(self, state: OramState, tally: Tally) -> None:
        oram = state.oram
        rng = random.Random(derive_seed(self.seed, (self.name, "readback")))
        sample = rng.sample(sorted(state.shadow), min(self.sizes.readback, len(state.shadow)))
        failed = 0
        for address in sample:
            try:
                result = oram.access(address)
            except ReproError:
                failed += 1
            else:
                failed += not result.found or result.data != state.shadow[address]
        tally.add(len(sample), failed)
        if self.durable:
            tally.add(1, not self._reopens_committed(state, sample))

    def _reopens_committed(self, state: OramState, dirty: list[int]) -> bool:
        """Commit, dirty the store, drop it as a crash would, and reopen:
        the store must land on the committed generation and digest."""
        oram = state.oram
        storage = oram.storage
        try:
            oram.snapshot()
            generation, digest = storage.generation, storage.digest()
            oram.access_many(dirty, WRITE, -1)
            storage.abandon()
            reopened = MemmapTreeStorage.open(storage.file_path, sync=self.spec.memmap_sync)
        except ReproError:
            return False
        try:
            return reopened.generation == generation and reopened.digest() == digest
        finally:
            reopened.abandon()

    # -- tracing --------------------------------------------------------
    def orams(self, state: OramState) -> tuple:
        oram = state.oram
        return oram.orams if isinstance(oram, HierarchicalPathORAM) else (oram,)

    def instrument(self, state: OramState, recorder: SpanRecorder) -> None:
        """Wrap every layer below the protocol; the protocol's own calls
        are wrapped per call in :meth:`run_chunk`."""
        for level, oram in enumerate(self.orams(state)):
            storage = oram.storage
            recorder.wrap(storage, "read_path_blocks", f"storage.L{level}.read_path")
            recorder.wrap(storage, "write_path_levels", f"storage.L{level}.write_path")
            authenticator = getattr(storage, "authenticator", None)
            if authenticator is not None:
                recorder.wrap(authenticator, "verify_path", "integrity.verify_path")
                recorder.wrap(authenticator, "update_path", "integrity.update_path")
                cipher = storage.inner.cipher
                recorder.wrap(cipher, "decrypt", "crypto.decrypt", nbytes=_ciphertext_in)
                recorder.wrap(cipher, "encrypt", "crypto.encrypt", nbytes=_ciphertext_out)
            if self.durable:
                recorder.wrap(storage, "commit", "memmap.commit")
        if self.durable:
            recorder.wrap(os, "fsync", "os.fsync")

    def counters(self, state: OramState) -> dict[str, Any]:
        counts = level_counters(self.orams(state), state.oram.stats)
        if self.durable:
            counts["disk_bytes"] = sum(
                entry.stat().st_size for entry in state.store_dir.rglob("*") if entry.is_file()
            )
            counts["user_bytes"] = self.sizes.blocks * state.oram.config.block_bytes
        return counts


def _ciphertext_in(args: tuple, result: Any) -> int:
    return len(args[1])


def _ciphertext_out(args: tuple, result: Any) -> int:
    return len(result)


# ----------------------------------------------------------------------
# serve_mixed: closed-loop clients against open_service
# ----------------------------------------------------------------------
TENANTS = 4
CLIENTS_PER_TENANT = 4
SERVE_WRITE_FRACTION = 0.30
SERVE_COLLECT_FRACTION = 0.10


@dataclass
class ServeState:
    service: Any
    oram: Any
    shadow: dict[int, int] = field(default_factory=dict)


class ServeWorkload:
    """4 tenants x 4 closed-loop clients over one flat ORAM instance.

    Client ``g`` (0..15) writes and collect-reads only the addresses
    ``a`` with ``(a - 1) % 16 == g``; since each client waits for every
    reply, its own shadow entries are exact whatever the interleaving.
    Fusable reads go anywhere.  ``chunk_ops`` is requests per client.
    """

    instance = "main"

    def __init__(self, name: str, sizes: Sizes, seed: int) -> None:
        self.name = name
        self.sizes = sizes
        self.seed = seed
        self.clients = TENANTS * CLIENTS_PER_TENANT

    def open(self, rep: int) -> ServeState:
        config = ORAMConfig(working_set_blocks=self.sizes.blocks)
        service = open_service(
            ServiceConfig(), {self.instance: (OramSpec(), config, self.seed)}
        )
        return ServeState(service, service.instance(self.instance))

    def prefill(self, state: ServeState) -> None:
        addresses = list(range(1, self.sizes.blocks + 1))
        state.oram.access_many(addresses, WRITE, PREFILL)
        state.shadow = dict.fromkeys(addresses, PREFILL)

    def close(self, state: ServeState) -> None:
        pass

    def run_chunk(
        self, state: ServeState, index: int, tally: Tally, recorder: SpanRecorder | None = None
    ) -> Window:
        window = Window(ops=self.clients * self.sizes.chunk_ops)
        failed = asyncio.run(self._chunk(state, index, window))
        tally.add(window.ops, failed)
        return window

    async def _chunk(self, state: ServeState, index: int, window: Window) -> int:
        service = state.service
        async with service:
            start = time.perf_counter()
            failures = await asyncio.gather(
                *(self._client(state, index, client, window) for client in range(self.clients))
            )
            window.seconds = time.perf_counter() - start
        return sum(failures)

    async def _client(self, state: ServeState, index: int, client: int, window: Window) -> int:
        rng = random.Random(derive_seed(self.seed, (self.name, "client", client, index)))
        tenant = f"tenant-{client // CLIENTS_PER_TENANT}"
        owned = range(client + 1, self.sizes.blocks + 1, self.clients)
        shadow = state.shadow
        submit = state.service.submit
        latency, requests = window.latency, window.requests
        clock = time.perf_counter
        failed = 0
        for number in range(self.sizes.chunk_ops):
            draw = rng.random()
            began = clock()
            try:
                if draw < SERVE_WRITE_FRACTION:
                    address = rng.choice(owned)
                    token = (index * self.clients + client) * self.sizes.chunk_ops + number + 1
                    await submit(tenant, self.instance, address, WRITE, token)
                    shadow[address] = token
                elif draw < SERVE_WRITE_FRACTION + SERVE_COLLECT_FRACTION:
                    address = rng.choice(owned)
                    result = await submit(tenant, self.instance, address, collect=True)
                    failed += not result.found or result.data != shadow[address]
                else:
                    await submit(tenant, self.instance, rng.randrange(1, self.sizes.blocks + 1))
            except ReproError:
                failed += 1
            latency.append(clock() - began)
            requests.append(1)
        return failed

    def check(self, state: ServeState, tally: Tally) -> None:
        """Collected reads are checked as they complete."""

    def instrument(self, state: ServeState, recorder: SpanRecorder) -> None:
        def batch() -> int:
            # One root id per serve batch: the service's batch counter
            # only advances after the batch's ORAM calls return.
            return state.service.stats.batches

        recorder.wrap(state.oram, "access", "core.access", root_key=batch)
        recorder.wrap(state.oram, "access_many", "core.access_many", root_key=batch)

    def counters(self, state: ServeState) -> dict[str, Any]:
        stats = state.service.stats
        counts = level_counters((state.oram,), state.oram.stats)
        counts["rounds"] = stats.rounds
        counts["requests"] = stats.total_requests
        counts["fused"] = sum(tenant.fused for tenant in stats.tenants.values())
        return counts


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
#: Full-size and tiny (test) sizes per workload: blocks, chunk_ops,
#: count_chunks, readback, setup_reps, snapshot_every.
SIZES = {
    "secure_trace": (Sizes(2048, 25, 32, 256, 3, 4), Sizes(128, 20, 1, 8, 1, 1)),
    "engine_trace": (Sizes(32768, 2000, 10, 256, 3, 10), Sizes(256, 50, 1, 8, 1, 1)),
    "serve_mixed": (Sizes(1024, 100, 10, 0, 25, 1), Sizes(64, 4, 1, 0, 1, 1)),
    "durable_trace": (Sizes(65536, 500, 10, 256, 3, 0), Sizes(256, 50, 1, 8, 1, 0)),
}

WORKLOADS = tuple(SIZES)

#: Per-layer metrics computed from simulated counters only: for a given
#: seed they repeat exactly, so a change meant only to speed things up
#: must leave every one of them unchanged.
COUNT_METRICS = (
    "core.hierarchical.L0.path_ops_per_op",
    "core.hierarchical.L1.path_ops_per_op",
    "core.hierarchical.L2.path_ops_per_op",
    "core.plb.hit_rate",
    "core.dummy_ratio",
    "core.access_overhead",
    "storage.bytes_per_op",
    "crypto.buckets_per_op",
    "os.fsync_per_commit",
    "memmap.file_bytes_per_user_byte",
    "serve.requests_per_round",
    "serve.fused_frac",
)


def make_workload(name: str, seed: int, workdir: Path, tiny: bool = False) -> Any:
    """The named workload at full or tiny size."""
    sizes = SIZES[name][tiny]
    if name == "serve_mixed":
        return ServeWorkload(name, sizes, seed)
    if name == "durable_trace":
        spec = OramSpec(protocol="flat", storage="memmap-flat", memmap_sync="relaxed")
        return OramWorkload(name, spec, False, "uniform", sizes, seed, workdir)
    storage = "integrity" if name == "secure_trace" else "flat"
    spec = OramSpec(protocol="hierarchical", storage=storage, plb_entries_per_level=8)
    return OramWorkload(name, spec, True, "mcf", sizes, seed, workdir)


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
@dataclass
class Measurement:
    """One run's metric values (by name) and its operation tally."""

    values: dict[str, float]
    tally: Tally
    #: Sample counts behind the percentiles, for the printed report.
    samples: dict[str, int]
    recorder: SpanRecorder | None = None
    #: Median host slowdown the untraced run divided its timings by.
    slowdown: float | None = None


def report(run: Measurement, declared: list[dict]) -> dict:
    """The result object: every declared metric with its unit."""
    return {
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {
            metric["name"]: {"value": run.values[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }


def _set_up(workload: Any, rep: int) -> tuple[Any, float, float]:
    """Build and prefill one instance; returns it with both times."""
    gc.collect()
    began = time.perf_counter()
    state = workload.open(rep)
    opened = time.perf_counter()
    workload.prefill(state)
    return state, opened - began, time.perf_counter() - opened


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    workdir: Path,
    tiny: bool = False,
    after_setup: Callable[[Any], None] | None = None,
) -> Measurement:
    """Run one workload: end-to-end metrics untraced, per-layer traced.

    ``after_setup`` sees each measured instance's state before its first
    chunk (the tests use it to tamper with storage).
    """
    workdir.mkdir(parents=True, exist_ok=True)
    workload = make_workload(name, seed, workdir, tiny)
    if trace:
        return _measure_traced(workload, seconds, after_setup)
    return _measure_untraced(workload, seconds, after_setup)


def _measure_untraced(workload: Any, seconds: float, after_setup: Any) -> Measurement:
    tally = Tally()
    setups = []
    slowdowns = []
    state = None
    for rep in range(workload.sizes.setup_reps):
        if state is not None:
            workload.close(state)
        state, open_s, prefill_s = _set_up(workload, rep)
        setups.append(open_s + prefill_s)
    window = Window()
    snapshot_every = workload.sizes.snapshot_every
    peak_rss_mb = None
    try:
        if after_setup is not None:
            after_setup(state)
        index = 0
        while index == 0 or window.seconds < seconds:
            slowdowns.append(host_slowdown())
            window.add(workload.run_chunk(state, index, tally), slowdowns[-1])
            if snapshot_every and index % snapshot_every == 0:
                # A checkpoint of a volatile ORAM, timed outside the
                # chunks; spread over the run like durable_trace's commits.
                began = time.perf_counter()
                state.oram.snapshot()
                window.commits.append((time.perf_counter() - began) / slowdowns[-1])
            index += 1
            if index == workload.sizes.count_chunks:
                # Read after a fixed amount of work: memory that grows with
                # the requests served must not grow with the host's speed.
                peak_rss_mb = _peak_rss_mb()
        workload.check(state, tally)
        if peak_rss_mb is None:
            peak_rss_mb = _peak_rss_mb()
    finally:
        workload.close(state)
    slowdown = statistics.median(slowdowns)
    values = {
        # A set-up lasts up to seconds, longer than one reference sample
        # speaks for, so it is scaled by the run's median slowdown.
        "setup_s": statistics.median(setups) / slowdown,
        "throughput_ops_s": statistics.median(window.rates),
        "latency_p50_ms": window.latency_percentile(0.50) * 1e3,
        "latency_p99_ms": window.latency_percentile(0.99) * 1e3,
        "commit_p50_ms": statistics.median(window.commits) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {
        "setup_s": len(setups),
        "throughput_ops_s": len(window.rates),
        "latency_p50_ms": window.ops,
        "latency_p99_ms": window.ops,
        "commit_p50_ms": len(window.commits),
    }
    return Measurement(values, tally, samples, slowdown=slowdown)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _measure_traced(workload: Any, seconds: float, after_setup: Any) -> Measurement:
    tally = Tally()
    plain, *plain_setup = _set_up(workload, 0)
    traced, *traced_setup = _set_up(workload, 1)
    recorder = SpanRecorder()
    plain_window, traced_window = Window(), Window()
    count_chunks = workload.sizes.count_chunks
    try:
        if after_setup is not None:
            after_setup(plain)
            after_setup(traced)
        before = workload.counters(traced)
        index = 0
        while index < count_chunks or plain_window.seconds + traced_window.seconds < seconds:
            # Alternate which side runs first so drift hits both equally.
            for is_traced in (index % 2 == 1, index % 2 == 0):
                if is_traced:
                    workload.instrument(traced, recorder)
                    try:
                        traced_window.add(workload.run_chunk(traced, index, tally, recorder))
                    finally:
                        recorder.unwrap_all()
                else:
                    plain_window.add(workload.run_chunk(plain, index, tally))
            index += 1
            if index == count_chunks:
                counted = _Counted(
                    len(recorder.spans),
                    traced_window.ops,
                    before,
                    workload.counters(traced),
                )
        workload.check(plain, tally)
        workload.check(traced, tally)
    finally:
        workload.close(plain)
        workload.close(traced)
    values = layer_metrics(
        recorder,
        counted,
        traced_window,
        plain_window,
        setup=(plain_setup, traced_setup),
        tally=tally,
    )
    return Measurement(values, tally, {"spans": len(recorder.spans)}, recorder)


@dataclass
class _Counted:
    """The traced instance's first ``count_chunks`` chunks."""

    spans: int
    ops: int
    before: dict[str, Any]
    after: dict[str, Any]

    def delta(self, key: str) -> int:
        return self.after.get(key, 0) - self.before.get(key, 0)


def layer_metrics(
    recorder: SpanRecorder,
    counted: _Counted,
    traced: Window,
    plain: Window,
    setup: tuple,
    tally: Tally,
) -> dict[str, float]:
    """Per-layer metrics: timings over every traced chunk, counts over the
    first ``count_chunks`` (so they repeat exactly for a seed)."""
    timed = summarize(recorder.spans)
    counts = summarize(recorder.spans, counted.spans)

    def span(totals: dict[str, SpanTotals], name: str) -> SpanTotals:
        return totals.get(name, SpanTotals())

    ops, wall = traced.ops, traced.seconds

    def us_per_op(name: str) -> float:
        return span(timed, name).seconds / ops * 1e6

    values: dict[str, float] = {
        "backends.open_s": statistics.mean(s[0] for s in setup),
        "core.prefill_s": statistics.mean(s[1] for s in setup),
    }
    roots = ("core.access_many", "core.access")
    values["core.engine_self_us_per_op"] = (
        sum(span(timed, name).self_seconds for name in roots) / ops * 1e6
    )

    # Simulated counters from the public stats objects.
    before, after = counted.before["levels"], counted.after["levels"]
    deltas = [tuple(a - b for a, b in zip(x, y)) for x, y in zip(after, before)]
    # Guarded for runs in which no access completed (a tampered tree).
    real = max(counted.delta("real"), 1)
    for level in range(MAX_LEVELS):
        path_ops = deltas[level][0] if level < len(deltas) else 0
        values[f"core.hierarchical.L{level}.path_ops_per_op"] = path_ops / counted.ops
    hits = sum(d[3] for d in deltas[1:])
    lookups = hits + sum(d[4] for d in deltas[1:])
    values["core.plb.hit_rate"] = hits / lookups if lookups else 0.0
    values["core.dummy_ratio"] = counted.delta("dummy") / real
    configs = counted.after["configs"]
    data_block_bits = configs[0].block_bits
    values["core.access_overhead"] = sum(
        AccessStats(real_accesses=d[1], dummy_accesses=d[2]).access_overhead(
            config.levels, config.padded_bucket_bits, data_block_bits
        )
        * d[1]
        / real
        for d, config in zip(deltas, configs)
    )

    for level in range(STORAGE_LEVELS):
        for op in ("read", "write"):
            values[f"storage.L{level}.{op}_path_us_per_op"] = us_per_op(
                f"storage.L{level}.{op}_path"
            )
    crypto = [span(counts, "crypto.decrypt"), span(counts, "crypto.encrypt")]
    values["storage.bytes_per_op"] = sum(c.nbytes for c in crypto) / counted.ops
    values["crypto.decrypt_us_per_op"] = us_per_op("crypto.decrypt")
    values["crypto.encrypt_us_per_op"] = us_per_op("crypto.encrypt")
    values["crypto.buckets_per_op"] = sum(c.count for c in crypto) / counted.ops
    values["integrity.verify_path_us_per_op"] = us_per_op("integrity.verify_path")
    values["integrity.update_path_us_per_op"] = us_per_op("integrity.update_path")

    commit, fsync = span(timed, "memmap.commit"), span(timed, "os.fsync")
    counted_commits = span(counts, "memmap.commit").count
    values["memmap.commit_self_ms"] = (
        commit.self_seconds / commit.count * 1e3 if commit.count else 0.0
    )
    values["memmap.commit_busy_frac"] = commit.seconds / wall
    values["os.fsync_per_commit"] = (
        span(counts, "os.fsync").count / counted_commits if counted_commits else 0.0
    )
    values["os.fsync_busy_frac"] = fsync.seconds / wall
    user_bytes = counted.after.get("user_bytes")
    values["memmap.file_bytes_per_user_byte"] = (
        counted.after["disk_bytes"] / user_bytes if user_bytes else 0.0
    )

    requests = counted.delta("requests")
    oram_seconds = sum(span(timed, name).seconds for name in roots)
    serving = "rounds" in counted.after
    values["serve.self_us_per_request"] = (wall - oram_seconds) / ops * 1e6 if serving else 0.0
    values["serve.oram_busy_frac"] = oram_seconds / wall if serving else 0.0
    values["serve.requests_per_round"] = requests / counted.delta("rounds") if serving else 0.0
    values["serve.fused_frac"] = counted.delta("fused") / requests if serving else 0.0

    values["trace.overhead_frac"] = wall / plain.seconds - 1
    values["failed_frac"] = tally.failed / tally.attempted
    return values
