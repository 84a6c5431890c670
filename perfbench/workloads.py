"""The four benchmark workloads: set-up, measurement, oracle checks, metrics.

Every workload goes through the public API only: ``build_graph``,
``BfsSession`` and, for ``serve-msbfs``, ``BfsService`` with its
in-process ``QueryClient``.  Two clocks are reported and every metric
says which one it reads:

* *host* — wall seconds this Python process spends (``time.perf_counter``);
* *simulated* — the BG/L alpha-beta torus cost model (``BfsResult.elapsed``).
  It is calibrated to published BG/L parameters but unvalidated against
  hardware at these sizes, so it only compares commits.  It repeats
  exactly for a given seed.

Traversal workloads run a closed loop of single-source ``BfsSession.bfs``
over a seeded list of non-isolated sources; ``serve-msbfs`` drives the
batching service with a closed loop of one full MS-BFS batch (64
queries) in flight, then an open-loop seeded Poisson schedule.  Oracle
checks (``serial_bfs`` levels digests) run outside every timed region.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import math
import resource
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from repro import BfsOptions, BfsSession, FaultSpec, GraphSpec, SystemSpec, build_graph
from repro.bfs.msbfs import MAX_BATCH
from repro.bfs.serial import serial_bfs
from repro.observability.digest import levels_digest, result_digests
from repro.server.service import BfsService, QueryClient
from repro.types import UNREACHED

from tracer import Tracer, coverage, layer_totals

#: the compressed, fault-tolerant configuration; its fault seed is the
#: spec's default, so the crash plan (a property of the simulated machine)
#: is the same for every graph and query seed
WIRE_FAULTS = "drop=0.01,crash=0.15,recovery=spare,spares=2"

#: a serving run is invalid when the load generator's p99 lateness exceeds this
LATE_BOUND_MS = 25.0

#: fewest open-loop replies for a p99 with 10 samples beyond it
P99_MIN_REPLIES = 1000

#: set-up repeats until this much host time is spent (short set-ups are noisy)
SETUP_MIN_S = 2.0
SETUP_MAX_REPS = 15


class HostScale:
    """Host seconds rescaled to one reference speed of the machine.

    The benchmark shares its CPUs with other tenants, whose load slows every
    instruction stream for seconds to minutes at a time: on a 2-vCPU VM the
    same 64-wide MS-BFS batch took 180 ms in one process and 230 ms in the
    next.  A fixed reference kernel is timed between measured operations,
    outside every timed region: a level-synchronous NumPy BFS over a fixed
    random CSR graph (gathers, ``repeat``, visited masks: the simulator's
    own mix and working-set size) plus a Python dict loop.  The host seconds
    of each operation are reported as ``raw * REFERENCE_S / kernel time``:
    seconds on this machine at the speed where the kernel takes
    ``REFERENCE_S``.  Traversals and set-ups use the mean of the samples
    just before and just after them; the serving workload samples on its
    worker thread (``KernelLog``).  Over five processes on a 2-vCPU VM whose
    batch time spread 26%, the ratio of batch time to kernel time spread 4%
    (a sort/unique kernel without the graph: 6%).
    """

    #: about the kernel's time on a 2-vCPU VM, so that reference seconds read
    #: close to wall seconds there
    REFERENCE_S = 1.6e-3

    def __init__(self, n: int = 10_000, edges: int = 40_000) -> None:
        rng = np.random.default_rng(0)
        u, v = rng.integers(0, n, edges), rng.integers(0, n, edges)
        src, dst = np.concatenate([u, v]), np.concatenate([v, u])
        self._degree = np.bincount(src, minlength=n)
        self._indptr = np.concatenate([[0], np.cumsum(self._degree)])
        self._indices = dst[np.argsort(src, kind="stable")]
        self._keys = rng.integers(0, 4096, 3000).tolist()
        self._samples: list[float] = []
        for _ in range(5):
            self._kernel()  # warm caches and the allocator

    def _kernel(self) -> float:
        """A level-synchronous BFS over a fixed random CSR graph, then a dict loop."""
        t0 = time.perf_counter()
        level = np.full(self._degree.size, -1, dtype=np.int64)
        level[0] = 0
        frontier, depth = np.zeros(1, dtype=np.int64), 0
        while frontier.size:
            depth += 1
            counts = self._degree[frontier]
            first = np.cumsum(counts) - counts
            offsets = np.repeat(self._indptr[frontier] - first, counts) + np.arange(counts.sum())
            reached = self._indices[offsets]
            level[reached[level[reached] < 0]] = depth
            frontier = np.flatnonzero(level == depth)
        counts: dict[int, int] = {}
        for key in self._keys:
            counts[key] = counts.get(key, 0) + 1
        return time.perf_counter() - t0

    def sample(self, reps: int = 3) -> float:
        """Time the kernel ``reps`` times; keep and return the median (drops preemptions)."""
        seconds = statistics.median(self._kernel() for _ in range(reps))
        self._samples.append(seconds)
        return seconds

    def between(self, before: float, after: float) -> float:
        """Factor for an operation run between kernel samples ``before`` and ``after``."""
        return 2 * self.REFERENCE_S / (before + after)

    @property
    def factor(self) -> float:
        """The run's mean factor (reported as ``host_scale``)."""
        return self.REFERENCE_S / statistics.fmean(self._samples)


@contextmanager
def session_hook(hook):
    """Replace ``BfsSession.bfs`` and ``bfs_many`` by ``hook(original)`` on the class.

    On the class, never on an instance, so that the session's own code paths
    stay the ones it takes untraced.
    """
    originals = {attr: BfsSession.__dict__[attr] for attr in ("bfs", "bfs_many")}
    try:
        for attr, fn in originals.items():
            setattr(BfsSession, attr, hook(fn))
        yield
    finally:
        for attr, fn in originals.items():
            setattr(BfsSession, attr, fn)


class KernelLog:
    """Reference-kernel samples the serving worker takes before each traversal.

    The service traverses on its worker thread while the event loop waits,
    so the kernel runs there too: on the event-loop thread it would time the
    wait for the GIL, not the machine.  Each sample is one ``HostScale``
    sample, taken at the top of every ``BfsSession.bfs``/``bfs_many`` call
    (``session_hook``).  ``rescale``
    turns a wall interval into reference seconds: the kernel's own time in
    it is removed, and the rest is multiplied by the factor of the median
    sample taken from ``PAD_S`` before it to ``PAD_S`` after it (several
    batches, so that no single noisy sample sets a query's factor).
    """

    PAD_S = 1.0

    def __init__(self, scale: HostScale) -> None:
        self.scale = scale
        self.starts: list[float] = []
        self.spent: list[float] = []  # wall seconds each sample took
        self.kernel: list[float] = []  # the sample's kernel time

    def installed(self):
        def hook(fn):
            def sampled(*args, **kwargs):
                t0 = time.perf_counter()
                kernel = self.scale.sample()
                self.starts.append(t0)
                self.spent.append(time.perf_counter() - t0)
                self.kernel.append(kernel)
                return fn(*args, **kwargs)
            return sampled

        return session_hook(hook)

    def rescale(self, lo, hi) -> np.ndarray:
        """Reference seconds of the wall intervals ``[lo, hi)`` (arrays).

        An interval with no sample near it keeps its raw length.
        """
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        starts = np.asarray(self.starts)
        spent = np.concatenate([[0.0], np.cumsum(self.spent)])
        a, b = np.searchsorted(starts, lo), np.searchsorted(starts, hi)
        pa = np.searchsorted(starts, lo - self.PAD_S)
        pb = np.searchsorted(starts, hi + self.PAD_S)
        factor = np.array([
            self.scale.REFERENCE_S / statistics.median(self.kernel[i:j]) if j > i else 1.0
            for i, j in zip(pa.tolist(), pb.tolist())
        ])
        return (hi - lo - (spent[b] - spent[a])) * factor


@dataclass(frozen=True)
class ServeSpec:
    """Open-loop rate and phase sizing for the serving workload."""

    rate_qps: float
    #: share of ``--seconds`` the open loop's arrivals span; the closed loop
    #: runs first, for the rest
    open_share: float
    #: fixed 64-wide batches run outside the service for the simulated clock
    sim_batches: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graph: GraphSpec  # its seed is replaced by the graph seed of the run
    grid: tuple[int, int]
    system: SystemSpec = SystemSpec()
    opts: BfsOptions = BfsOptions()
    relabel: str | None = None
    #: traversals every run completes: sim_teps, the digest and the traced
    #: run are computed over exactly these, so they repeat per seed
    fixed_traversals: int = 4
    #: distinct sources the queries are drawn from (one oracle BFS each)
    sources: int = 256
    #: fewest set-up repetitions; short set-ups repeat for SETUP_MIN_S
    setup_reps: int = 3
    serve: ServeSpec | None = None


def _workloads(size: str) -> dict[str, Workload]:
    tiny = size == "tiny"
    poisson = GraphSpec(n=2_000 if tiny else 20_000, k=8.0)
    faulted = SystemSpec(wire="delta-varint", sieve=True, faults=FaultSpec.parse(WIRE_FAULTS))
    reps = 1 if tiny else 3
    items = [
        Workload(
            "poisson-2d-raw",
            "paper's config at 4,096 ranks; host time is active-rank scheduling; "
            "control that wire/fault changes must not move",
            poisson, (8, 8) if tiny else (64, 64),
            fixed_traversals=2 if tiny else 8, setup_reps=reps,
        ),
        Workload(
            "poisson-2d-wire-faults",
            "delta-varint wire, sieve and drops+crashes with spare failover: "
            "every exchange takes the per-message dict path",
            poisson, (4, 4) if tiny else (16, 16), system=faulted,
            fixed_traversals=2 if tiny else 3, setup_reps=reps,
        ),
        Workload(
            "rmat-hybrid",
            "scale-free R-MAT with degree relabel and hybrid direction: "
            "the only bottom-up workload; set-up bound by generation",
            GraphSpec.rmat(10 if tiny else 16), (4, 4) if tiny else (16, 16),
            opts=BfsOptions(direction="hybrid"), relabel="degree",
            fixed_traversals=2 if tiny else 64, sources=64, setup_reps=reps,
        ),
        Workload(
            "serve-msbfs",
            "BfsService batching MS-BFS on 4x4: 64 queries in flight, then "
            "open-loop Poisson arrivals; mask reduction and queueing",
            poisson, (2, 2) if tiny else (4, 4), sources=32 if tiny else 256,
            setup_reps=reps,
            serve=ServeSpec(
                rate_qps=100.0, open_share=0.75,
                sim_batches=1 if tiny else 4,
            ),
        ),
    ]
    return {w.name: w for w in items}


WORKLOAD_NAMES = tuple(_workloads("full"))


def get_workload(name: str, size: str = "full") -> Workload:
    return _workloads(size)[name]


# ---------------------------------------------------------------------- #
# helpers
# ---------------------------------------------------------------------- #
def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); inf entries are misses."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def combine_digests(digests: list[str]) -> str:
    h = hashlib.sha256()
    for d in digests:
        h.update(d.encode())
    return h.hexdigest()


class Oracle:
    """Serial-BFS levels digest and reached-component edge count per source."""

    def __init__(self, graph) -> None:
        self.graph = graph
        self.degree = np.diff(graph.indptr)
        self._cache: dict[int, tuple[str, int]] = {}

    def __call__(self, source: int) -> tuple[str, int]:
        if source not in self._cache:
            levels = serial_bfs(self.graph, source)
            edges = int(self.degree[levels != UNREACHED].sum()) // 2
            self._cache[source] = (levels_digest(levels), edges)
        return self._cache[source]


def sim_counters(result) -> dict[str, float]:
    """Per-result counters read from public fields (CommStats, FaultReport)."""
    stats = result.stats
    report = result.faults
    return {
        "messages": stats.total_messages,
        "raw_bytes": stats.total_bytes,
        "encoded_bytes": stats.total_encoded_bytes,
        "edges_scanned": stats.total_edges_scanned,
        "sieved": stats.total_sieved,
        "bottom_up_levels": stats.direction_counts().get("bottom-up", 0),
        "batch_levels": getattr(result, "batch_levels", 0),
        "sim_comm_s": result.comm_time,
        "sim_compute_s": result.compute_time,
        "sim_fault_s": sum(level.fault_seconds for level in stats.levels),
        "retries": report.retries if report else 0,
        "replayed_levels": report.replayed_levels if report else 0,
        "checkpoint_bytes": report.checkpoint_bytes if report else 0,
    }


def collect_results(sink: list[dict]):
    """Append ``sim_counters`` of every session traversal (``session_hook``)."""

    def hook(fn):
        def collected(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append(sim_counters(result))
            return result
        return collected

    return session_hook(hook)


@dataclass
class Tally:
    """Operations attempted, the failures among them, and invalid-run reasons."""

    attempted: int = 0
    mismatches: int = 0
    errors: int = 0
    notes: list[str] = field(default_factory=list)
    valid: bool = True

    @property
    def failed(self) -> int:
        return self.mismatches + self.errors

    def fail(self, kind: str, note: str) -> None:
        if kind == "mismatch":
            self.mismatches += 1
        else:
            self.errors += 1
        if len(self.notes) < 20:
            self.notes.append(note)

    def invalidate(self, reason: str) -> None:
        self.valid = False
        self.notes.append(f"invalid: {reason}")


# ---------------------------------------------------------------------- #
# set-up
# ---------------------------------------------------------------------- #
def build(w: Workload, graph_seed: int, tracer: Tracer | None = None):
    """Workload parameters -> a ready (graph, session); spans when ``tracer`` is given.

    For the serving workload, ready includes starting (and stopping) a
    ``BfsService`` over the session.
    """
    tracer = tracer or Tracer()
    with tracer.span("graph.build"):
        graph = build_graph(replace(w.graph, seed=graph_seed))
    with tracer.span("session.init"):
        session = BfsSession(graph, w.grid, opts=w.opts, system=w.system, relabel=w.relabel)
    if w.serve is not None:
        asyncio.run(_start_service(session))
    return graph, session


async def _start_service(session) -> None:
    async with BfsService(session):
        pass


def pick_sources(graph, query_seed: int, count: int) -> list[int]:
    """``count`` distinct non-isolated vertices drawn by ``query_seed``.

    Stratified by degree: the candidates, sorted by degree, are cut into
    ``count`` equal strata and one vertex is drawn from each, in shuffled
    order.  Every non-isolated vertex stays equally likely, but each draw
    holds the graph's degree mix, so latency percentiles on a skewed graph
    do not swing with how many hubs one seed happened to draw.
    """
    degree = np.diff(graph.indptr)
    candidates = np.flatnonzero(degree > 0)
    candidates = candidates[np.argsort(degree[candidates], kind="stable")]
    rng = np.random.default_rng([query_seed, 0x5EED])
    strata = np.array_split(candidates, min(count, candidates.size))
    picks = [int(stratum[rng.integers(stratum.size)]) for stratum in strata]
    return [picks[i] for i in rng.permutation(len(picks))]


# ---------------------------------------------------------------------- #
# traversal workloads
# ---------------------------------------------------------------------- #
@dataclass
class Traversal:
    source: int
    host_s: float
    elapsed: float = 0.0
    levels_digest: str = ""
    digest: str = ""
    error: str | None = None
    #: HostScale factor of this traversal (1 when unscaled)
    factor: float = 1.0


def traverse(session, sources: list[int], seconds: float, minimum: int,
             scale: HostScale | None = None) -> list[Traversal]:
    """Closed loop over ``sources`` (cycled) for ``seconds``, at least ``minimum``.

    ``scale`` samples the reference kernel before the first traversal and
    after every traversal, and sets each traversal's factor.
    """
    out: list[Traversal] = []
    gc.collect()
    before = scale.sample() if scale is not None else 0.0
    deadline = time.perf_counter() + seconds
    i = 0
    while i < minimum or time.perf_counter() < deadline:
        source = sources[i % len(sources)]
        i += 1
        t0 = time.perf_counter()
        try:
            result = session.bfs(source)
        except Exception as exc:  # counted in error_rate, never fatal
            out.append(Traversal(source, time.perf_counter() - t0, error=repr(exc)))
            continue
        host = time.perf_counter() - t0
        out.append(Traversal(
            source, host, result.elapsed, levels_digest(result.levels),
            result_digests(result)["combined"],
        ))
        if scale is not None:
            after = scale.sample()
            out[-1].factor = scale.between(before, after)
            before = after
    return out


def check_traversals(runs: list[Traversal], oracle: Oracle, tally: Tally) -> list[int]:
    """Oracle-check every traversal; returns reached-edge counts (0 on failure)."""
    edges = []
    for t in runs:
        tally.attempted += 1
        if t.error is not None:
            tally.fail("error", f"source {t.source}: {t.error}")
            edges.append(0)
            continue
        digest, reached = oracle(t.source)
        if t.levels_digest != digest:
            tally.fail("mismatch", f"source {t.source}: levels differ from serial_bfs")
        edges.append(reached)
    return edges


def traversal_metrics(runs, edges, fixed: int) -> dict[str, float]:
    """End-to-end metrics; host seconds are multiplied by each traversal's factor."""
    ok = [(t, e) for t, e in zip(runs, edges) if t.error is None]
    host = sum(t.factor * t.host_s for t, _ in ok)
    latencies = [t.factor * t.host_s * 1e3 if t.error is None else math.inf for t in runs]
    head = [(t, e) for t, e in zip(runs[:fixed], edges[:fixed]) if t.error is None]
    sim = sum(t.elapsed for t, _ in head)
    return {
        "host_teps": sum(e for _, e in ok) / host if host else 0.0,
        "sim_teps": sum(e for _, e in head) / sim if sim else 0.0,
        "serve_p50_ms": percentile(latencies, 0.50),
        "serve_p99_ms": percentile(latencies, 0.99),
        "serve_qps": len(ok) / host if host else 0.0,
    }


# ---------------------------------------------------------------------- #
# serving workload
# ---------------------------------------------------------------------- #
@dataclass
class ServeRun:
    """What one pass of the serving phases observed."""

    open_sources: list[int] = field(default_factory=list)
    open_due: list[float] = field(default_factory=list)
    open_done: list[float] = field(default_factory=list)
    open_replies: list = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    open_window: tuple[float, float] = (0.0, 0.0)
    depth_end: int = 0
    open_batches: int = 0
    open_batched: int = 0
    open_reply_ms: list[float] = field(default_factory=list)
    closed: list[tuple[int, object]] = field(default_factory=list)
    #: wall (start, end) of each closed-loop round
    closed_rounds: list[tuple[float, float]] = field(default_factory=list)
    #: the worker's kernel samples (None when unscaled)
    log: KernelLog | None = None
    sim: list[Batch] = field(default_factory=list)


async def _query(client, source: int):
    """The reply, or None when the call raised (counted as a failure)."""
    try:
        return await client.query(source)
    except Exception:  # an exception is a failed query, never a crashed run
        return None


async def _open_loop(service, client, sources, gaps, run: ServeRun) -> None:
    n = len(sources)
    run.open_sources = list(sources)
    run.open_done = [math.inf] * n
    run.open_replies = [None] * n

    async def one(i: int) -> None:
        run.open_replies[i] = await _query(client, sources[i])
        run.open_done[i] = time.perf_counter()

    tasks = []
    batches, batched = service.metrics.batches, service.metrics.batched_queries
    replied = len(service.metrics.wall_latencies)
    start = time.perf_counter()
    due = start + np.cumsum(gaps)
    run.open_due = [float(d) for d in due]
    for i in range(n):
        delay = run.open_due[i] - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        run.late_ms.append((time.perf_counter() - run.open_due[i]) * 1e3)
        tasks.append(asyncio.create_task(one(i)))
    run.depth_end = service.health_reply().extra["health"]["queue_depth"]
    await asyncio.gather(*tasks)
    run.open_window = (start, time.perf_counter())
    run.open_batches = service.metrics.batches - batches
    run.open_batched = service.metrics.batched_queries - batched
    run.open_reply_ms = [s * 1e3 for s in service.metrics.wall_latencies[replied:]]


async def _closed_loop(client, sources, seconds: float, run: ServeRun) -> None:
    """Rounds of one full batch (64 queries in flight at once) for ``seconds``.

    All 64 queries of a round are queued before the service's batch loop
    wakes, so every round is one 64-wide ``bfs_many``.
    """
    position = 0
    deadline = time.perf_counter() + seconds
    while not run.closed_rounds or time.perf_counter() < deadline:
        batch = [sources[(position + j) % len(sources)] for j in range(MAX_BATCH)]
        position += MAX_BATCH
        t0 = time.perf_counter()
        replies = await asyncio.gather(*(_query(client, source) for source in batch))
        run.closed_rounds.append((t0, time.perf_counter()))
        run.closed.extend(zip(batch, replies))


@dataclass
class Batch:
    """One fixed-batch MS-BFS result, without its level matrix."""

    sources: tuple[int, ...]
    row_digests: list[str]
    elapsed: float
    digest: str


def _sim_pass(session, pool: list[int], batches: int, run: ServeRun) -> None:
    """Fixed 64-wide batches outside the service: the simulated clock."""
    for b in range(batches):
        result = session.bfs_many(pool[b * MAX_BATCH:(b + 1) * MAX_BATCH])
        run.sim.append(Batch(
            result.sources, [levels_digest(row) for row in result.levels],
            result.elapsed, result_digests(result)["combined"],
        ))


async def serve_pass(session, spec: ServeSpec, pool, rng, *, open_s: float,
                     closed_s: float, scale: HostScale | None = None) -> ServeRun:
    """Sim pass, closed loop for ``closed_s``, open loop for ``open_s`` (skipped when 0).

    With ``scale``, the worker samples the reference kernel before every
    traversal (``KernelLog``).
    """
    run = ServeRun()
    _sim_pass(session, pool, spec.sim_batches, run)
    run.log = KernelLog(scale) if scale is not None else None
    service = BfsService(session)
    async with service:
        client = QueryClient(service)
        with run.log.installed() if run.log is not None else nullcontext():
            gc.collect()
            closed_sources = [pool[i] for i in rng.integers(0, len(pool), size=4 * len(pool))]
            await _closed_loop(client, closed_sources, closed_s, run)
            if open_s:
                open_n = max(1, round(spec.rate_qps * open_s))
                sources = [pool[i] for i in rng.integers(0, len(pool), size=open_n)]
                gaps = rng.exponential(1.0 / spec.rate_qps, size=open_n)
                gc.collect()
                await _open_loop(service, client, sources, gaps, run)
    return run


def check_serve(run: ServeRun, oracle: Oracle, tally: Tally) -> dict[str, float]:
    """Oracle-check every reply and sim-pass row; end-to-end serving metrics.

    Host seconds are reference seconds (``KernelLog.rescale``) when the run
    was scaled.
    """

    def host_s(lo, hi) -> np.ndarray:
        if run.log is not None:
            return run.log.rescale(lo, hi)
        return np.asarray(hi, dtype=float) - np.asarray(lo, dtype=float)

    def check_reply(source, reply) -> int:
        tally.attempted += 1
        if reply is None or not reply.ok:
            code = None if reply is None else reply.error_code
            tally.fail("error", f"query {source}: not ok ({code})")
            return -1
        digest, edges = oracle(source)
        if reply.result["levels_digest"] != digest:
            tally.fail("mismatch", f"query {source}: reply digest differs from serial_bfs")
            return -1
        return edges

    ok = [check_reply(source, reply) >= 0
          for source, reply in zip(run.open_sources, run.open_replies)]
    done = np.where(ok, run.open_done, run.open_due)  # a failed query's is inf
    latencies = np.where(ok, host_s(run.open_due, done) * 1e3, math.inf)
    closed = [edges for edges in (check_reply(s, r) for s, r in run.closed) if edges >= 0]
    sim_edges = 0
    for batch in run.sim:
        for source, row_digest in zip(batch.sources, batch.row_digests):
            tally.attempted += 1
            digest, edges = oracle(source)
            if row_digest != digest:
                tally.fail("mismatch", f"batched source {source}: row differs")
            sim_edges += edges
    sim_s = sum(batch.elapsed for batch in run.sim)
    closed_s = float(host_s(*np.reshape(run.closed_rounds, (-1, 2)).T).sum())
    return {
        "host_teps": sum(closed) / closed_s if closed_s else 0.0,
        "sim_teps": sim_edges / sim_s if sim_s else 0.0,
        "serve_p50_ms": percentile(latencies, 0.50),
        "serve_p99_ms": percentile(latencies, 0.99),
        "serve_qps": len(closed) / closed_s if closed_s else 0.0,
    }


def check_validity(run: ServeRun, spec: ServeSpec, tally: Tally) -> None:
    """An open loop whose backlog grew or whose generator ran late is invalid."""
    if run.depth_end > MAX_BATCH:
        tally.invalidate(
            f"{run.depth_end} queries queued at the end of the open loop "
            f"(more than one batch): the backlog grew at {spec.rate_qps} q/s"
        )
    late = percentile(run.late_ms, 0.99)
    if late > LATE_BOUND_MS:
        tally.invalidate(f"load generator p99 lateness {late:.1f} ms > {LATE_BOUND_MS} ms")


def server_layer_metrics(run: ServeRun, spans) -> dict[str, float]:
    """Queue wait per open-loop query, mapped to batches in FIFO order."""
    lo, hi = run.open_window
    starts, sizes = [], []
    for name in ("session.bfs", "session.bfs_many"):
        for pos in spans.of(name):
            if lo <= spans.start[pos] <= hi:
                starts.append(spans.start[pos])
                sizes.append(int(spans.size[pos]))
    order = np.argsort(starts, kind="stable")
    batch_start = np.repeat(np.asarray(starts)[order], np.asarray(sizes, dtype=np.int64)[order])
    waits = [(b - d) * 1e3 for b, d in zip(batch_start, run.open_due)]
    if len(batch_start) != len(run.open_due):
        raise RuntimeError(
            f"{len(batch_start)} batched queries for {len(run.open_due)} open-loop queries"
        )
    many = spans.of("session.bfs_many")
    return {
        "session.bfs_many.wall_ms_p50": percentile(
            (spans.end[many] - spans.start[many]) * 1e3, 0.50),
        "server.queue_wait_ms_p50": percentile(waits, 0.50),
        "server.queue_wait_ms_p99": percentile(waits, 0.99),
        "server.batch_width_mean": run.open_batched / run.open_batches if run.open_batches else 0.0,
        "server.batches": run.open_batches,
        "server.reply_ms_p50": percentile(run.open_reply_ms, 0.50),
        "server.queue_depth_end": run.depth_end,
        "loadgen.late_ms_p99": percentile(run.late_ms, 0.99),
    }


# ---------------------------------------------------------------------- #
# the run
# ---------------------------------------------------------------------- #
END_TO_END_UNITS = {
    "setup_s": "s",
    "host_teps": "edges/s",
    "sim_teps": "edges/s",
    "serve_p50_ms": "ms",
    "serve_p99_ms": "ms",
    "serve_qps": "queries/s",
    "peak_rss_mb": "MB",
}

#: per-layer metric -> unit (every one is emitted on every workload)
PER_LAYER_UNITS = {
    "runtime.comm.exchange.calls": "count",
    "runtime.comm.exchange.self_s": "s",
    "runtime.comm.exchange_arrays.self_s": "s",
    "runtime.comm.messages": "count",
    "runtime.comm.host_us_per_message": "us",
    "wire.encoded_nbytes.calls": "count",
    "wire.encoded_nbytes.self_s": "s",
    "wire.compression_ratio": "ratio",
    "faults.plan.calls": "count",
    "faults.plan.self_s": "s",
    "faults.checkpoint.self_s": "s",
    "faults.retries": "count",
    "faults.replayed_levels": "count",
    "faults.checkpoint_bytes": "bytes",
    "runtime.network.round_times_arrays.calls": "count",
    "runtime.network.round_times_arrays.self_s": "s",
    "runtime.network.prepare_pairs.self_s": "s",
    "collectives.fold.self_s": "s",
    "collectives.expand.self_s": "s",
    "utils.segmented.segmented_unique.calls": "count",
    "utils.segmented.segmented_unique.self_s": "s",
    "bfs.engine.step.calls": "count",
    "bfs.engine.step.self_s": "s",
    "bfs.edges_scanned": "count",
    "bfs.bottom_up.level.calls": "count",
    "bfs.bottom_up.level.self_s": "s",
    "bfs.bottom_up_levels": "count",
    "bfs.sieve.self_s": "s",
    "bfs.sieve.sieved": "count",
    "bfs.sent_cache.self_s": "s",
    "bfs.msbfs.run.calls": "count",
    "bfs.msbfs.run.self_s": "s",
    "bfs.msbfs.batch_levels": "count",
    "session.bfs_many.wall_ms_p50": "ms",
    "server.queue_wait_ms_p50": "ms",
    "server.queue_wait_ms_p99": "ms",
    "server.batch_width_mean": "queries",
    "server.batches": "count",
    "server.reply_ms_p50": "ms",
    "server.queue_depth_end": "queries",
    "loadgen.late_ms_p99": "ms",
    "graph.build_s": "s",
    "partition.build_s": "s",
    "session.init_s": "s",
    "sim.comm_s": "s",
    "sim.compute_s": "s",
    "sim.fault_s": "s",
    "trace.coverage": "fraction",
    "trace.overhead_frac": "fraction",
    "error_rate": "fraction",
}

#: wrapped layers that must fire on a workload (the "should move" column)
MUST_FIRE = {
    "poisson-2d-raw": (
        "runtime.comm.exchange_arrays", "runtime.network.round_times_arrays",
        "runtime.network.prepare_pairs", "collectives.fold", "collectives.expand",
        "utils.segmented.segmented_unique", "bfs.engine.step",
    ),
    "poisson-2d-wire-faults": (
        "runtime.comm.exchange", "wire.encoded_nbytes", "faults.plan",
        "faults.checkpoint", "bfs.sieve", "bfs.sent_cache", "bfs.engine.step",
    ),
    "rmat-hybrid": (
        "bfs.bottom_up.level", "bfs.engine.step", "collectives.fold",
        "collectives.expand", "utils.segmented.segmented_unique",
    ),
    "serve-msbfs": ("bfs.msbfs.run", "session.bfs_many"),
}

#: wrapped layers that must not fire on a workload (the "0 calls" cells)
MUST_NOT_FIRE = {
    "poisson-2d-raw": ("bfs.bottom_up.level", "bfs.msbfs.run"),
    "poisson-2d-wire-faults": ("bfs.bottom_up.level", "bfs.msbfs.run"),
    "rmat-hybrid": ("bfs.msbfs.run",),
    "serve-msbfs": ("bfs.bottom_up.level",),
}


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    units: dict[str, str]
    digest: str
    notes: list[str]
    #: mean HostScale factor of the run (1 for traced runs); setup_s and the
    #: traversal workloads' host metrics apply each operation's own factor
    host_scale: float = 1.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, *, size: str, graph_seed: int, query_seed: int,
                 seconds: float, trace: bool) -> Outcome:
    w = get_workload(name, size)
    tally = Tally()
    tracer = Tracer() if trace else None
    scale = None if trace else HostScale()
    if scale is not None:
        times: list[float] = []
        scaled: list[float] = []
        before = scale.sample()
        while len(times) < w.setup_reps or (
            sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPS
        ):
            # free the previous set-up first: peak_rss_mb is one set-up's peak
            graph = session = None
            gc.collect()
            t0 = time.perf_counter()
            graph, session = build(w, graph_seed)
            times.append(time.perf_counter() - t0)
            after = scale.sample()
            scaled.append(times[-1] * scale.between(before, after))
            before = after
    else:
        with tracer.installed():
            graph, session = build(w, graph_seed, tracer)
    oracle = Oracle(graph)
    if w.serve is None:
        metrics, digest = _run_traversals(
            w, session, oracle, tally, query_seed, seconds, tracer, scale)
    else:
        metrics, digest = _run_serve(
            w, session, oracle, tally, query_seed, seconds, tracer, scale)
    if scale is not None:
        metrics["setup_s"] = statistics.median(scaled)
        metrics["peak_rss_mb"] = peak_rss_mb()
        metrics = {k: metrics[k] for k in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    else:
        metrics["error_rate"] = tally.failed / max(1, tally.attempted)
        # the server.* and loadgen.* metrics read 0 on traversal workloads
        metrics = {k: metrics.get(k, 0.0) for k in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
    correct = tally.valid and tally.mismatches == 0
    return Outcome(correct, tally.attempted, tally.failed, metrics, units, digest, tally.notes,
                   scale.factor if scale is not None else 1.0)


def _run_traversals(w, session, oracle, tally, query_seed, seconds, tracer, scale):
    sources = pick_sources(oracle.graph, query_seed, w.sources)
    fixed = w.fixed_traversals
    if tracer is None:
        runs = traverse(session, sources, seconds, fixed, scale)
        edges = check_traversals(runs, oracle, tally)
        metrics = traversal_metrics(runs, edges, fixed)
        return metrics, combine_digests([t.digest for t in runs[:fixed]])
    base = traverse(session, sources, 0.0, fixed)
    base_edges = check_traversals(base, oracle, tally)
    sink: list[dict] = []
    with tracer.installed(), collect_results(sink):
        traced = traverse(session, sources, 0.0, fixed)
    traced_edges = check_traversals(traced, oracle, tally)
    spans = tracer.spans()
    metrics = _layer_metrics(w, spans, sink, tally)
    untraced = traversal_metrics(base, base_edges, fixed)["host_teps"]
    metrics["trace.overhead_frac"] = _overhead(
        untraced, traversal_metrics(traced, traced_edges, fixed)["host_teps"])
    digest = combine_digests([t.digest for t in base])
    _check_same_digest(digest, combine_digests([t.digest for t in traced]), tally)
    return metrics, digest


def _run_serve(w, session, oracle, tally, query_seed, seconds, tracer, scale):
    spec = w.serve
    pool = pick_sources(oracle.graph, query_seed, w.sources)
    rng = np.random.default_rng([query_seed, 0x5E4E])
    if tracer is None:
        run = asyncio.run(serve_pass(
            session, spec, pool, rng, open_s=spec.open_share * seconds,
            closed_s=(1 - spec.open_share) * seconds, scale=scale))
        if len(run.open_sources) < P99_MIN_REPLIES:
            tally.notes.append(
                f"serve_p99_ms rests on {len(run.open_sources)} < {P99_MIN_REPLIES} replies")
        metrics = check_serve(run, oracle, tally)
        check_validity(run, spec, tally)
        return metrics, _sim_digest(run)
    base = asyncio.run(serve_pass(session, spec, pool, rng, open_s=0, closed_s=0.25 * seconds))
    untraced = check_serve(base, oracle, tally)["host_teps"]
    sink: list[dict] = []
    with tracer.installed(), collect_results(sink):
        run = asyncio.run(serve_pass(session, spec, pool, rng, open_s=0.45 * seconds,
                                     closed_s=0.25 * seconds))
    traced = check_serve(run, oracle, tally)["host_teps"]
    spans = tracer.spans()
    metrics = _layer_metrics(w, spans, sink, tally)
    metrics.update(server_layer_metrics(run, spans))
    metrics["trace.overhead_frac"] = _overhead(untraced, traced)
    digest = _sim_digest(base)
    check_validity(run, spec, tally)
    _check_same_digest(digest, _sim_digest(run), tally)
    return metrics, digest


def _sim_digest(run: ServeRun) -> str:
    return combine_digests([batch.digest for batch in run.sim])


def _overhead(untraced: float, traced: float) -> float:
    return 1.0 - traced / untraced if untraced else 0.0


def _check_same_digest(untraced: str, traced: str, tally: Tally) -> None:
    if untraced != traced:
        tally.invalidate("the trace changed the program: simulated digest differs")


def _layer_metrics(w: Workload, spans, sink: list[dict], tally: Tally) -> dict[str, float]:
    totals = layer_totals(spans)

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0))[0]

    def self_s(name: str) -> float:
        return totals.get(name, (0, 0.0))[1]

    for name in MUST_FIRE[w.name]:
        if calls(name) == 0:
            tally.invalidate(f"{name} is predicted to fire on {w.name} but made 0 calls")
    for name in MUST_NOT_FIRE[w.name]:
        if calls(name) != 0:
            tally.invalidate(f"{name} is predicted to make 0 calls on {w.name}, made {calls(name)}")

    def inclusive(name: str) -> float:
        pos = spans.of(name)
        return float((spans.end[pos] - spans.start[pos]).sum())

    def total(key: str) -> float:
        return sum(c[key] for c in sink)

    runs = max(1, len(sink))
    messages = total("messages")
    comm_self = self_s("runtime.comm.exchange") + self_s("runtime.comm.exchange_arrays")
    encoded = total("encoded_bytes")
    return {
        "runtime.comm.exchange.calls": calls("runtime.comm.exchange"),
        "runtime.comm.exchange.self_s": self_s("runtime.comm.exchange"),
        "runtime.comm.exchange_arrays.self_s": self_s("runtime.comm.exchange_arrays"),
        "runtime.comm.messages": messages,
        "runtime.comm.host_us_per_message": comm_self / messages * 1e6 if messages else 0.0,
        "wire.encoded_nbytes.calls": calls("wire.encoded_nbytes"),
        "wire.encoded_nbytes.self_s": self_s("wire.encoded_nbytes"),
        "wire.compression_ratio": total("raw_bytes") / encoded if encoded else 0.0,
        "faults.plan.calls": calls("faults.plan"),
        "faults.plan.self_s": self_s("faults.plan"),
        "faults.checkpoint.self_s": self_s("faults.checkpoint"),
        "faults.retries": total("retries"),
        "faults.replayed_levels": total("replayed_levels"),
        "faults.checkpoint_bytes": total("checkpoint_bytes"),
        "runtime.network.round_times_arrays.calls": calls("runtime.network.round_times_arrays"),
        "runtime.network.round_times_arrays.self_s": self_s("runtime.network.round_times_arrays"),
        "runtime.network.prepare_pairs.self_s": self_s("runtime.network.prepare_pairs"),
        "collectives.fold.self_s": self_s("collectives.fold"),
        "collectives.expand.self_s": self_s("collectives.expand"),
        "utils.segmented.segmented_unique.calls": calls("utils.segmented.segmented_unique"),
        "utils.segmented.segmented_unique.self_s": self_s("utils.segmented.segmented_unique"),
        "bfs.engine.step.calls": calls("bfs.engine.step"),
        "bfs.engine.step.self_s": self_s("bfs.engine.step"),
        "bfs.edges_scanned": total("edges_scanned"),
        "bfs.bottom_up.level.calls": calls("bfs.bottom_up.level"),
        "bfs.bottom_up.level.self_s": self_s("bfs.bottom_up.level"),
        "bfs.bottom_up_levels": total("bottom_up_levels"),
        "bfs.sieve.self_s": self_s("bfs.sieve"),
        "bfs.sieve.sieved": total("sieved"),
        "bfs.sent_cache.self_s": self_s("bfs.sent_cache"),
        "bfs.msbfs.run.calls": calls("bfs.msbfs.run"),
        "bfs.msbfs.run.self_s": self_s("bfs.msbfs.run"),
        "bfs.msbfs.batch_levels": total("batch_levels"),
        "graph.build_s": inclusive("graph.build"),
        "partition.build_s": inclusive("partition.build"),
        "session.init_s": inclusive("session.init"),
        "sim.comm_s": total("sim_comm_s") / runs,
        "sim.compute_s": total("sim_compute_s") / runs,
        "sim.fault_s": total("sim_fault_s") / runs,
        "trace.coverage": coverage(spans),
    }
