"""The benchmark's workloads, driven through the library's public API.

Every workload runs the default ``GogglesConfig`` (only ``seed`` and
``n_classes`` set, plus ``cache_dir`` on ``relabel-cached``) on 2-class
tasks with a 5-per-class dev set.  Inputs come from the workload seed
alone; the program never sees the seed.

* ``label-n160`` — closed loop, one caller, N=160 per op, in whole
  rounds of the five datasets (cub → gtsrb → surface → tbxray →
  pnxray, one fixed class pair each), so every run scores the same task
  mix whatever its speed.  Every op labels a distinct corpus, rendered
  from the seed.  The backbone is the largest stage here.
* ``relabel-cached`` — closed loop with an artifact cache in a fresh
  directory.  Ops revisit a pool of two N=160 corpora: each cycle visits
  both once (misses) and then four more times each in seeded order
  (hits), so a fifth of the ops miss whatever the run length.  The only
  workload where the cache layer does work; the others bypass it.
* ``serve-online`` — open loop: Poisson arrivals at 1 request/s, each
  carrying 1–4 held-out cub images, against ``LabelingService(
  mode="online")`` seeded with an N=160 cub corpus and driven over HTTP
  ``/v1`` by a generator process (``loadgen.py``) with one thread and
  one connection at a time.  Latency-bound:
  absorbs on the frozen corpus, plus refits that grow it.  The arrival
  count per run is fixed (a Poisson process conditioned on its count
  has uniformly distributed arrival times), so runs compare like with
  like.
* ``label-n640`` — the label loop at N=640, where the N² stages
  (similarity scoring, base-GMM fits) overtake the backbone.  One op
  takes 13-16 s on a 2-core box, too long for the run budget of
  ``BENCHMARK.json``, so it is not listed there; run it by name.

A run measures for ``seconds``: of op time on the closed loops, of
arrivals on ``serve-online``.  With ``trace`` the run is
split: the first half runs without hooks, then the same inputs run
again with hooks installed — the per-layer metrics come from the second
half, and the ratio of the two is the tracing overhead.  Corpora are
rebuilt from the seed for the second half rather than kept, so the
memory a run holds does not grow with the number of ops it fits.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import loadgen
from hooks import Tracer
from loadgen import N_CLASSES, check_labels
from measure import LayerInputs, nearest_rank, peak_rss_mb

DATASETS = ("cub", "gtsrb", "surface", "tbxray", "pnxray")
DEV_PER_CLASS = 5
SETUP_REPEATS = 3

# Latency limits for goodput_ratio: about twice the typical op on a
# 2-core x86 box, except serve-online, whose 2 s limit is the serving SLO.
LATENCY_LIMIT_S = {
    "label-n160": 5.0, "label-n640": 30.0, "relabel-cached": 10.0, "serve-online": loadgen.LATENCY_LIMIT_S
}
WORKLOADS = tuple(LATENCY_LIMIT_S)

SERVE_RATE_PER_S = 1.0
TASK_SEED = 0  # the fixed class pair of every task, and serve-online's one tenant task
CACHE_POOL = 2
CACHE_REVISITS = 4


@dataclass(frozen=True)
class Sizes:
    """Corpus sizes; the smoke mode shrinks every one."""

    label_n160: int = 160
    label_n640: int = 640
    cached: int = 160
    serve_corpus: int = 160


SMOKE = Sizes(label_n160=16, label_n640=24, cached=16, serve_corpus=16)


@dataclass
class Run:
    """Everything one run measured, before it is turned into metrics."""

    workload: str
    setup_samples: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    images: int = 0
    busy_s: float = 0.0
    good: int = 0  # ops done and checked within the latency limit
    correct_rows: int = 0
    scored_rows: int = 0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    layer: LayerInputs | None = None
    details: dict = field(default_factory=dict)
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(reason)

    def score(self, labels: np.ndarray, truth: np.ndarray) -> None:
        self.correct_rows += int((labels.argmax(axis=1) == truth).sum())
        self.scored_rows += int(truth.size)

    def e2e(self, import_samples: list[float]) -> dict[str, tuple[float, str]]:
        # A run holds 15-30 ops, so no percentile above the median has ten
        # samples beyond it: the p90 is reported, not gated.
        self.details["latency_s_p90"] = nearest_rank(self.latencies, 0.9)
        self.details["latencies_s"] = [round(latency, 4) for latency in self.latencies]
        self.details["latency_limit_s"] = LATENCY_LIMIT_S[self.workload]
        self.details["import_samples_s"] = import_samples
        self.details["setup_samples_s"] = self.setup_samples
        return {
            "setup_s": (statistics.median(import_samples) + statistics.median(self.setup_samples), "s"),
            "latency_s_p50": (nearest_rank(self.latencies, 0.5), "s"),
            "images_per_s": (self.images / self.busy_s if self.busy_s else 0.0, "images/s"),
            "goodput_ratio": (self.good / self.attempted, "ratio"),
            "accuracy": (self.correct_rows / self.scored_rows if self.scored_rows else 0.0, "ratio"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "success_ratio": ((self.attempted - self.failed) / self.attempted, "ratio"),
        }


def derive(seed: int, *tags: object) -> int:
    """A 31-bit seed for one input, from the workload seed and tags."""
    return random.Random(":".join(str(part) for part in (seed, *tags))).getrandbits(31)


def _corpus(seed: int, index: int, n: int):
    from repro import make_dataset

    # Op i labels dataset i mod 5 on its one fixed class pair — the same
    # task sequence in every run — with images rendered from the seed.
    name = DATASETS[index % len(DATASETS)]
    tag = derive(seed, "corpus", n, index)
    dataset = make_dataset(name, n_per_class=n // N_CLASSES, seed=tag, pair_seed=TASK_SEED)
    dev = dataset.sample_dev_set(per_class=DEV_PER_CLASS, seed=tag)
    return dataset, dev


def _goggles(cache_dir: Path | None = None):
    from repro import Goggles, GogglesConfig

    cache = None if cache_dir is None else str(cache_dir)
    return Goggles(GogglesConfig(seed=0, n_classes=N_CLASSES, cache_dir=cache))


def _setup(run: Run, build):
    """One timed set-up of the system."""
    started = time.perf_counter()
    system = build()
    run.setup_samples.append(time.perf_counter() - started)
    return system


def _measured(run: Run, build) -> None:
    """Close the untraced measurement: read the memory high-water mark of
    one set-up plus the work, then time ``SETUP_REPEATS - 1`` more
    set-ups so that ``setup_s`` is a median.  The repeats come last
    because memory a discarded set-up leaves resident raises the mark
    (on serve-online each one added 10-120 MB on a 2-core x86 box)."""
    run.peak_rss_mb = peak_rss_mb()
    for _ in range(SETUP_REPEATS - 1):
        _setup(run, build).close()


def _another(walls: list[float], budget: float) -> bool:
    """Whether to start another label round (or cache cycle): always a
    first one, then another only if one as long as the last ends within
    the budget."""
    return not walls or sum(walls) + walls[-1] <= budget


def _label_op(run: Run, goggles, dataset, dev) -> tuple[float, np.ndarray | None]:
    """One timed ``Goggles.label`` call with its output checks."""
    run.attempted += 1
    started = time.perf_counter()
    try:
        labels = goggles.label(dataset.images, dev).probabilistic_labels
    except Exception as error:  # noqa: BLE001 - a failed op is counted, not fatal
        wall = time.perf_counter() - started
        run.fail(f"label raised {type(error).__name__}: {error}")
        return wall, None
    wall = time.perf_counter() - started
    problem = check_labels(labels, dataset.images.shape[0])
    if problem is not None:
        run.fail(problem)
        return wall, None
    return wall, labels


def _record_label(run: Run, wall: float, labels, dataset, dev) -> None:
    # A failed op still gives a latency sample (the time until it failed)
    # but never counts as good.
    run.latencies.append(wall)
    run.busy_s += wall
    if labels is None:
        return
    run.good += int(wall <= LATENCY_LIMIT_S[run.workload])
    run.images += dataset.images.shape[0]
    keep = np.ones(dataset.images.shape[0], dtype=bool)
    keep[dev.indices] = False
    run.score(labels[keep], dataset.labels[keep])


# ----------------------------------------------------------------------
# label-n160 / label-n640
# ----------------------------------------------------------------------
def _label_round(run: Run, goggles, seed: int, n: int, number: int, record: bool) -> float:
    """Label round ``number``: one corpus of each dataset, each built,
    labeled and dropped before the next.  Returns the op time."""
    wall_s = 0.0
    for index in range(number * len(DATASETS), (number + 1) * len(DATASETS)):
        dataset, dev = _corpus(seed, index, n)
        wall, labels = _label_op(run, goggles, dataset, dev)
        if record:
            run.digest.update(np.ascontiguousarray(dataset.images).tobytes())
            _record_label(run, wall, labels, dataset, dev)
        wall_s += wall
    return wall_s


def run_label(run: Run, n: int, seed: int, seconds: float, trace: bool) -> None:
    goggles = _setup(run, _goggles)
    rounds: list[float] = []
    while _another(rounds, seconds / 2 if trace else seconds):
        rounds.append(_label_round(run, goggles, seed, n, len(rounds), record=True))
    run.details["rounds"] = len(rounds)
    if not trace:
        _measured(run, _goggles)
        return
    tracer = Tracer()
    tracer.install()
    try:
        traced = [_label_round(run, goggles, seed, n, number, record=False) for number in range(len(rounds))]
    finally:
        tracer.uninstall()
    run.layer = LayerInputs(
        tracer=tracer, ops=len(rounds) * len(DATASETS), op_wall_s=sum(traced),
        traced_e2e_s=sum(traced), untraced_e2e_s=sum(rounds),
    )


# ----------------------------------------------------------------------
# relabel-cached
# ----------------------------------------------------------------------
def _cycle_order(seed: int, cycle: int) -> list[int]:
    """First visits in pool order, then every corpus revisited
    ``CACHE_REVISITS`` times in seeded order."""
    revisits = [index for index in range(CACHE_POOL) for _ in range(CACHE_REVISITS)]
    random.Random(derive(seed, "revisits", cycle)).shuffle(revisits)
    return list(range(CACHE_POOL)) + revisits


def run_cached(run: Run, n: int, seed: int, seconds: float, trace: bool, workdir: Path) -> None:
    dirs = (workdir / f"cache-{number}" for number in itertools.count())

    def build():
        return _goggles(next(dirs))

    _setup(run, build).close()
    pool = [_corpus(seed, index, n) for index in range(CACHE_POOL)]
    for dataset, _ in pool:
        run.digest.update(np.ascontiguousarray(dataset.images).tobytes())
    first: dict[int, np.ndarray] = {}
    visits = hits = 0

    def cycle(number: int, tracer: Tracer | None) -> list[float]:
        """One pass over the pool with a cache in a fresh directory."""
        nonlocal visits, hits
        goggles = build()
        walls = []
        for index in _cycle_order(seed, number):
            dataset, dev = pool[index]
            before = dict(tracer.counts) if tracer is not None else {}
            wall, labels = _label_op(run, goggles, dataset, dev)
            walls.append(wall)
            if tracer is None:
                _record_label(run, wall, labels, dataset, dev)
            else:
                visits += 1
                missed = tracer.counts.get("cache.misses", 0) > before.get("cache.misses", 0)
                found = tracer.counts.get("cache.hits", 0) > before.get("cache.hits", 0)
                hits += int(found and not missed)
            # Hits and rebuilds alike must reproduce the first labels exactly.
            if labels is not None and not np.array_equal(labels, first.setdefault(index, labels)):
                run.fail("relabeling a corpus changed its labels")
        return walls

    cycle_walls, walls = [], []
    while _another(cycle_walls, seconds / 2 if trace else seconds):
        ops = cycle(len(cycle_walls), None)
        walls += ops
        cycle_walls.append(sum(ops))
    cycles = len(cycle_walls)
    run.details["cycles"] = cycles
    run.details["cache.revisit_share"] = CACHE_REVISITS / (CACHE_REVISITS + 1)
    if not trace:
        _measured(run, build)
        return
    tracer = Tracer()
    tracer.install()
    traced = []
    try:
        for number in range(cycles):
            traced += cycle(number, tracer)
    finally:
        tracer.uninstall()
    run.layer = LayerInputs(
        tracer=tracer, ops=len(traced), op_wall_s=sum(traced),
        traced_e2e_s=sum(traced), untraced_e2e_s=sum(walls),
        cache_ops=visits, cache_hit_ops=hits,
    )


# ----------------------------------------------------------------------
# serve-online
# ----------------------------------------------------------------------
@dataclass
class Schedule:
    """Open-loop arrivals: send offsets (s) and the images each carries."""

    window_s: float
    offsets: list[float]
    batches: list[np.ndarray]
    truths: list[np.ndarray]


def _schedule(seed: int, span_s: float, run: Run) -> Schedule:
    from repro import make_dataset

    # The request stream (sizes, images, order) is one fixed trace of the
    # task; the seed draws its arrival times.  Which requests make the
    # online session refit depends on the images, so a seeded stream
    # would change the refit count run to run and with it every
    # latency figure.
    count = max(1, round(SERVE_RATE_PER_S * span_s))
    arrivals = random.Random(derive(seed, "arrivals"))
    offsets = sorted(arrivals.uniform(0.0, span_s) for _ in range(count))
    sizes = [1 + (i % 4) for i in range(count)]  # 1-4 images, mean 2.5
    random.Random(TASK_SEED).shuffle(sizes)
    rows = sum(sizes)
    held_out = make_dataset(
        "cub", n_per_class=math.ceil(rows / N_CLASSES), seed=TASK_SEED + 1, pair_seed=TASK_SEED
    )
    order = np.random.default_rng(TASK_SEED).permutation(held_out.n_examples)
    images, labels = held_out.images[order], held_out.labels[order]
    run.digest.update(np.asarray(offsets).tobytes())
    run.digest.update(np.ascontiguousarray(images[:rows]).tobytes())
    bounds = np.cumsum([0] + sizes)
    return Schedule(
        window_s=span_s,
        offsets=offsets,
        batches=[images[a:b] for a, b in zip(bounds[:-1], bounds[1:])],
        truths=[labels[a:b] for a, b in zip(bounds[:-1], bounds[1:])],
    )


class _Server:
    """A labeling service seeded with the corpus, behind ``serve_http``."""

    def __init__(self, corpus, dev):
        from repro.serving import LabelingService, serve_http

        self.service = LabelingService(_goggles(), dev, mode="online")
        self.service.start(corpus.images)
        self.http = serve_http(self.service)
        self.port = self.http.port

    def close(self) -> None:
        self.http.shutdown()
        self.http.server_close()
        self.service.stop()


def _drive(server: _Server, schedule: Schedule, run: Run, workdir: Path) -> dict:
    """Drive ``server`` with the load generator process, then drain the
    service so that tickets the generator gave up on count once resolved."""
    arrays = {"offsets": np.asarray(schedule.offsets), "window_s": np.float64(schedule.window_s)}
    for index, (batch, truth) in enumerate(zip(schedule.batches, schedule.truths)):
        arrays[f"batch_{index}"], arrays[f"truth_{index}"] = batch, truth
    schedule_path, result_path = workdir / "schedule.npz", workdir / "loadgen.json"
    np.savez(schedule_path, **arrays)
    command = [sys.executable, str(Path(__file__).with_name("loadgen.py")), str(server.port),
               str(schedule_path), str(result_path)]
    subprocess.run(command, check=True, timeout=schedule.window_s + loadgen.RESOLVE_TIMEOUT_S + 60)
    drive = json.loads(result_path.read_text())
    server.service.stop()
    for ticket, index in drive["late"].items():
        if server.service.poll(ticket).state == "done":
            drive["rows_done"] += schedule.batches[index].shape[0]
    for reason in drive["failures"]:
        run.fail(reason)
    return drive


def _reconcile(run: Run, drive: dict, server: _Server) -> None:
    """Tickets add up, and the rows the service labeled are the rows the
    client received (plus any it had given up on)."""
    if drive["sent"] != drive["done"] + drive["failed"] + drive["timed_out"]:
        run.fail(f"tickets do not reconcile: sent {drive['sent']}, done {drive['done']}, "
                 f"failed {drive['failed']}, timed out {drive['timed_out']}")
    if server.service.n_labeled != drive["rows_done"]:
        run.fail(f"service labeled {server.service.n_labeled} rows, client received {drive['rows_done']}")


def run_serve(run: Run, n: int, seed: int, seconds: float, trace: bool, workdir: Path) -> None:
    from repro import make_dataset

    corpus = make_dataset("cub", n_per_class=n // N_CLASSES, seed=TASK_SEED, pair_seed=TASK_SEED)
    dev = corpus.sample_dev_set(per_class=DEV_PER_CLASS, seed=TASK_SEED)
    run.digest.update(np.ascontiguousarray(corpus.images).tobytes())
    schedule = _schedule(seed, seconds / 2 if trace else seconds, run)

    def build():
        return _Server(corpus, dev)

    server = _setup(run, build)
    try:
        drive = _drive(server, schedule, run, workdir)
        _reconcile(run, drive, server)
    finally:
        server.close()
    run.attempted += drive["sent"]
    run.latencies = drive["latencies"]
    run.images = drive["rows_done"]
    run.busy_s = drive["span_s"]
    run.good = drive["good"]
    run.correct_rows, run.scored_rows = drive["correct_rows"], drive["scored_rows"]
    run.details["corpus_size"] = server.service.corpus_size
    run.details["batches"] = server.service.n_batches
    run.details["refits"] = server.service.online_stats["refits"]
    if not trace:
        _measured(run, build)
        return
    server = _Server(corpus, dev)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _drive(server, schedule, run, workdir)
        _reconcile(run, traced, server)
    finally:
        tracer.uninstall()
        server.close()
    run.attempted += traced["sent"]
    run.layer = LayerInputs(
        tracer=tracer, ops=len(tracer.op_walls), op_wall_s=sum(tracer.op_walls),
        # Two services fed the same trace: compare mean latencies.  A pass
        # is half the run, and up to half its requests wait behind refits,
        # so its median can fall on either side of that gap.
        traced_e2e_s=statistics.fmean(traced["latencies"]),
        untraced_e2e_s=statistics.fmean(drive["latencies"]),
        client={"submit_s": traced["submit_s"], "send_lag_s": traced["send_lag_s"]},
        sent=traced["sent"], polls=traced["polls"], rows_labeled=traced["rows_done"],
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool, workdir: Path) -> Run:
    sizes = SMOKE if smoke else Sizes()
    run = Run(workload=name)
    if name == "label-n160":
        run_label(run, sizes.label_n160, seed, seconds, trace)
    elif name == "label-n640":
        run_label(run, sizes.label_n640, seed, seconds, trace)
    elif name == "relabel-cached":
        run_cached(run, sizes.cached, seed, seconds, trace, workdir)
    elif name == "serve-online":
        run_serve(run, sizes.serve_corpus, seed, seconds, trace, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    run.details["inputs_sha256"] = run.digest.hexdigest()
    return run

