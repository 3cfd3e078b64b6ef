"""The benchmark's workloads and the unit each run repeats.

A *unit* is one closed batch: set-up (ecosystem build, or corpus
generation) followed by the measured phase (the study, or the cold
single-worker report+audit), then an output check.  Everything is
generated from the seed inside this process; the program only sees the
resulting ``EcosystemConfig``/``StudyConfig`` or dataset directory.
Every unit runs with ``workers=1, shards=1`` except the ``report_audit``
pass that exists to measure ``workers=2``.

Why each workload exists (README.md has the full table):

* ``sweep_10k`` — daily sweeps over a 10,000-domain population streamed
  to disk: the scan hot path at population scale (server ephemerals,
  DRBG, ticket sealing, record encoding, sink I/O).  It never resumes a
  session, so it is the no-change control for resumption-layer work.
* ``mix_chaos`` — every experiment on a smaller population under a
  fixed chaos profile with retries and a circuit breaker: resumption,
  probe interleaving on the event loop, impairment and retry.
* ``report_audit`` — the streamed analysis over a seeded synthetic
  corpus: the fold (cold, one worker), the fan-out (cold, two workers)
  and the partial cache (warm).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import repro.analysis.reports as reports
import repro.hosting as hosting
from repro.analysis import (
    CACHE_DIR_NAME,
    AnalysisEngine,
    audit_inputs_from_analysis,
    report_inputs_from_analysis,
)
from repro.faults import RetryPolicy, seeded_profile
from repro.hosting import EcosystemConfig
from repro.obs.metrics import METRICS, parse_key
from repro.scanner import StudyConfig, run_study_with_stats
from repro.scanner.datastore import channel_path
from repro.scanner.records import CHANNELS

from corpus import write_corpus
from hostspeed import SpeedProbe


class CheckFailed(Exception):
    """A unit produced output that failed its correctness check."""


@dataclass
class UnitResult:
    """What one unit measured and produced."""

    setup_s: float
    #: Seconds of each repetition of the measured phase; the traced span
    #: of a traced unit ends with the first.
    walls: list
    items: int
    digest: str
    #: Seconds of further timed phases (``report_audit``: w2, warm).
    phases: dict = field(default_factory=dict)
    #: Exact obs counters for the unit, flattened (see flatten_counters).
    counters: dict = field(default_factory=dict)
    #: Wall seconds of every timed phase, in order, before normalisation.
    raw: list = field(default_factory=list)


class Meter:
    """Times the phases of one unit.

    With ``probe`` every phase runs under a :class:`SpeedProbe` and its
    time is reported in host-speed-normalised seconds; otherwise (traced
    runs) in wall seconds.  ``raw`` collects the wall seconds either
    way.  :meth:`end_trace` calls ``stop_trace`` once, when the phase
    the traced span covers is over.
    """

    def __init__(self, probe: bool, stop_trace: Callable[[], None]) -> None:
        self.probe = probe
        self.raw: list = []
        self._stop_trace = stop_trace

    def time(self, fn: Callable, *args):
        """``(fn(*args), seconds)``."""
        if self.probe:
            with SpeedProbe() as probe:
                result = fn(*args)
            self.raw.append(probe.wall_s)
            return result, probe.seconds()
        started = time.perf_counter()
        result = fn(*args)
        self.raw.append(time.perf_counter() - started)
        return result, self.raw[-1]

    def end_trace(self) -> None:
        stop, self._stop_trace = self._stop_trace, lambda: None
        stop()


def file_digest(path: str) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


def dataset_digest(directory: str) -> str:
    """sha256 over every channel file and ``meta.json`` of a dataset."""
    sha = hashlib.sha256()
    for name in sorted(CHANNELS):
        path = channel_path(directory, name)
        sha.update(f"{name} {file_digest(path)}\n".encode())
    sha.update(f"meta {file_digest(os.path.join(directory, 'meta.json'))}\n"
               .encode())
    return sha.hexdigest()


def flatten_counters(delta: dict) -> dict:
    """``name{a=x,b=y}`` counter keys as ``name.x.y`` (label-name order)."""
    flat = {}
    for key, value in delta.get("counters", {}).items():
        name, labels = parse_key(key)
        dotted = ".".join([name] + [labels[label] for label in sorted(labels)])
        flat[dotted] = flat.get(dotted, 0) + value
    return flat


class Workload:
    """One named workload: ``setup`` then ``measure``, repeatable."""

    name: str
    #: What ``items`` counts (the per-layer normalisation base).
    item: str

    def setup(self, seed: int, directory: str):
        raise NotImplementedError

    def measure(self, state, seed: int, directory: str,
                meter: Meter) -> tuple[list, int, str, dict]:
        """Run the measured phase: ``(walls, items, digest, phases)``.

        Phases are timed with ``meter``; ``meter.end_trace()`` is called
        once the first measured phase is over.
        """
        raise NotImplementedError

    def warmup(self, directory: str) -> None:
        """A small untimed unit so lazy tables are built before timing."""
        raise NotImplementedError


@dataclass
class ScanWorkload(Workload):
    """A study over a freshly built ecosystem, streamed to disk."""

    name: str
    population: int
    days: int
    #: StudyConfig fields for a study of ``days`` days.
    study: Callable[[int], dict]
    item: str = "grab"
    #: Each grab yields one record (true when only sweeps run).
    one_record_per_grab: bool = False

    def setup(self, seed: int, directory: str):
        return hosting.build_ecosystem(
            EcosystemConfig(population=self.population, seed=seed))

    def config(self, seed: int, directory: str) -> StudyConfig:
        return StudyConfig(days=self.days, seed=seed, workers=1, shards=1,
                           stream_dir=directory, **self.study(self.days))

    def measure(self, ecosystem, seed, directory, meter):
        dataset_dir = os.path.join(directory, "dataset")
        config = self.config(seed, dataset_dir)
        (_, stats), wall_s = meter.time(run_study_with_stats, ecosystem, config)
        meter.end_trace()
        records = sum(stats.records_by_channel.values())
        if stats.grabs <= 0 or records <= 0:
            raise CheckFailed(f"empty study: {stats.grabs} grabs, "
                              f"{records} records")
        if self.one_record_per_grab and records != stats.grabs:
            raise CheckFailed(f"{records} records for {stats.grabs} grabs")
        return [wall_s], stats.grabs, dataset_digest(dataset_dir), {}

    def warmup(self, directory: str) -> None:
        ecosystem = hosting.build_ecosystem(
            EcosystemConfig(population=WARMUP_POPULATION, seed=0))
        run_study_with_stats(ecosystem, StudyConfig(
            days=1, seed=0, stream_dir=directory, **_sweeps_only(1)))


def _sweeps_only(days: int) -> dict:
    return {"run_support_scans": False, "run_crossdomain": False,
            "run_probes": False}


def _every_experiment_under_chaos(days: int) -> dict:
    # Support scans share day 1, the cross-domain and session-ID probes
    # day 2 and the ticket probe the last day, so a 4-day study runs
    # every experiment; 24-hour probes still overlap day boundaries.
    # The chaos schedule is fixed: where its outage lands decides how
    # many retries a study makes, so deriving it from the seed would make
    # the work per run swing by half between seeds.
    return {
        "probe_domain_count": 200,
        "dhe_support_day": 1, "ecdhe_support_day": 1, "ticket_support_day": 1,
        "crossdomain_day": 2, "session_probe_day": 2, "ticket_probe_day": 3,
        "chaos": seeded_profile(CHAOS_SEED, days),
        "retry": RetryPolicy(max_attempts=3, breaker_threshold=5),
    }


#: The report+audit passes: ``(workers, cold cache)``.
PASSES = {"cold_w1": (1, True), "cold_w2": (2, True), "warm": (1, False)}


@dataclass
class ReportAuditWorkload(Workload):
    """``analyze`` → ``render_report`` + ``render_audit`` on a corpus."""

    name: str = "report_audit"
    domains: int = 600
    days: int = 40
    #: Cold ``workers=1`` passes per corpus: the fold is short, so one
    #: unit times it several times for a steadier median.
    rounds: int = 6
    item: str = "row"

    def setup(self, seed: int, directory: str):
        corpus_dir = os.path.join(directory, "corpus")
        return corpus_dir, write_corpus(corpus_dir, seed, self.domains,
                                        self.days)

    @staticmethod
    def report_audit(directory: str, workers: int):
        result = AnalysisEngine(directory=directory, workers=workers).run()
        text = (reports.render_report(report_inputs_from_analysis(result))
                + "\n"
                + reports.render_audit(audit_inputs_from_analysis(result),
                                       worst=10))
        return result, text

    def measure(self, state, seed, directory, meter):
        corpus_dir, corpus = state
        cache_dir = os.path.join(corpus_dir, CACHE_DIR_NAME)
        folded = {channel: corpus["channels"][channel]
                  for channel in AnalysisEngine(directory=corpus_dir).channels()
                  if corpus["channels"][channel]}
        timings: dict = {phase: [] for phase in PASSES}
        texts = set()
        for phase in ["cold_w1"] * self.rounds + ["cold_w2", "warm"]:
            workers, cold = PASSES[phase]
            if cold:
                shutil.rmtree(cache_dir, ignore_errors=True)
            (result, text), seconds = meter.time(self.report_audit,
                                                 corpus_dir, workers)
            timings[phase].append(seconds)
            meter.end_trace()
            texts.add(text)
            if {channel: rows for channel, rows
                    in result.channel_rows.items() if rows} != folded:
                raise CheckFailed(f"{phase}: folded {result.channel_rows}, "
                                  f"wrote {folded}")
            hits = result.chunks if not cold else 0
            if result.cache_hits != hits:
                raise CheckFailed(f"{phase}: {result.cache_hits} cache hits "
                                  f"of {result.chunks} chunks")
        if len(texts) != 1:
            raise CheckFailed("report+audit text differs between passes")
        digest = hashlib.sha256(texts.pop().encode("utf-8")).hexdigest()
        return (timings["cold_w1"], sum(folded.values()), digest,
                {"report_audit_w2_s": timings["cold_w2"],
                 "report_audit_warm_s": timings["warm"]})

    def warmup(self, directory: str) -> None:
        corpus_dir = os.path.join(directory, "corpus")
        write_corpus(corpus_dir, 0, 40, 8)
        self.report_audit(corpus_dir, 1)


#: Smallest population the ecosystem builder accepts comfortably.
WARMUP_POPULATION = 330
#: Seed of the ``mix_chaos`` impairment schedule (``repro --chaos 2016``).
CHAOS_SEED = 2016

WORKLOADS = {
    workload.name: workload for workload in (
        ScanWorkload("sweep_10k", population=10_000, days=1,
                     study=_sweeps_only, one_record_per_grab=True),
        ScanWorkload("mix_chaos", population=450, days=4,
                     study=_every_experiment_under_chaos),
        ReportAuditWorkload(),
    )
}


def run_unit(workload: Workload, seed: int, directory: str, probe: bool,
             tracer_hooks: Optional[tuple] = None) -> UnitResult:
    """Set up, measure and check one unit in ``directory``.

    ``probe`` selects host-speed-normalised seconds (see :class:`Meter`).
    ``tracer_hooks`` is ``(start, stop)``: ``start()`` before set-up,
    ``stop()`` when the first measured phase ends, so the traced span is
    the one :attr:`UnitResult.setup_s` + ``walls[0]`` time.
    """
    start, stop = tracer_hooks or (lambda: None, lambda: None)
    meter = Meter(probe, stop)
    base = METRICS.snapshot()
    start()
    try:
        state, setup_s = meter.time(workload.setup, seed, directory)
        walls, items, digest, phases = workload.measure(
            state, seed, directory, meter)
    finally:
        meter.end_trace()
    counters = flatten_counters(METRICS.snapshot_delta(base))
    return UnitResult(setup_s=setup_s, walls=walls, items=items,
                      digest=digest, phases=phases, counters=counters,
                      raw=meter.raw)
