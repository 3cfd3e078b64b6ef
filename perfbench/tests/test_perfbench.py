"""Tests for the benchmark's own logic: self-time arithmetic, wrapper-cost
subtraction, patching, digest checks, host-speed normalisation, the
seeded corpus and the metric list in BENCHMARK.json.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import signal
import sys
import time
import types

import pytest

import hostspeed
import layers
import run
from corpus import write_corpus
from hostspeed import SpeedProbe
from layers import Layer, Tracer, calibrate, install, percentile, uninstall
from workloads import Meter, UnitResult, dataset_digest, flatten_counters

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class ScriptedClock:
    """A clock that only moves when the code under test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


def nested_calls(tracer: Tracer, clock: ScriptedClock):
    """top (5 + 1 self) → mid (1 + 3 self) → leaf (2) twice."""
    leaf = tracer.wrap("leaf", lambda: clock.spend(2))

    def mid_body():
        clock.spend(1)
        leaf()
        clock.spend(3)
        leaf()

    mid = tracer.wrap("mid", mid_body)

    def top_body():
        clock.spend(5)
        mid()
        clock.spend(1)

    return tracer.wrap("top", top_body)


def test_self_time_nested_and_repeated_spans():
    clock = ScriptedClock()
    tracer = Tracer(clock)
    top = nested_calls(tracer, clock)
    top()
    top()
    records = tracer.records
    assert (records["leaf"].calls, records["leaf"].self_s) == (4, 8.0)
    assert (records["mid"].calls, records["mid"].self_s) == (2, 8.0)
    assert (records["top"].calls, records["top"].self_s) == (2, 12.0)
    assert tracer.root_s == clock.now == 28.0
    assert tracer.unattributed_s(clock.now) == 0.0


def test_self_time_of_recursive_span_counts_each_level_once():
    clock = ScriptedClock()
    tracer = Tracer(clock)

    def countdown(n):
        clock.spend(1)
        if n:
            traced(n - 1)

    traced = tracer.wrap("countdown", countdown)
    traced(3)
    assert tracer.records["countdown"].calls == 4
    assert tracer.records["countdown"].self_s == 4.0
    assert tracer.root_s == 4.0


def test_wrapper_cost_is_subtracted_from_callee_and_caller():
    clock = ScriptedClock()
    tracer = Tracer(clock, inner_cost=0.5, outer_cost=0.25)
    top = nested_calls(tracer, clock)
    top()
    top()
    records = tracer.records
    # Own inner cost per call; each child's outer cost lands in the parent.
    assert records["leaf"].self_s == pytest.approx(8.0 - 4 * 0.5)
    assert records["mid"].self_s == pytest.approx(8.0 - 2 * 0.5 - 4 * 0.25)
    assert records["top"].self_s == pytest.approx(12.0 - 2 * 0.5 - 2 * 0.25)
    assert tracer.overhead_s() == pytest.approx(8 * 0.75)
    # Root spans carry their own outer cost; nothing is left unattributed.
    assert tracer.root_s == pytest.approx(28.0 + 2 * 0.25)
    assert tracer.unattributed_s(tracer.root_s) == pytest.approx(0.0)


def test_time_outside_wrapped_calls_is_unattributed():
    clock = ScriptedClock()
    tracer = Tracer(clock)
    top = nested_calls(tracer, clock)
    clock.spend(3)
    top()
    assert tracer.unattributed_s(clock.now) == pytest.approx(3.0)


def test_samples_exclude_nested_wrapper_cost_and_units_accumulate():
    clock = ScriptedClock()
    tracer = Tracer(clock, inner_cost=0.5, outer_cost=0.25)
    draw = tracer.wrap("draw", lambda n: clock.spend(1),
                       units=lambda args, kwargs: args[0])

    def grab_body():
        clock.spend(2)
        draw(16)
        draw(32)

    grab = tracer.wrap("grab", grab_body, sample=True)
    grab()
    assert tracer.records["draw"].units == 48
    assert tracer.records["grab"].samples == [pytest.approx(4.0 - 0.5 - 2 * 0.75)]


def test_calibrated_cost_is_small_and_non_negative():
    inner, outer = calibrate(rounds=2, calls=2000)
    assert inner >= 0.0 and outer >= 0.0
    assert inner + outer < 50e-6


def test_percentile_nearest_rank():
    assert percentile([], 0.5) == 0.0
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert percentile(list(range(1, 101)), 0.99) == 99


def test_install_patches_every_site_and_uninstall_restores():
    import repro.scanner.grab as grab
    import repro.tls.fastpath as fastpath
    from repro.analysis.aggregates import SpanAggregate

    original = fastpath.fast_handshake
    original_fold = vars(SpanAggregate)["fold"]
    tracer = Tracer()
    undo = install(tracer)
    try:
        assert grab.fast_handshake is fastpath.fast_handshake
        assert grab.fast_handshake.__wrapped__ is original
        assert vars(SpanAggregate)["fold"].__wrapped__ is original_fold
    finally:
        uninstall(undo)
    assert grab.fast_handshake is original
    assert vars(SpanAggregate)["fold"] is original_fold


def test_install_refuses_a_site_that_no_longer_holds_the_function(monkeypatch):
    owner = types.ModuleType("perfbench_fake_owner")
    site = types.ModuleType("perfbench_fake_site")
    owner.work = lambda: None
    site.work = lambda: None  # a different function: the import drifted
    monkeypatch.setitem(sys.modules, owner.__name__, owner)
    monkeypatch.setitem(sys.modules, site.__name__, site)
    original = owner.work
    with pytest.raises(LookupError):
        install(Tracer(), [Layer("fake.work", owner.__name__, "work",
                                 sites=(site.__name__,))])
    assert owner.work is original


def write_dataset(directory):
    from repro.scanner.records import CHANNELS

    os.makedirs(directory)
    for name in CHANNELS:
        with open(os.path.join(directory, f"{name}.jsonl"), "w") as fh:
            fh.write(json.dumps({"channel": name}) + "\n")
    with open(os.path.join(directory, "meta.json"), "w") as fh:
        fh.write('{"days": 1}')


def test_digest_check_fails_on_a_flipped_byte(tmp_path):
    directory = str(tmp_path / "dataset")
    write_dataset(directory)
    expected = dataset_digest(directory)
    path = os.path.join(directory, "ticket_daily.jsonl")
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[3] ^= 0x01
    with open(path, "wb") as fh:
        fh.write(bytes(data))
    flipped = dataset_digest(directory)
    assert flipped != expected

    checker = run.Run(types.SimpleNamespace(name="none"), 1, str(tmp_path))
    checker.pinned = expected
    checker.attempted = 2
    checker.units = [UnitResult(1.0, [1.0], 10, expected),
                     UnitResult(1.0, [1.0], 10, flipped)]
    good, varying = checker.checked()
    assert good == checker.units[:1]
    assert varying == []
    result = checker.result({"wall_s": 1.0}, good)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)


def test_counters_that_vary_between_units_are_flagged(tmp_path):
    checker = run.Run(types.SimpleNamespace(name="none"), 1, str(tmp_path))
    checker.attempted = 3
    checker.units = [UnitResult(1.0, [1.0], 10, "d", counters={"a": 1, "b": 2}),
                     UnitResult(1.0, [1.0], 10, "d", counters={"a": 1, "b": 2}),
                     UnitResult(1.0, [1.0], 10, "d", counters={"a": 1, "b": 3})]
    good, varying = checker.checked()
    assert varying == ["b"]
    assert len(good) == 2
    assert checker.result({}, good)["correct"] is False


def test_flattened_counters_and_prefix_sums():
    flat = flatten_counters({"counters": {
        "scanner.grab.retry{reason=outage}": 2,
        "scanner.grab.retry{reason=reset}": 3,
        "tls.server.handshake{kex=dhe,kind=full}": 4,
        "tls.ticket.open": 5,
        "tls.ticket.open_wrong_key": 6,
    }})
    assert flat["tls.server.handshake.dhe.full"] == 4
    assert run.counter_value(flat, "scanner.grab.retry") == 5
    assert run.counter_value(flat, "tls.ticket.open") == 5


def corpus_files(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


def test_seeded_corpus_is_deterministic(tmp_path):
    first = write_corpus(str(tmp_path / "a"), 7, 12, 5)
    second = write_corpus(str(tmp_path / "b"), 7, 12, 5)
    other = write_corpus(str(tmp_path / "c"), 8, 12, 5)
    assert first == second
    assert first["rows"] == sum(first["channels"].values()) > 0
    assert corpus_files(str(tmp_path / "a")) == corpus_files(str(tmp_path / "b"))
    assert dataset_digest(str(tmp_path / "a")) != dataset_digest(str(tmp_path / "c"))
    assert other["domains"] == 12


def test_benchmark_json_lists_exactly_what_the_runs_report():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"]), metric["name"]
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m.metric for m in layers.LAYERS} <= {
        name.rsplit(".", 1)[0] for name in run.per_layer_names()}


def test_speed_probe_removes_probe_time_and_scales_to_nominal():
    probe = SpeedProbe()
    probe.samples = [0.001, 0.003, 0.002]
    probe.wall_s = 1.0
    assert probe.seconds() == pytest.approx(
        (1.0 - 0.006) * hostspeed.NOMINAL_PROBE_S / 0.002)
    probe.samples = []
    with pytest.raises(ValueError):
        probe.seconds()


def test_speed_probe_samples_while_the_phase_runs_and_restores_sigalrm():
    previous = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    assert len(probe.samples) >= 3
    assert probe.wall_s >= 0.1
    assert 0 < probe.seconds()
    assert signal.getsignal(signal.SIGALRM) is previous


def test_unprobed_meter_reports_wall_seconds_and_ends_the_trace_once():
    stops = []
    meter = Meter(False, lambda: stops.append(1))
    result, seconds = meter.time(lambda x: x * 2, 21)
    assert result == 42 and seconds == meter.raw[0] >= 0
    meter.end_trace()
    meter.end_trace()
    assert stops == [1]
