"""Sweep scheduling tests."""

import pytest

import repro.scanner.schedule as schedule
from repro.crypto.rng import DeterministicRandom
from repro.netsim.clock import HOUR
from repro.scanner import SweepConfig, ZGrabber, sweep, thirty_minute_scan


@pytest.fixture()
def ecosystem(small_ecosystem_factory):
    return small_ecosystem_factory(population=380, seed=21)


@pytest.fixture()
def grabber(ecosystem):
    return ZGrabber(ecosystem, DeterministicRandom(777))


def test_sweep_scans_every_domain_once(grabber):
    domains = grabber.ecosystem.alexa_list()[:50]
    observations = sweep(grabber, domains, SweepConfig(window_seconds=HOUR))
    assert len(observations) == 50
    assert {o.domain for o in observations} == {name for _, name in domains}


def test_sweep_spreads_over_window(grabber):
    domains = grabber.ecosystem.alexa_list()[:40]
    start = grabber.ecosystem.clock.now()
    observations = sweep(grabber, domains, SweepConfig(window_seconds=2 * HOUR))
    elapsed = observations[-1].timestamp - start
    assert 1.5 * HOUR < elapsed <= 2 * HOUR


def test_sweep_multi_connection(grabber):
    domains = grabber.ecosystem.alexa_list()[:20]
    observations = sweep(
        grabber, domains, SweepConfig(connections_per_domain=3, window_seconds=HOUR)
    )
    assert len(observations) == 60
    per_domain = {}
    for o in observations:
        per_domain.setdefault(o.domain, 0)
        per_domain[o.domain] += 1
    assert all(count == 3 for count in per_domain.values())


def test_sweep_empty_list(grabber):
    assert sweep(grabber, [], SweepConfig()) == []
    batches = []
    assert sweep(grabber, [], SweepConfig(), sink=batches.append) == []
    assert batches == []


def test_sweep_records_ranks(grabber):
    domains = grabber.ecosystem.alexa_list()[:10]
    observations = sweep(grabber, domains, SweepConfig(window_seconds=60))
    for (rank, name), observation in zip(domains, observations):
        assert observation.rank == rank
        assert observation.domain == name


def test_sweep_sink_flushes_bounded_batches(small_ecosystem_factory, monkeypatch):
    monkeypatch.setattr(schedule, "FLUSH_BATCH", 8)
    config = SweepConfig(connections_per_domain=2, window_seconds=HOUR)

    def run(sink):
        ecosystem = small_ecosystem_factory(population=380, seed=21)
        grabber = ZGrabber(ecosystem, DeterministicRandom(777))
        return sweep(grabber, ecosystem.alexa_list()[:25], config, sink=sink)

    batches = []
    assert run(batches.append) == []
    expected = run(None)
    assert len(expected) == 50 > schedule.FLUSH_BATCH
    assert [len(batch) for batch in batches] == [8] * 6 + [2]
    flushed = [o for batch in batches for o in batch]
    assert [o.to_json() for o in flushed] == [o.to_json() for o in expected]


def test_thirty_minute_scan_duration(grabber):
    ecosystem = grabber.ecosystem
    start = ecosystem.clock.now()
    observations = thirty_minute_scan(grabber, ecosystem.alexa_list()[:25])
    assert len(observations) == 25
    assert ecosystem.clock.now() - start <= 30 * 60 + 1
