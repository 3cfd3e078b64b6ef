"""Full-study orchestration and dataset persistence tests.

These use the shared session-scoped study dataset to stay fast.
"""

import dataclasses

import pytest

from repro.scanner import StudyConfig, StudyDataset, load_dataset, save_dataset

from conftest import SMALL_DAYS, SMALL_POPULATION


def test_daily_sweeps_cover_all_days(small_study):
    _, dataset = small_study
    for observations in (dataset.ticket_daily, dataset.dhe_daily, dataset.ecdhe_daily):
        assert {o.day for o in observations} == set(range(SMALL_DAYS))


def test_daily_sweep_sizes(small_study):
    _, dataset = small_study
    per_day = len(dataset.ticket_daily) / SMALL_DAYS
    # Population minus blacklist, plus/minus churn.
    assert SMALL_POPULATION * 0.95 < per_day <= SMALL_POPULATION


def test_blacklisted_domains_never_scanned(small_study):
    ecosystem, dataset = small_study
    scanned = {o.domain for o in dataset.ticket_daily}
    assert ecosystem.blacklist
    assert not (scanned & ecosystem.blacklist)


def test_support_scans_ran(small_study):
    _, dataset = small_study
    assert dataset.ticket_support and dataset.dhe_support and dataset.ecdhe_support
    assert dataset.ticket_30min and dataset.dhe_30min and dataset.ecdhe_30min
    assert dataset.list_sizes["ticket"][0] >= dataset.list_sizes["ticket"][1]


def test_support_scan_ten_connections(small_study):
    _, dataset = small_study
    per_domain = {}
    for o in dataset.ticket_support:
        per_domain[o.domain] = per_domain.get(o.domain, 0) + 1
    assert max(per_domain.values()) == 10
    assert min(per_domain.values()) == 10


def test_probes_ran(small_study):
    _, dataset = small_study
    assert dataset.session_probes and dataset.ticket_probes
    assert any(p.resumed_at_1s for p in dataset.session_probes)
    assert any(p.resumed_at_1s for p in dataset.ticket_probes)


def test_crossdomain_ran(small_study):
    _, dataset = small_study
    assert dataset.crossdomain_targets
    assert dataset.cache_edges  # providers guarantee shared caches


def test_always_present_subset_of_day0(small_study):
    _, dataset = small_study
    day0 = {name for _, name in dataset.day0_list}
    assert set(dataset.always_present) <= day0
    assert len(dataset.always_present) < len(day0)  # churn happened


def test_as_knowledge_collected(small_study):
    _, dataset = small_study
    assert dataset.domain_asn
    assert dataset.as_names
    assert all(asn in dataset.as_names for asn in set(dataset.domain_asn.values()))


def test_ranks_recorded(small_study):
    _, dataset = small_study
    assert dataset.ranks
    scanned = {o.domain for o in dataset.ticket_daily if o.success}
    assert scanned <= set(dataset.ranks)


def test_success_rate_reasonable(small_study):
    _, dataset = small_study
    ok = sum(1 for o in dataset.ticket_daily if o.success)
    rate = ok / len(dataset.ticket_daily)
    # Small populations are provider-heavy (all HTTPS), so the rate
    # lands well above the independent-domain 70% HTTPS share.
    assert 0.55 < rate < 0.97


def test_dataset_roundtrip_via_jsonl(small_study, tmp_path):
    _, dataset = small_study
    directory = tmp_path / "dataset"
    save_dataset(dataset, str(directory))
    loaded = load_dataset(str(directory))
    assert loaded.days == dataset.days
    assert loaded.always_present == dataset.always_present
    assert loaded.ranks == dataset.ranks
    assert loaded.ticket_daily == dataset.ticket_daily
    assert loaded.dhe_support == dataset.dhe_support
    assert loaded.session_probes == dataset.session_probes
    assert loaded.cache_edges == dataset.cache_edges
    assert loaded.as_names == dataset.as_names
    assert loaded.list_sizes == dataset.list_sizes


def test_empty_dataset_roundtrip(tmp_path):
    dataset = StudyDataset(days=0)
    directory = tmp_path / "empty"
    save_dataset(dataset, str(directory))
    loaded = load_dataset(str(directory))
    assert loaded.days == 0
    assert loaded.ticket_daily == []


def test_dataset_roundtrip_every_field(small_study, tmp_path):
    """save → load restores *every* dataset field, types included."""
    _, dataset = small_study
    directory = tmp_path / "full"
    save_dataset(dataset, str(directory))
    loaded = load_dataset(str(directory))
    for f in dataclasses.fields(StudyDataset):
        original = getattr(dataset, f.name)
        restored = getattr(loaded, f.name)
        if f.name == "day0_list":
            assert restored == [tuple(pair) for pair in original], f.name
        else:
            assert restored == original, f.name
    # JSON round-trip hazards, explicitly: tuples and int keys.
    assert all(isinstance(pair, tuple) for pair in loaded.day0_list)
    assert loaded.list_sizes and all(
        isinstance(v, tuple) for v in loaded.list_sizes.values()
    )
    assert loaded.as_names and all(
        isinstance(k, int) for k in loaded.as_names
    )


def test_saving_loaded_dataset_is_idempotent(small_study, tmp_path):
    """Re-saving a lazy (loaded) dataset to its own directory is a no-op
    for channel files and doesn't truncate what the views read."""
    _, dataset = small_study
    directory = tmp_path / "ds"
    save_dataset(dataset, str(directory))
    loaded = load_dataset(str(directory))
    count = len(loaded.ticket_daily)
    assert count > 0
    save_dataset(loaded, str(directory))
    again = load_dataset(str(directory))
    assert len(again.ticket_daily) == count
    assert again.ticket_daily == dataset.ticket_daily


class TestStudyConfigValidation:
    def test_default_schedule_is_valid(self):
        StudyConfig()  # paper schedule inside 63 days

    def test_rejects_out_of_range_experiment_day(self):
        with pytest.raises(ValueError, match="ticket_probe_day=58"):
            StudyConfig(days=45)  # probes at 56/58 fall outside range(45)

    def test_error_names_every_offending_field(self):
        with pytest.raises(ValueError) as excinfo:
            StudyConfig(days=10)
        message = str(excinfo.value)
        for name in ("dhe_support_day", "ecdhe_support_day",
                     "ticket_support_day", "crossdomain_day",
                     "session_probe_day", "ticket_probe_day"):
            assert name in message

    def test_rejects_negative_day(self):
        with pytest.raises(ValueError, match="crossdomain_day=-1"):
            StudyConfig(crossdomain_day=-1)

    def test_disabled_experiments_not_validated(self):
        config = StudyConfig(
            days=5,
            run_support_scans=False, run_crossdomain=False, run_probes=False,
        )
        assert config.days == 5  # paper-day defaults ignored when disabled

    def test_day_equal_to_days_rejected(self):
        """day == days means the experiment would silently never run —
        the exact latent bug the CLI had with short --days values."""
        with pytest.raises(ValueError, match="session_probe_day=6"):
            StudyConfig(
                days=6,
                dhe_support_day=1, ecdhe_support_day=2, ticket_support_day=3,
                crossdomain_day=4, session_probe_day=6, ticket_probe_day=5,
            )

    def test_rejects_bad_execution_knobs(self):
        with pytest.raises(ValueError, match="days"):
            StudyConfig(days=0)
        with pytest.raises(ValueError, match="shards"):
            StudyConfig(shards=0)
        with pytest.raises(ValueError, match="workers"):
            StudyConfig(workers=-1)

    def test_rejects_negative_probe_domain_count(self):
        # A negative count would slice ``today[:-5]`` and probe every
        # domain except the last five.
        with pytest.raises(ValueError, match="probe_domain_count"):
            StudyConfig(probe_domain_count=-5)

    def test_rejects_support_scan_without_connections(self):
        with pytest.raises(ValueError, match="support_scan_connections"):
            StudyConfig(support_scan_connections=0)

    def test_probe_and_support_counts_accept_valid_values(self):
        config = StudyConfig()
        assert config.probe_domain_count == 400
        assert config.support_scan_connections == 10
        # The CLI probes the whole population (its default is 450).
        assert StudyConfig(probe_domain_count=450).probe_domain_count == 450
        assert StudyConfig(probe_domain_count=0).probe_domain_count == 0
        assert StudyConfig(support_scan_connections=1).support_scan_connections == 1
