"""Scan record schema and JSONL serialization tests."""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.scanner.records import (
    CrossDomainEdge,
    ResumptionProbeResult,
    ScanObservation,
    read_jsonl,
    write_jsonl,
)


def test_observation_json_roundtrip():
    observation = ScanObservation(
        domain="example.com",
        day=5,
        timestamp=12345.0,
        rank=42,
        ip="10.0.0.1",
        success=True,
        cipher="TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA",
        kex_kind="ecdhe",
        forward_secret=True,
        cert_trusted=True,
        session_id_set=True,
        ticket_issued=True,
        ticket_hint=300,
        ticket_format="rfc5077",
        stek_id="ab" * 16,
        kex_public="04" + "00" * 32,
    )
    assert ScanObservation.from_json(observation.to_json()) == observation


def test_failed_observation_roundtrip():
    observation = ScanObservation(
        domain="down.example", day=0, timestamp=1.0, error="connect: timeout"
    )
    parsed = ScanObservation.from_json(observation.to_json())
    assert not parsed.success
    assert parsed.error == "connect: timeout"
    assert parsed.stek_id is None


def test_probe_result_roundtrip():
    probe = ResumptionProbeResult(
        domain="example.com",
        rank=9,
        mechanism="ticket",
        handshake_ok=True,
        issued=True,
        resumed_at_1s=True,
        max_success_delay=3600.0,
        ticket_hint=7200,
        attempts=13,
    )
    assert ResumptionProbeResult.from_json(probe.to_json()) == probe


def test_edge_roundtrip():
    edge = CrossDomainEdge(origin="a.com", acceptor="b.com", via_same_ip=True)
    assert CrossDomainEdge.from_json(edge.to_json()) == edge


def test_jsonl_file_roundtrip(tmp_path):
    path = tmp_path / "scan.jsonl"
    records = [
        ScanObservation(domain=f"d{i}.example", day=i, timestamp=float(i))
        for i in range(25)
    ]
    count = write_jsonl(path, records)
    assert count == 25
    loaded = list(read_jsonl(path, ScanObservation))
    assert loaded == records


def test_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "scan.jsonl"
    record = ScanObservation(domain="x.example", day=0, timestamp=0.0)
    path.write_text(record.to_json() + "\n\n\n" + record.to_json() + "\n")
    assert len(list(read_jsonl(path, ScanObservation))) == 2


def test_json_is_one_line():
    record = ScanObservation(domain="x.example", day=0, timestamp=0.0)
    assert "\n" not in record.to_json()


# --- encoder vs. the asdict reference ----------------------------------

_SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(1 << 70), max_value=1 << 70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e-7, -0.0, 0.0, 1_700_000_000.123456, 4.5e15]),
    st.text(max_size=12),
)


def _reference_json(record) -> str:
    """The original encoder, kept as the byte-level reference."""
    return json.dumps(dataclasses.asdict(record), sort_keys=True)


def _records(cls):
    names = [f.name for f in dataclasses.fields(cls)]
    return st.fixed_dictionaries({name: _SCALAR for name in names}).map(
        lambda values: cls(**values)
    )


@pytest.mark.parametrize(
    "cls", [ScanObservation, ResumptionProbeResult, CrossDomainEdge],
    ids=lambda c: c.__name__,
)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_to_json_matches_asdict_reference(cls, data):
    record = data.draw(_records(cls))
    assert record.to_json() == _reference_json(record)


def test_to_json_escapes_non_ascii_like_reference():
    record = ScanObservation(domain="bücher.例え.jp", day=0, timestamp=1e-7,
                             error="ошибка  ", rank=-0.0)
    encoded = record.to_json()
    assert encoded == _reference_json(record)
    assert encoded.isascii()


def test_ad_hoc_instance_attribute_is_not_encoded():
    record = ScanObservation(domain="x.example", day=0, timestamp=0.0)
    record.ground_truth_stek = "secret"
    assert "ground_truth_stek" not in record.to_json()
    assert record.to_json() == ScanObservation(
        domain="x.example", day=0, timestamp=0.0
    ).to_json()
