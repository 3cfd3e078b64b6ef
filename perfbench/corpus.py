"""Seeded synthetic scan corpus for the ``report_audit`` workload.

The corpus is written in the ``repro.scanner.datastore`` layout (one
JSONL file per channel plus ``meta.json``) through the scanner's own
record and writer classes, so generating it exercises
``ScanObservation.to_json`` and ``JsonlWriter.append_many`` exactly as a
streamed study does.  No TLS handshake runs: the rows are drawn from a
``random.Random`` keyed by the seed, so the workload times the analysis
fold and nothing upstream of it.

The shape follows what the report and audit look for: per-domain STEK
and (EC)DHE identifiers that rotate with their own periods, clusters of
domains that share one STEK (service groups), resumption-probe
lifetimes, cross-domain cache edges, and a sprinkle of failed grabs and
untrusted certificates.  Same ``(seed, domains, days)`` gives the same
bytes.
"""

from __future__ import annotations

import os
import random

from repro.scanner.datastore import open_channel_writers, write_meta
from repro.scanner.records import (
    CrossDomainEdge,
    ResumptionProbeResult,
    ScanObservation,
)

DAY_SECONDS = 86400.0
SUPPORT_CONNECTIONS = 10
THIRTY_MINUTE_CONNECTIONS = 4


def _observation(name: str, rank: int, day: int, conn: int, kind: str,
                 identifier: str, ok: bool, trusted: bool) -> ScanObservation:
    is_ticket = kind == "stek"
    return ScanObservation(
        domain=name,
        day=day,
        timestamp=day * DAY_SECONDS + conn * 1800.0,
        rank=rank,
        ip=f"198.51.{rank % 250}.{(rank * 7) % 250}",
        success=ok,
        error="" if ok else "connect: transient failure",
        cipher=("ECDHE-RSA-AES128-SHA" if kind != "dhe" else
                "DHE-RSA-AES128-SHA") if ok else None,
        kex_kind=("ecdhe" if is_ticket else kind) if ok else None,
        forward_secret=ok,
        cert_trusted=ok and trusted,
        ticket_extension=ok and is_ticket,
        ticket_issued=ok and is_ticket,
        ticket_hint=300 if ok and is_ticket else None,
        stek_id=identifier if ok and is_ticket else None,
        kex_public=identifier if ok and not is_ticket else None,
    )


def write_corpus(directory: str, seed: int, domains: int, days: int) -> dict:
    """Write the corpus for ``seed`` into ``directory``; return its size.

    The result maps ``rows`` (total records written), ``channels``
    (records per channel), ``bytes`` (sum of the channel file sizes),
    ``domains`` and ``days``.
    """
    if domains < 2 or days < 2:
        raise ValueError("the corpus needs at least 2 domains and 2 days")
    rng = random.Random(f"perfbench-corpus:{seed}")
    names = [f"site{i:05d}.example" for i in range(domains)]
    writers = open_channel_writers(directory)
    try:
        cluster = 0
        for i, name in enumerate(names):
            rank = i + 1
            stek_period = rng.randint(1, 9)
            dhe_period = rng.randint(1, 10)
            ecdhe_period = rng.randint(1, 8)
            fail_every = rng.randint(11, 40)
            trusted = rng.random() > 0.08
            if rng.random() < 0.3:
                cluster += 1
            shared = (f"stek-c{cluster}" if rng.random() < 0.4
                      else f"stek-{i}-s")
            reuse = rng.randint(1, 4)

            def ok(day: int, conn: int = 0) -> bool:
                return (i + day + conn) % fail_every != 0

            for channel, kind, period in (
                ("ticket_daily", "stek", stek_period),
                ("dhe_daily", "dhe", dhe_period),
                ("ecdhe_daily", "ecdhe", ecdhe_period),
            ):
                writers[channel].append_many(
                    _observation(name, rank, day, 0, kind,
                                 f"{kind}-{i}-{day // period}", ok(day),
                                 trusted)
                    for day in range(days)
                )
            writers["ticket_support"].append_many(
                _observation(name, rank, 1, conn, "stek", shared, ok(1, conn),
                             trusted)
                for conn in range(SUPPORT_CONNECTIONS)
            )
            for channel, kind in (("dhe_support", "dhe"),
                                  ("ecdhe_support", "ecdhe")):
                writers[channel].append_many(
                    _observation(name, rank, 1, conn, kind,
                                 f"{kind}-{i}-s{conn % reuse}", ok(1, conn),
                                 trusted)
                    for conn in range(SUPPORT_CONNECTIONS)
                )
            writers["ticket_30min"].append_many(
                _observation(name, rank, 1, conn, "stek", shared, ok(1, conn),
                             trusted)
                for conn in range(THIRTY_MINUTE_CONNECTIONS)
            )
            for mechanism, channel in (("session_id", "session_probes"),
                                       ("ticket", "ticket_probes")):
                issued = rng.random() > 0.15
                delay = rng.randint(0, 48) * 1800.0 if issued else None
                writers[channel].append_many([ResumptionProbeResult(
                    domain=name,
                    rank=rank,
                    mechanism=mechanism,
                    handshake_ok=True,
                    issued=issued,
                    resumed_at_1s=issued,
                    max_success_delay=delay,
                    hit_probe_ceiling=delay is not None and delay >= 86400.0,
                    ticket_hint=300 if mechanism == "ticket" else None,
                    attempts=rng.randint(2, 49),
                )])
            if i + 1 < domains and rng.random() < 0.12:
                writers["cache_edges"].append_many([CrossDomainEdge(
                    origin=name, acceptor=names[i + 1],
                    via_same_ip=rng.random() < 0.5, via_same_as=True)])
    finally:
        for writer in writers.values():
            writer.close()
    asns = 20
    write_meta(directory, {
        "days": days,
        "day0_list": [[i + 1, name] for i, name in enumerate(names)],
        "always_present": names,
        "ranks": {name: i + 1 for i, name in enumerate(names)},
        "crossdomain_targets": names[: min(40, domains)],
        "domain_asn": {name: 64500 + i % asns for i, name in enumerate(names)},
        "domain_ip": {},
        "as_names": {64500 + k: f"Bench AS {k}" for k in range(asns)},
        "list_sizes": {kind: [domains, domains]
                       for kind in ("dhe", "ecdhe", "ticket")},
    })
    channels = {name: writer.count for name, writer in writers.items()}
    size = sum(os.path.getsize(writer.path) for writer in writers.values())
    return {"rows": sum(channels.values()), "bytes": size,
            "channels": channels, "domains": domains, "days": days}
