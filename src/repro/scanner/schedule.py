"""Scan scheduling: daily sweeps and multi-connection support scans.

The paper's longitudinal measurements are daily single-connection
sweeps over the Top Million (one per cipher offer); its support and
sharing measurements are 10-connection scans within a few-hour window
plus a single-connection scan in a 30-minute window.  Both patterns
live here, spreading connections across a virtual time window so
server-side rotations and cache expiries interleave realistically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..netsim.clock import HOUR, MINUTE
from ..tls.ciphers import CipherSuite, MODERN_BROWSER_OFFER
from .grab import ZGrabber
from .records import ScanObservation


@dataclass
class SweepConfig:
    """One pass over a domain list."""

    offer: tuple[CipherSuite, ...] = MODERN_BROWSER_OFFER
    connections_per_domain: int = 1
    window_seconds: float = 4 * HOUR
    offer_tickets: bool = True
    label: str = "sweep"


#: Observations buffered per sink write.  Bounds the per-shard memory
#: between flushes; it never changes output bytes.
FLUSH_BATCH = 1024


def sweep(
    grabber: ZGrabber,
    domains: Sequence[tuple[int, str]],
    config: SweepConfig,
    *,
    sink: Optional[Callable[[list[ScanObservation]], object]] = None,
) -> list[ScanObservation]:
    """Scan ``domains`` (rank, name) within the configured time window.

    Connections are issued in domain order with the window divided
    evenly; for multi-connection scans, each domain's connections are
    spaced across the whole window (the paper's 10 connections over six
    hours), not fired back-to-back.  Each grab runs at its window tick,
    or at once if the previous grab (retry backoff) ran past it.

    ``sink`` receives observation batches of at most
    :data:`FLUSH_BATCH` as they complete (the streaming engine's
    per-shard emit) and the return value is empty; without it, all
    observations are returned as one list.
    """
    ecosystem = grabber.ecosystem
    observations: list[ScanObservation] = []
    flush = sink if sink is not None else observations.extend
    total = len(domains) * config.connections_per_domain
    step = config.window_seconds / max(total, 1)
    start = ecosystem.clock.now()
    pairs = (pair for _ in range(config.connections_per_domain) for pair in domains)
    batch: list[ScanObservation] = []
    for tick, (rank, name) in enumerate(pairs):
        ecosystem.advance_to(max(start + tick * step, ecosystem.clock.now()))
        batch.append(
            grabber.grab(
                name,
                rank=rank,
                offer=config.offer,
                offer_tickets=config.offer_tickets,
            )
        )
        if len(batch) >= FLUSH_BATCH:
            flush(batch)
            batch = []
    if batch:
        flush(batch)
    return observations


def thirty_minute_scan(
    grabber: ZGrabber,
    domains: Sequence[tuple[int, str]],
    offer: tuple[CipherSuite, ...] = MODERN_BROWSER_OFFER,
    *,
    sink: Optional[Callable[[list[ScanObservation]], object]] = None,
) -> list[ScanObservation]:
    """The paper's single-connection scan in a 30-minute window (§5.2)."""
    return sweep(
        grabber,
        domains,
        SweepConfig(
            offer=offer,
            connections_per_domain=1,
            window_seconds=30 * MINUTE,
            label="30min",
        ),
        sink=sink,
    )


__all__ = ["FLUSH_BATCH", "SweepConfig", "sweep", "thirty_minute_scan"]
