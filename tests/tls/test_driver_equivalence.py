"""The fast handshake driver vs the record-layer exchange, per branch.

``repro.tls.fastpath.fast_handshake`` and ``TLSClient.connect`` must
make every handshake decision identically: the scanner records
decisions, and any extra, missing or reordered RNG draw shifts every
later random value.  Each scenario below runs on twin rigs built from
the same seed — one driven by ``connect``, the other by
``fast_handshake`` — and compares:

* each result's observable fields: everything ``ZGrabber`` copies into
  a :class:`~repro.scanner.records.ScanObservation`, plus the randoms,
  session ID, resumption route and error string;
* the next draw from the client and the server RNG streams;
* the ``METRICS`` counter deltas, minus the hit/miss tallies of the
  crypto caches the fast path never consults (the same exemption as
  ``tests/scanner/test_scale_equivalence.py``);
* the session-cache and STEK-store contents.

Master secrets are not compared: the fast path stands a placeholder in
for the PRF output, which no observation can see.
"""

import json

import pytest

from helpers import make_rig

from repro.crypto.rng import DeterministicRandom
from repro.obs.metrics import METRICS, reset_process_caches
from repro.scanner.grab import ZGrabber
from repro.scanner.records import ScanObservation
from repro.tls.ciphers import DHE_ONLY_OFFER, ECDHE_SUITES, RSA_SUITES
from repro.tls.fastpath import fast_handshake
from repro.tls.ticket import generate_stek
from repro.x509 import TrustStore

UNOBSERVABLE_CACHES = ("crypto.ec.shared_memo.", "tls.kex.params_cache.")


def _record(rig, **kwargs):
    return rig.client.connect(rig.server, **kwargs)


def _fast(rig, **kwargs):
    return fast_handshake(rig.client, rig.server, **kwargs)


def _resume(hs, rig, first, via="ticket", **kwargs):
    offers = dict(saved_session=first.session, server_name="example.com")
    if via in ("ticket", "both"):
        offers["ticket"] = first.new_ticket.ticket
    if via in ("session_id", "both"):
        offers["session_id"] = first.session_id
    offers.update(kwargs)
    return hs(rig, **offers)


# -- scenarios: (rig overrides, setup(rig), steps(hs, rig) -> results) -----

def _full(offer):
    def steps(hs, rig):
        return [hs(rig, server_name="example.com", offer=offer),
                hs(rig, server_name="example.com", offer=offer)]
    return steps


def _session_id_resumption(hs, rig):
    first = hs(rig, server_name="example.com", offer_tickets=False)
    rig.clock.advance(10)
    return [first, _resume(hs, rig, first, via="session_id",
                           offer_tickets=False)]


def _ticket_resumption(hs, rig):
    first = hs(rig, server_name="example.com")
    rig.clock.advance(10)
    second = _resume(hs, rig, first)
    rig.clock.advance(10)
    return [first, second, _resume(hs, rig, first, via="both")]


def _no_reissue(rig):
    rig.server.config.ticket_policy.reissue_on_resume = False


def _expired_ticket(hs, rig):
    first = hs(rig, server_name="example.com")
    rig.clock.advance(301)
    return [first, _resume(hs, rig, first, via="both")]


def _garbage_ticket(hs, rig):
    first = hs(rig, server_name="example.com")
    return [first, _resume(hs, rig, first, ticket=b"\x5a" * 90),
            _resume(hs, rig, first, ticket=b"\x01")]


def _wrong_stek_ticket(hs, rig):
    first = hs(rig, server_name="example.com")
    rig.stek_store.rotate(
        generate_stek(DeterministicRandom(99), rig.clock.now()))
    return [first, _resume(hs, rig, first)]


def _unknown_session_id(hs, rig):
    first = hs(rig, server_name="example.com", offer_tickets=False)
    return [first, _resume(hs, rig, first, via="session_id",
                           session_id=b"\x42" * 32, offer_tickets=False)]


def _strict_sni(rig):
    rig.server.config.strict_sni = True


def _sni_steps(hs, rig):
    return [hs(rig, server_name="other.org"),
            hs(rig, server_name="www.example.com"),
            hs(rig, server_name="")]


def _no_common_cipher(hs, rig):
    return [hs(rig, server_name="example.com", offer=DHE_ONLY_OFFER),
            hs(rig, server_name="example.com", offer=RSA_SUITES)]


def _untrusted(rig):
    rig.client.trust_store = TrustStore()


def _no_trust_store(rig):
    rig.client.trust_store = None


def _mixed_kex(hs, rig):
    results = []
    for offer in (DHE_ONLY_OFFER, ECDHE_SUITES, DHE_ONLY_OFFER,
                  ECDHE_SUITES, RSA_SUITES):
        results.append(hs(rig, server_name="example.com", offer=offer))
        rig.clock.advance(1)
    return results


SCENARIOS = {
    "full-rsa": ({}, None, _full(RSA_SUITES)),
    "full-dhe": ({}, None, _full(DHE_ONLY_OFFER)),
    "full-ecdhe": ({}, None, _full(ECDHE_SUITES)),
    "session-id-resumption": ({}, None, _session_id_resumption),
    "unknown-session-id": ({}, None, _unknown_session_id),
    "ticket-resumption-reissue": ({}, None, _ticket_resumption),
    "ticket-resumption-no-reissue": ({}, _no_reissue, _ticket_resumption),
    "no-session-ids": ({"issue_session_ids": False}, None, _ticket_resumption),
    "no-tickets": ({"tickets": False}, None, _session_id_resumption),
    "expired-ticket": ({}, None, _expired_ticket),
    "garbage-ticket": ({}, None, _garbage_ticket),
    "wrong-stek-ticket": ({"stek_retain": 0}, None, _wrong_stek_ticket),
    "strict-sni": ({}, _strict_sni, _sni_steps),
    "lenient-sni": ({}, None, _sni_steps),
    "no-common-cipher": ({"suites": RSA_SUITES}, None, _no_common_cipher),
    "untrusted-certificate": ({}, _untrusted, _full(ECDHE_SUITES)),
    "no-trust-store": ({}, _no_trust_store, _full(RSA_SUITES)),
    "mixed-kex": ({}, None, _mixed_kex),
}


# -- the comparison ------------------------------------------------------

def _observation(result):
    observation = ScanObservation(domain=result.domain, day=0,
                                  timestamp=0.0, rank=0)
    if result.ok:
        ZGrabber._fill_from_result(observation, result)
    return observation.to_json()


def _session_view(session):
    if session is None:
        return None
    return (session.cipher_suite.name, session.version, session.created_at,
            session.domain)


def _result_view(result):
    ticket = result.new_ticket
    return {
        "observation": _observation(result),
        "ok": result.ok,
        "error": result.error,
        "client_random": result.client_random,
        "server_random": result.server_random,
        "session_id": result.session_id,
        "offered_session_id": result.offered_session_id,
        "resumed": result.resumed,
        "resumed_via": result.resumed_via,
        "server_kex_kind": result.server_kex_kind,
        "certificate": (None if result.certificate is None
                        else result.certificate.serialize()),
        "ticket": (None if ticket is None
                   else (ticket.lifetime_hint_seconds, len(ticket.ticket))),
        "session": _session_view(result.session),
    }


def _state_view(rig):
    cache = rig.session_cache
    store = rig.stek_store
    return {
        "session_cache": None if cache is None else {
            sid: (_session_view(session), stored_at)
            for sid, (session, stored_at) in cache._entries.items()
        },
        "stek_store": None if store is None else (
            store.issued_count, store.opened_count,
            [stek.key_name for stek in store.all_keys],
        ),
        "server_counters": (rig.server.full_handshakes,
                            rig.server.resumptions,
                            rig.server.failed_handshakes),
        "client_ephemerals": (sorted(rig.client._dh_keypairs),
                              sorted(rig.client._ec_keypairs)),
        "next_client_draw": rig.client._rng.random_bytes(16),
        "next_server_draw": rig.server._rng.random_bytes(16),
    }


def _run_world(hs, scenario, reuse_client_ephemerals):
    overrides, setup, steps = SCENARIOS[scenario]
    reset_process_caches()
    rig = make_rig(seed=7, **overrides)
    rig.client.reuse_client_ephemerals = reuse_client_ephemerals
    if setup is not None:
        setup(rig)
    before = METRICS.snapshot()
    results = steps(hs, rig)
    counters = {
        key: value
        for key, value in METRICS.snapshot_delta(before)["counters"].items()
        if not key.startswith(UNOBSERVABLE_CACHES)
    }
    return [_result_view(r) for r in results], counters, _state_view(rig)


@pytest.mark.parametrize("reuse_client_ephemerals", [False, True],
                         ids=["fresh-client-keys", "reused-client-keys"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_fast_driver_matches_record_layer(scenario, reuse_client_ephemerals):
    record = _run_world(_record, scenario, reuse_client_ephemerals)
    fast = _run_world(_fast, scenario, reuse_client_ephemerals)
    assert fast[0] == record[0]
    assert fast[1] == record[1]
    assert fast[2] == record[2]


def test_scenarios_reach_their_branches():
    """The comparison is not vacuous: each named branch really ran."""
    def outcomes(scenario):
        results, counters, _ = _run_world(_fast, scenario, False)
        return [(r["ok"], r["resumed_via"]) for r in results], counters

    assert outcomes("session-id-resumption")[0][1] == (True, "session_id")
    results, counters = outcomes("ticket-resumption-reissue")
    assert results[1:] == [(True, "ticket"), (True, "ticket")]
    assert counters["tls.ticket.seal"] == 3
    _, counters = outcomes("ticket-resumption-no-reissue")
    assert counters["tls.ticket.seal"] == 1
    for scenario in ("expired-ticket", "garbage-ticket", "wrong-stek-ticket",
                     "unknown-session-id"):
        results, counters = outcomes(scenario)
        assert all(ok and via is None for ok, via in results), scenario
    assert outcomes("wrong-stek-ticket")[1]["tls.ticket.open_wrong_key"] == 1
    assert outcomes("strict-sni")[0][0] == (False, None)
    assert outcomes("lenient-sni")[0][0] == (True, None)
    results, counters = outcomes("no-common-cipher")
    assert results == [(False, None), (True, None)]
    assert counters[
        "tls.server.handshake_failure{reason=no_cipher}"] == 1
    untrusted = _run_world(_fast, "untrusted-certificate", False)[0][0]
    assert untrusted["ok"]
    assert not json.loads(untrusted["observation"])["cert_trusted"]
