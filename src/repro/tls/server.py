"""The TLS 1.2 server state machine.

One :class:`TLSServer` models one server *process* (or one SSL
terminator worker): it owns an ephemeral-key cache, points at a session
cache and a STEK store (both of which may be shared with other servers
— that sharing is the paper's §5 subject), and serves whatever
certificate its operator configured.

Every handshake *decision* — certificate and suite choice, resumption,
session IDs, ticket sealing, the ephemeral key — is one method that
draws from the server's RNG stream and owns its side effects and
counters:

    negotiate, resume_lookup, then either
        resumed_reply, count_resumption   (abbreviated), or
        full_reply, establish             (full)

Two drivers call them in that order.  The flight-oriented exchange API
wraps them in real serialized records, as the blocking client drives
it:

    flight, conn = server.accept(client_hello_bytes)
    # full handshake:
    flight2 = server.finish_full(conn, client_flight_bytes)
    # abbreviated handshake:
    server.finish_abbreviated(conn, client_finished_bytes)
    # then, optionally:
    reply = server.handle_application_record(conn, record_bytes)

:func:`repro.tls.fastpath.fast_handshake` calls the same methods
without records, so both see the same draws, cache and STEK effects
and counters by construction.  Finished values are PRF-derived from
the running transcript, and resumption semantics (RFC 5077
ticket-over-session-ID precedence, ticket reissue, cache expiry)
follow the behaviors the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from ..crypto import dh, ec
from ..crypto.mac import sha256, constant_time_equal
from ..crypto.prf import derive_master_secret, verify_data
from ..crypto.rng import DeterministicRandom
from ..crypto.rsa import RSAPrivateKey
from ..obs.metrics import METRICS
from ..x509 import X509Certificate
from .ciphers import CipherSuite, KeyExchangeKind, select_suite
from .constants import (
    AlertDescription,
    ExtensionType,
    KEX_LABELS,
    ProtocolVersion,
    SESSION_ID_LENGTH,
)
from .errors import HandshakeFailure
from .extensions import decode_server_name, encode_session_ticket, find_extension
from .keyexchange import (
    EphemeralKeyCache,
    KexReusePolicy,
    build_dhe_kex,
    build_ecdhe_kex,
)
from .messages import (
    Certificate,
    ClientHello,
    ClientKeyExchange,
    Finished,
    NewSessionTicket,
    ServerHello,
    ServerHelloDone,
    parse_handshake,
    serialize_handshake,
)
from .record import RecordCipher, handshake_record, new_record_cipher, parse_records, serialize_records
from .session import SessionCache, SessionState, derive_connection_keys
from .ticket import STEKStore, TicketFormat
from .wire import DecodeError

# Prebound instruments: the decision methods run once per grab.
_HANDSHAKES = {
    (kind, kex): METRICS.counter("tls.server.handshake", kind=kind, kex=label)
    for kind in ("full", "abbreviated")
    for kex, label in KEX_LABELS.items()
}
_FAILURES = {
    reason: METRICS.counter("tls.server.handshake_failure", reason=reason)
    for reason in ("sni", "no_cipher", "finished_verify")
}
_RESUMPTION = {
    (outcome, via): METRICS.counter(f"tls.server.resumption_{outcome}", via=via)
    for outcome in ("accepted", "rejected")
    for via in ("session_id", "ticket")
}

# Per-server static flight parts.  ServerHelloDone is always the same
# four bytes, and the serialized Certificate message depends only on
# the certificate presented — both are recomputed per full handshake
# in a naive implementation, which a scan performs millions of times.
_SERVER_HELLO_DONE_BYTES = serialize_handshake(ServerHelloDone())
_CERT_MSG_CACHE: dict[X509Certificate, bytes] = {}
_CERT_MSG_CACHE_MAX = 8192


def _server_hello_bytes(conn: ServerConnection, ticket_extension: bool) -> bytes:
    return serialize_handshake(ServerHello(
        version=ProtocolVersion.TLS12,
        random=conn.server_random,
        session_id=conn.session_id,
        cipher_suite=conn.cipher_suite,
        extensions=[encode_session_ticket(b"")] if ticket_extension else [],
    ))


def _certificate_message_bytes(certificate: X509Certificate) -> bytes:
    encoded = _CERT_MSG_CACHE.get(certificate)
    if encoded is None:
        encoded = serialize_handshake(Certificate(chain=[certificate.serialize()]))
        if len(_CERT_MSG_CACHE) >= _CERT_MSG_CACHE_MAX:
            _CERT_MSG_CACHE.clear()
        _CERT_MSG_CACHE[certificate] = encoded
    return encoded


@dataclass
class TicketPolicy:
    """Session-ticket issuance and acceptance policy.

    ``lifetime_hint_seconds`` is the advertised hint (0 means
    "unspecified", which RFC 5077 leaves to client policy — 14,663 of
    the paper's domains did this).  ``accept_window_seconds`` is how
    long the server actually honors a ticket after issuance; the paper
    measures these independently because they routinely disagree.
    """

    lifetime_hint_seconds: int = 300
    accept_window_seconds: float = 300.0
    reissue_on_resume: bool = True
    ticket_format: TicketFormat = TicketFormat.RFC5077


@dataclass
class ServerConfig:
    """Operator-visible configuration of one TLS server."""

    certificate: X509Certificate
    private_key: RSAPrivateKey
    supported_suites: tuple[CipherSuite, ...]
    # Session-ID resumption: a server may issue IDs without caching
    # (Nginx's default), cache with a lifetime (Apache: 300 s), or not
    # issue at all.
    session_cache: Optional[SessionCache] = None
    issue_session_ids: bool = True
    # Ticket resumption: None disables the extension entirely.
    stek_store: Optional[STEKStore] = None
    ticket_policy: TicketPolicy = field(default_factory=TicketPolicy)
    # Key exchange parameters and reuse policy.
    dh_group: dh.DHGroup = dh.TEST_GROUP
    curve: ec.Curve = ec.P256
    kex_policy: KexReusePolicy = field(default_factory=KexReusePolicy)
    # Independent ECDHE reuse policy; None means "same as kex_policy".
    kex_policy_ec: Optional[KexReusePolicy] = None
    server_cipher_preference: bool = True
    # Whether this endpoint requires SNI to match its certificate.
    strict_sni: bool = False
    # SSL-terminator style virtual hosting: per-hostname certificates
    # tried before the default ``certificate``.  Keys may be exact names
    # or wildcard patterns; all domains still share this process's
    # session cache, STEK store, and ephemeral values — the paper's §5
    # cross-domain exposure.
    sni_certificates: dict[str, tuple[X509Certificate, RSAPrivateKey]] = field(
        default_factory=dict
    )

    def certificate_for(self, sni: str) -> tuple[X509Certificate, RSAPrivateKey]:
        """Select the certificate/key pair to present for an SNI value."""
        if sni:
            exact = self.sni_certificates.get(sni.lower())
            if exact is not None:
                return exact
            for cert, key in self.sni_certificates.values():
                if cert.matches_hostname(sni):
                    return cert, key
        return self.certificate, self.private_key


@dataclass
class ServerConnection:
    """Per-connection server state between flights."""

    client_hello: ClientHello
    server_random: bytes
    cipher_suite: CipherSuite
    session_id: bytes
    sni: str
    transcript: bytes
    resumed: bool
    certificate: Optional[X509Certificate] = None
    private_key: Optional[RSAPrivateKey] = None
    resumed_via: Optional[str] = None
    session: Optional[SessionState] = None
    #: This connection's (EC)DHE keypair; None for static RSA.
    keypair: Optional[Union[dh.DHKeyPair, ec.ECKeyPair]] = None
    will_issue_ticket: bool = False
    record_cipher: Optional[RecordCipher] = None
    completed: bool = False


class TLSServer:
    """A single TLS server process with configurable crypto shortcuts."""

    def __init__(
        self,
        config: ServerConfig,
        rng: DeterministicRandom,
        now_fn: Callable[[], float],
        kex_cache: Optional[EphemeralKeyCache] = None,
    ) -> None:
        self.config = config
        self._rng = rng
        self._now = now_fn
        # A shared cache models SSL terminators presenting one (EC)DHE
        # value across many server processes/domains (paper §5.3).
        self.kex_cache = kex_cache or EphemeralKeyCache(
            config.kex_policy, config.kex_policy_ec
        )
        # Counters used by tests and the hosting layer.
        self.full_handshakes = 0
        self.resumptions = 0
        self.failed_handshakes = 0

    # -- lifecycle -----------------------------------------------------

    def restart(self) -> None:
        """Simulate a process restart.

        Ephemeral KEX values are dropped, the in-memory session cache is
        cleared, and — if the STEK was randomly generated rather than
        loaded from a key file — the hosting layer is responsible for
        installing a fresh STEK (it owns rotation policy).
        """
        self.kex_cache.restart()
        if self.config.session_cache is not None:
            self.config.session_cache.clear()

    # -- handshake decisions (shared by both drivers) ---------------------

    def negotiate(
        self, sni: str, offered_suites: Sequence[CipherSuite]
    ) -> tuple[X509Certificate, RSAPrivateKey, CipherSuite, bytes]:
        """Pick the certificate and suite for a ClientHello, then draw
        the ServerHello random.

        Raises :class:`HandshakeFailure` on a strict-SNI mismatch or
        when no suite is shared (the scanner records these as handshake
        errors, like a fatal alert); a failed negotiation draws nothing.
        """
        config = self.config
        certificate, private_key = config.certificate_for(sni)
        if config.strict_sni and sni and not certificate.matches_hostname(sni):
            self.failed_handshakes += 1
            _FAILURES["sni"].value += 1
            raise HandshakeFailure(f"unrecognized server name {sni!r}",
                                   AlertDescription.UNRECOGNIZED_NAME)
        suite = select_suite(
            offered_suites, config.supported_suites, config.server_cipher_preference
        )
        if suite is None:
            self.failed_handshakes += 1
            _FAILURES["no_cipher"].value += 1
            raise HandshakeFailure("no mutually supported cipher suite")
        return certificate, private_key, suite, self._rng.random_bytes(32)

    def resume_lookup(
        self, ticket: bytes, session_id: bytes, now: float
    ) -> tuple[Optional[SessionState], Optional[str]]:
        """The session a ClientHello's offers resume, and by which route.

        RFC 5077 §3.4: a non-empty ticket takes precedence over the
        session ID, and a bad or expired ticket falls through to a full
        handshake without consulting the cache.
        """
        if ticket and self.config.stek_store is not None:
            contents = self.config.stek_store.open(ticket)
            if contents is not None:
                window = self.config.ticket_policy.accept_window_seconds
                if now - contents.issued_at <= window:
                    _RESUMPTION["accepted", "ticket"].value += 1
                    return contents.session, "ticket"
            _RESUMPTION["rejected", "ticket"].value += 1
            return None, None
        if session_id and self.config.session_cache is not None:
            session = self.config.session_cache.lookup(session_id, now)
            if session is not None:
                _RESUMPTION["accepted", "session_id"].value += 1
                return session, "session_id"
            _RESUMPTION["rejected", "session_id"].value += 1
        return None, None

    def resumed_reply(
        self,
        session: SessionState,
        via: str,
        offered_session_id: bytes,
        client_offers_tickets: bool,
        now: float,
    ) -> tuple[bytes, Optional[NewSessionTicket]]:
        """The session ID and reissued ticket of an abbreviated handshake.

        On session-ID resumption the server echoes the ID; on ticket
        resumption OpenSSL-style stacks send a fresh (uncached) ID and
        reseal the ticket when policy and the client allow.
        """
        config = self.config
        if via == "session_id":
            session_id = offered_session_id
        elif config.issue_session_ids:
            session_id = self._rng.random_bytes(SESSION_ID_LENGTH)
        else:
            session_id = b""
        ticket = None
        if via == "ticket" and config.ticket_policy.reissue_on_resume and client_offers_tickets:
            ticket = self._new_ticket(session, now)
        return session_id, ticket

    def full_reply(
        self, suite: CipherSuite, client_offers_tickets: bool, now: float
    ) -> tuple[bytes, Optional[Union[dh.DHKeyPair, ec.ECKeyPair]], bool]:
        """Draw a full handshake's session ID, then get its ephemeral key.

        Returns ``(session_id, keypair, issue_ticket)``: the keypair is
        None for static RSA, and ``issue_ticket`` says whether
        :meth:`establish` will seal a ticket.
        """
        config = self.config
        session_id = (
            self._rng.random_bytes(SESSION_ID_LENGTH) if config.issue_session_ids else b""
        )
        kex = suite.kex
        if kex == KeyExchangeKind.DHE:
            keypair = self.kex_cache.get_dh(config.dh_group, self._rng, now)
        elif kex == KeyExchangeKind.ECDHE:
            keypair = self.kex_cache.get_ec(config.curve, self._rng, now)
        else:
            keypair = None
        return session_id, keypair, config.stek_store is not None and client_offers_tickets

    def establish(
        self, session: SessionState, session_id: bytes, issue_ticket: bool, now: float
    ) -> Optional[NewSessionTicket]:
        """Complete a full handshake: cache the session, seal its ticket."""
        if self.config.session_cache is not None and session_id:
            self.config.session_cache.store(session_id, session, now)
        ticket = self._new_ticket(session, now) if issue_ticket else None
        self.full_handshakes += 1
        _HANDSHAKES["full", session.cipher_suite.kex].value += 1
        return ticket

    def count_resumption(self, suite: CipherSuite) -> None:
        """Complete an abbreviated handshake."""
        self.resumptions += 1
        _HANDSHAKES["abbreviated", suite.kex].value += 1

    def _new_ticket(self, session: SessionState, now: float) -> NewSessionTicket:
        assert self.config.stek_store is not None
        return NewSessionTicket(
            lifetime_hint_seconds=self.config.ticket_policy.lifetime_hint_seconds,
            ticket=self.config.stek_store.issue(session, self._rng, now=now),
        )

    # -- handshake: first flight ----------------------------------------

    def accept(self, client_hello_bytes: bytes) -> tuple[bytes, ServerConnection]:
        """Process a ClientHello record; return our flight and the context.

        Raises :class:`HandshakeFailure` on negotiation failure.
        """
        now = self._now()
        records = parse_records(client_hello_bytes)
        if len(records) != 1:
            raise HandshakeFailure("expected exactly one ClientHello record",
                                   AlertDescription.UNEXPECTED_MESSAGE)
        try:
            message, remainder = parse_handshake(records[0].payload)
        except DecodeError as exc:
            raise HandshakeFailure(str(exc), AlertDescription.DECODE_ERROR) from exc
        if remainder or not isinstance(message, ClientHello):
            raise HandshakeFailure("first message must be ClientHello",
                                   AlertDescription.UNEXPECTED_MESSAGE)
        client_hello = message
        if client_hello.version < ProtocolVersion.TLS10:
            raise HandshakeFailure("client version too old")

        sni = ""
        sni_data = find_extension(client_hello.extensions, ExtensionType.SERVER_NAME)
        if sni_data is not None:
            sni = decode_server_name(sni_data)
        certificate, private_key, suite, server_random = self.negotiate(
            sni, client_hello.cipher_suites
        )
        conn = ServerConnection(
            client_hello=client_hello,
            server_random=server_random,
            cipher_suite=suite,
            session_id=b"",
            sni=sni,
            transcript=serialize_handshake(client_hello),
            resumed=False,
        )
        ticket = find_extension(client_hello.extensions, ExtensionType.SESSION_TICKET)
        offers_tickets = ticket is not None
        session, via = self.resume_lookup(ticket or b"", client_hello.session_id, now)
        if session is not None:
            conn.session_id, new_ticket = self.resumed_reply(
                session, via, client_hello.session_id, offers_tickets, now
            )
            conn.cipher_suite = session.cipher_suite
            conn.resumed, conn.resumed_via, conn.session = True, via, session
            parts = [_server_hello_bytes(conn, new_ticket is not None)]
            if new_ticket is not None:
                parts.append(serialize_handshake(new_ticket))
            finished = verify_data(session.master_secret, b"server finished",
                                   sha256(conn.transcript + b"".join(parts)))
            parts.append(serialize_handshake(Finished(verify_data=finished)))
        else:
            conn.session_id, keypair, conn.will_issue_ticket = self.full_reply(
                suite, offers_tickets, now
            )
            conn.certificate, conn.private_key, conn.keypair = certificate, private_key, keypair
            parts = [
                _server_hello_bytes(conn, conn.will_issue_ticket),
                _certificate_message_bytes(certificate),
            ]
            if suite.kex == KeyExchangeKind.DHE:
                parts.append(serialize_handshake(
                    build_dhe_kex(keypair, private_key, client_hello.random, server_random)
                ))
            elif suite.kex == KeyExchangeKind.ECDHE:
                parts.append(serialize_handshake(
                    build_ecdhe_kex(keypair, private_key, client_hello.random, server_random)
                ))
            parts.append(_SERVER_HELLO_DONE_BYTES)
        payload = b"".join(parts)
        conn.transcript += payload
        return serialize_records([handshake_record(payload)]), conn

    # -- handshake: second flight ----------------------------------------

    def finish_full(self, conn: ServerConnection, client_flight: bytes) -> bytes:
        """Process ClientKeyExchange + Finished; return NST? + Finished."""
        if conn.resumed or conn.completed:
            raise HandshakeFailure("connection not awaiting a full-handshake flight",
                                   AlertDescription.UNEXPECTED_MESSAGE)
        now = self._now()
        records = parse_records(client_flight)
        payload = b"".join(r.payload for r in records)
        try:
            cke, remainder = parse_handshake(payload)
        except DecodeError as exc:
            raise HandshakeFailure(str(exc), AlertDescription.DECODE_ERROR) from exc
        if not isinstance(cke, ClientKeyExchange):
            raise HandshakeFailure("expected ClientKeyExchange",
                                   AlertDescription.UNEXPECTED_MESSAGE)
        premaster = self._compute_premaster(conn, cke)
        master = derive_master_secret(
            premaster, conn.client_hello.random, conn.server_random
        )
        conn.transcript += serialize_handshake(cke)

        try:
            client_finished, remainder = parse_handshake(remainder)
        except DecodeError as exc:
            raise HandshakeFailure(str(exc), AlertDescription.DECODE_ERROR) from exc
        if remainder or not isinstance(client_finished, Finished):
            raise HandshakeFailure("expected Finished after ClientKeyExchange",
                                   AlertDescription.UNEXPECTED_MESSAGE)
        self._verify_client_finished(client_finished, master, conn.transcript)
        conn.transcript += serialize_handshake(client_finished)

        session = SessionState(
            master_secret=master,
            cipher_suite=conn.cipher_suite,
            version=ProtocolVersion.TLS12,
            created_at=now,
            domain=conn.sni,
        )
        conn.session = session
        ticket = self.establish(session, conn.session_id, conn.will_issue_ticket, now)
        parts = [] if ticket is None else [serialize_handshake(ticket)]
        conn.transcript += b"".join(parts)
        finished = Finished(
            verify_data=verify_data(master, b"server finished", sha256(conn.transcript))
        )
        finished_bytes = serialize_handshake(finished)
        parts.append(finished_bytes)
        conn.transcript += finished_bytes
        conn.completed = True

        keys = derive_connection_keys(session, conn.client_hello.random, conn.server_random)
        conn.record_cipher = new_record_cipher(keys, is_client=False, suite=conn.cipher_suite)

        return serialize_records([handshake_record(b"".join(parts))])

    def finish_abbreviated(self, conn: ServerConnection, client_finished_bytes: bytes) -> None:
        """Verify the client Finished that closes an abbreviated handshake."""
        if not conn.resumed or conn.completed or conn.session is None:
            raise HandshakeFailure("connection not awaiting an abbreviated Finished",
                                   AlertDescription.UNEXPECTED_MESSAGE)
        records = parse_records(client_finished_bytes)
        payload = b"".join(r.payload for r in records)
        try:
            message, remainder = parse_handshake(payload)
        except DecodeError as exc:
            raise HandshakeFailure(str(exc), AlertDescription.DECODE_ERROR) from exc
        if remainder or not isinstance(message, Finished):
            raise HandshakeFailure("expected Finished",
                                   AlertDescription.UNEXPECTED_MESSAGE)
        self._verify_client_finished(message, conn.session.master_secret, conn.transcript)
        conn.transcript += serialize_handshake(message)
        conn.completed = True
        self.count_resumption(conn.cipher_suite)
        keys = derive_connection_keys(
            conn.session, conn.client_hello.random, conn.server_random
        )
        conn.record_cipher = new_record_cipher(keys, is_client=False, suite=conn.cipher_suite)

    def _verify_client_finished(
        self, finished: Finished, master: bytes, transcript: bytes
    ) -> None:
        expected = verify_data(master, b"client finished", sha256(transcript))
        if not constant_time_equal(finished.verify_data, expected):
            self.failed_handshakes += 1
            _FAILURES["finished_verify"].value += 1
            raise HandshakeFailure("client Finished verification failed",
                                   AlertDescription.DECRYPT_ERROR)

    def _compute_premaster(self, conn: ServerConnection, cke: ClientKeyExchange) -> bytes:
        kex = conn.cipher_suite.kex
        keypair = conn.keypair
        if kex == KeyExchangeKind.DHE:
            assert isinstance(keypair, dh.DHKeyPair)
            client_public = int.from_bytes(cke.exchange_data, "big")
            try:
                return keypair.shared_secret_bytes(client_public)
            except dh.InvalidPublicValue as exc:
                raise HandshakeFailure(str(exc), AlertDescription.ILLEGAL_PARAMETER) from exc
        if kex == KeyExchangeKind.ECDHE:
            assert isinstance(keypair, ec.ECKeyPair)
            try:
                point = ec.decode_point(keypair.curve, cke.exchange_data)
                return keypair.shared_secret_bytes(point)
            except (ValueError, ec.NotOnCurveError) as exc:
                raise HandshakeFailure(str(exc), AlertDescription.ILLEGAL_PARAMETER) from exc
        # Static RSA: the client encrypted the premaster to our public key.
        ciphertext = int.from_bytes(cke.exchange_data, "big")
        private_key = conn.private_key or self.config.private_key
        try:
            plain = private_key.decrypt_raw(ciphertext)
        except ValueError as exc:
            raise HandshakeFailure(str(exc), AlertDescription.DECODE_ERROR) from exc
        return plain.to_bytes(48, "big")

    # -- application data -------------------------------------------------

    def handle_application_record(self, conn: ServerConnection, record_bytes: bytes) -> bytes:
        """Decrypt a request record and return an encrypted echo response.

        The simulated application protocol is a trivial HTTP-ish echo;
        its purpose is to give the passive-adversary model real
        ciphertext to capture and later decrypt.
        """
        if not conn.completed or conn.record_cipher is None:
            raise HandshakeFailure("handshake not complete",
                                   AlertDescription.UNEXPECTED_MESSAGE)
        records = parse_records(record_bytes)
        if len(records) != 1:
            raise HandshakeFailure("expected one application record",
                                   AlertDescription.UNEXPECTED_MESSAGE)
        request = conn.record_cipher.unprotect(records[0])
        body = b"HTTP/1.1 200 OK\r\nServer: repro\r\n\r\nechoed:" + request
        response = conn.record_cipher.protect(body)
        return serialize_records([response])


__all__ = ["TLSServer", "ServerConfig", "ServerConnection", "TicketPolicy"]
