"""Outside-in per-layer tracing: timed wrappers around each layer's
public calls, installed from the benchmark's own files.

Nothing under ``src/`` knows it is being traced.  :func:`install`
replaces each function in :data:`LAYERS` with a wrapper *where its
caller looks it up*: a method on its class, a module-level function on
its defining module and on every module that imported the name (for
example ``repro.scanner.grab.fast_handshake``, because ``grab`` does
``from ..tls.fastpath import fast_handshake``).  :func:`uninstall`
puts the originals back.

Each wrapper keeps, per layer, the exact call count and the *self*
time: the call's inclusive duration minus the inclusive durations of
the wrapped calls made inside it.  Spans are folded into these sums as
they close instead of being kept, because the hottest layer
(``DeterministicRandom.random_bytes``) runs hundreds of thousands of
times per unit.  Only layers marked ``sample`` keep one duration per
call (for percentiles).

A wrapper costs a fraction of a microsecond.  :func:`calibrate` splits
that cost into the part inside the wrapper's own timing window
(``inner_cost``, subtracted from the call's self time) and the part
outside it (``outer_cost``, which lands in the caller's window and is
subtracted from the caller's self time).  What is left of the traced
wall once every layer's self time and the wrapper cost are removed is
time spent outside any wrapped call: the *unattributed* share.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class CallRecord:
    """Accumulated cost of one layer."""

    calls: int = 0
    self_s: float = 0.0
    #: Sum of a size argument (bytes drawn, for the DRBG).
    units: int = 0
    #: Per-call inclusive seconds, wrapper cost removed (sampled layers).
    samples: list = field(default_factory=list)


class Tracer:
    """Folds wrapped calls into per-layer :class:`CallRecord` sums.

    ``clock`` is injectable so the arithmetic can be tested with a
    scripted clock.  ``inner_cost``/``outer_cost`` are the calibrated
    per-call wrapper costs (see :func:`calibrate`).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 inner_cost: float = 0.0, outer_cost: float = 0.0) -> None:
        self.clock = clock
        self.inner_cost = inner_cost
        self.outer_cost = outer_cost
        self.records: dict[str, CallRecord] = {}
        # One accumulator per open span for the time its wrapped
        # children took; the bottom entry collects the root spans.
        self._stack = [0.0]

    def record(self, name: str) -> CallRecord:
        return self.records.setdefault(name, CallRecord())

    @property
    def root_s(self) -> float:
        """Inclusive time of root spans plus their outer wrapper cost."""
        return self._stack[0]

    def total_calls(self) -> int:
        return sum(record.calls for record in self.records.values())

    def attributed_s(self) -> float:
        return sum(record.self_s for record in self.records.values())

    def overhead_s(self) -> float:
        return self.total_calls() * (self.inner_cost + self.outer_cost)

    def unattributed_s(self, wall_s: float) -> float:
        """Traced wall not inside any wrapped call and not wrapper cost."""
        return wall_s - self.attributed_s() - self.overhead_s()

    def wrap(self, name: str, fn: Callable, units: Optional[Callable] = None,
             sample: bool = False) -> Callable:
        """A traced stand-in for ``fn`` that charges its cost to ``name``.

        ``units(args, kwargs)`` returns a size to add to the record's
        ``units``; ``sample`` keeps each call's inclusive duration.
        """
        record = self.record(name)
        stack = self._stack
        clock = self.clock
        inner = self.inner_cost
        outer = self.outer_cost

        # Three closures rather than one with flags: the plain one runs
        # hundreds of thousands of times per unit, so it tests nothing.
        if sample:
            per_call = inner + outer

            def wrapper(*args, **kwargs):
                calls_before = self.total_calls()
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    child = stack.pop()
                    record.calls += 1
                    record.self_s += elapsed - child - inner
                    stack[-1] += elapsed + outer
                    nested = self.total_calls() - calls_before - 1
                    record.samples.append(elapsed - inner - nested * per_call)
        elif units is not None:
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    child = stack.pop()
                    record.calls += 1
                    record.self_s += elapsed - child - inner
                    record.units += units(args, kwargs)
                    stack[-1] += elapsed + outer
        else:
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    child = stack.pop()
                    record.calls += 1
                    record.self_s += elapsed - child - inner
                    stack[-1] += elapsed + outer

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper


def calibrate(rounds: int = 7, calls: int = 20_000,
              clock: Callable[[], float] = time.perf_counter) -> tuple[float, float]:
    """Measure the wrapper's per-call cost as ``(inner_cost, outer_cost)``.

    Times a no-op called plainly and through a wrapper; the difference
    is the whole per-call cost, and the wrapper's own recorded duration
    minus the plain call is the part inside its timing window.  The
    minimum over ``rounds`` is kept, as the least disturbed reading.
    """
    def noop():
        return None

    plain = wrapped_cost = window = float("inf")
    for _ in range(rounds):
        start = clock()
        for _ in range(calls):
            noop()
        plain = min(plain, (clock() - start) / calls)
        probe = Tracer(clock)
        wrapped = probe.wrap("noop", noop)
        start = clock()
        for _ in range(calls):
            wrapped()
        wrapped_cost = min(wrapped_cost, (clock() - start) / calls)
        window = min(window, probe.records["noop"].self_s / calls)
    per_call = max(0.0, wrapped_cost - plain)
    inner = min(per_call, max(0.0, window - plain))
    return inner, per_call - inner


@dataclass(frozen=True)
class Layer:
    """One traced public call.

    ``owner`` is ``"module"`` for a function or ``"module:Class"`` for a
    method; ``sites`` are further modules that imported the function by
    name and so must be patched too.  With ``subclasses`` the method is
    patched on the class and on every subclass that defines it, all
    charged to one metric.
    """

    metric: str
    owner: str
    attr: str
    sites: tuple = ()
    subclasses: bool = False
    sample: bool = False
    units: Optional[Callable] = None


def _drawn(args, kwargs) -> int:
    return args[1] if len(args) > 1 else kwargs["n"]


#: The layer → public-call table (README.md explains which end-to-end
#: metric each should move, on which workload).
LAYERS = (
    Layer("hosting.build_ecosystem", "repro.hosting.ecosystem",
          "build_ecosystem", sites=("repro.hosting",)),
    Layer("hosting.Ecosystem.advance_to", "repro.hosting.ecosystem:Ecosystem",
          "advance_to"),
    Layer("crypto.rng.DeterministicRandom.random_bytes",
          "repro.crypto.rng:DeterministicRandom", "random_bytes", units=_drawn),
    Layer("tls.keyexchange.EphemeralKeyCache.get_ec",
          "repro.tls.keyexchange:EphemeralKeyCache", "get_ec"),
    Layer("tls.keyexchange.EphemeralKeyCache.get_dh",
          "repro.tls.keyexchange:EphemeralKeyCache", "get_dh"),
    Layer("tls.fastpath.fast_handshake", "repro.tls.fastpath", "fast_handshake",
          sites=("repro.scanner.grab",)),
    Layer("tls.client.TLSClient.connect", "repro.tls.client:TLSClient",
          "connect"),
    Layer("tls.ticket.seal_ticket", "repro.tls.ticket", "seal_ticket"),
    Layer("tls.ticket.open_ticket", "repro.tls.ticket", "open_ticket"),
    Layer("tls.session.SessionCache.store", "repro.tls.session:SessionCache",
          "store"),
    Layer("tls.session.SessionCache.lookup", "repro.tls.session:SessionCache",
          "lookup"),
    Layer("x509.TrustStore.validate", "repro.x509.certificate:TrustStore",
          "validate"),
    Layer("netsim.DNSZone.resolve", "repro.netsim.dns:DNSZone", "resolve"),
    Layer("netsim.Network.connect", "repro.netsim.network:Network", "connect"),
    Layer("netsim.EventLoop.run", "repro.netsim.eventloop:EventLoop", "run"),
    Layer("scanner.ZGrabber.grab", "repro.scanner.grab:ZGrabber", "grab",
          sample=True),
    Layer("scanner.ZGrabber.connect", "repro.scanner.grab:ZGrabber", "connect"),
    Layer("scanner.sweep", "repro.scanner.schedule", "sweep",
          sites=("repro.scanner.experiments",)),
    Layer("scanner.resumption_probe", "repro.scanner.resumption",
          "resumption_probe", sites=("repro.scanner.experiments",)),
    Layer("scanner.cross_domain_cache_probe", "repro.scanner.crossdomain",
          "cross_domain_cache_probe", sites=("repro.scanner.experiments",)),
    Layer("scanner.records.ScanObservation.to_json",
          "repro.scanner.records:ScanObservation", "to_json"),
    Layer("scanner.datastore.JsonlWriter.append_many",
          "repro.scanner.datastore:JsonlWriter", "append_many"),
    Layer("analysis.plan_chunks", "repro.analysis.chunks", "plan_chunks",
          sites=("repro.analysis.engine",)),
    Layer("analysis.read_chunk", "repro.analysis.chunks", "read_chunk",
          sites=("repro.analysis.engine",)),
    Layer("analysis.parse_chunk", "repro.analysis.chunks", "parse_chunk",
          sites=("repro.analysis.engine",)),
    Layer("analysis.aggregates.fold", "repro.analysis.aggregates:ShardAggregate",
          "fold", subclasses=True),
    Layer("analysis.aggregates.merge", "repro.analysis.aggregates:ShardAggregate",
          "merge", subclasses=True),
    Layer("analysis.aggregates.finalize",
          "repro.analysis.aggregates:ShardAggregate", "finalize",
          subclasses=True),
    Layer("analysis.AnalysisEngine.run", "repro.analysis.engine:AnalysisEngine",
          "run"),
    Layer("analysis.render_report", "repro.analysis.reports", "render_report"),
    Layer("analysis.render_audit", "repro.analysis.reports", "render_audit"),
)


def _class_tree(cls: type) -> list:
    tree, todo = [], [cls]
    while todo:
        current = todo.pop()
        tree.append(current)
        todo.extend(current.__subclasses__())
    return tree


def install(tracer: Tracer, layers=LAYERS) -> list:
    """Patch every layer; returns the undo list for :func:`uninstall`.

    Raises ``LookupError`` when a listed import site no longer holds
    the function: the program changed and the table must follow it.
    """
    undo: list = []
    try:
        for layer in layers:
            module_name, _, class_name = layer.owner.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                owners = [getattr(module, class_name)]
                if layer.subclasses:
                    owners = [cls for cls in _class_tree(owners[0])
                              if layer.attr in vars(cls)]
                for owner in owners:
                    original = vars(owner)[layer.attr]
                    undo.append((owner, layer.attr, original))
                    setattr(owner, layer.attr, tracer.wrap(
                        layer.metric, original, layer.units, layer.sample))
                continue
            original = getattr(module, layer.attr)
            wrapper = tracer.wrap(layer.metric, original, layer.units,
                                  layer.sample)
            for site_name in (module_name,) + layer.sites:
                site = importlib.import_module(site_name)
                if getattr(site, layer.attr) is not original:
                    raise LookupError(
                        f"{site_name}.{layer.attr} is not "
                        f"{module_name}.{layer.attr}")
                undo.append((site, layer.attr, original))
                setattr(site, layer.attr, wrapper)
    except BaseException:
        uninstall(undo)
        raise
    return undo


def uninstall(undo: list) -> None:
    """Restore what :func:`install` patched, newest first."""
    while undo:
        owner, attr, original = undo.pop()
        setattr(owner, attr, original)


def percentile(values: list, share: float) -> float:
    """Nearest-rank percentile of ``values`` (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(share * len(ordered)) - 1))
    return ordered[index]
