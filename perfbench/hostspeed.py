"""Host-speed normalisation for timed phases.

On a shared virtual machine the speed of a vCPU swings with what other
tenants run on the same physical cores: on a 2-vCPU Intel Xeon virtual
machine a fixed pure-Python loop took anywhere from 1.0x to 1.9x its
fastest time, in regimes lasting from seconds to minutes, independently
on each vCPU.  A phase timed in one regime is not comparable with the
same phase timed in another, and medians over a run do not fix that
when a whole run falls into one regime.

:class:`SpeedProbe` measures the regime *while the phase runs*, on the
same vCPU: a ``SIGALRM`` interval timer interrupts the phase every
:data:`PERIOD_S` seconds and the handler times a fixed reference kernel
(:func:`kernel`: JSON decoding, dict updates, big-integer modular
exponentiation and SHA-256, the operations the program itself spends
its time in).  :meth:`SpeedProbe.seconds` then reports the phase's
time with the probes' own cost removed, scaled by how much slower than
:data:`NOMINAL_PROBE_S` the kernel ran during the phase:

    normalised = (wall - time spent in probes) * NOMINAL_PROBE_S / median(probe)

so the result estimates the phase's time on a vCPU where the kernel
takes exactly :data:`NOMINAL_PROBE_S`.  The raw wall time is kept next
to it.  The handler touches nothing of the program's state, and signal
handlers run between bytecodes of the main thread only.
"""

from __future__ import annotations

import hashlib
import json
import signal
import statistics
import time

#: Interval between probes.
PERIOD_S = 0.02
#: Reference speed the normalised seconds are expressed in: about the
#: kernel's time on an uncontended vCPU of a 2-vCPU Intel Xeon virtual
#: machine, where it ran in 0.4-0.9 ms depending on the neighbours.
NOMINAL_PROBE_S = 0.0004
#: Kernel iterations per probe.
PROBE_ITERATIONS = 40

_ROW = json.dumps({
    "domain": "site00012.example", "day": 3, "timestamp": 259200.0,
    "rank": 13, "ip": "198.51.13.91", "success": True,
    "cipher": "ECDHE-RSA-AES128-SHA", "kex_kind": "ecdhe",
    "stek_id": "stek-12-0", "kex_public": None,
})
_MODULUS = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFFFFFFFFFFFF


def kernel(iterations: int = PROBE_ITERATIONS) -> bytes:
    """The fixed reference work one probe times."""
    totals: dict = {}
    for i in range(iterations):
        row = json.loads(_ROW)
        key = row["domain"] + str(i & 63)
        totals[key] = totals.get(key, 0) + row["rank"]
        pow(0x1234567890ABCDEF1234567890ABCDEF + i, 65537, _MODULUS)
    return hashlib.sha256(repr(sorted(totals.items())).encode()).digest()


class SpeedProbe:
    """Context manager that probes host speed while a phase runs."""

    def __init__(self) -> None:
        self.samples: list = []
        self.started = 0.0
        self.wall_s = 0.0
        self._previous = None

    def _probe(self, signum, frame) -> None:
        started = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - started)

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self.started = time.perf_counter()
        # The first probe fires almost at once, so even a short phase
        # gets a reading.
        signal.setitimer(signal.ITIMER_REAL, 0.001, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall_s = time.perf_counter() - self.started
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self) -> float:
        """The phase's normalised seconds (see the module docstring)."""
        if not self.samples:
            raise ValueError("no probe fired during the phase")
        work = self.wall_s - sum(self.samples)
        return work * NOMINAL_PROBE_S / statistics.median(self.samples)
