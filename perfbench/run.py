"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep_10k --seed 2016 --seconds 30 --trace 0

``--trace 0`` repeats the workload's unit (set-up, measured phase,
output check) until ``--seconds`` have been measured, at least twice,
and reports the end-to-end metrics as medians over the units.
``--trace 1`` calibrates the tracing wrappers, runs one untraced unit
and then one traced unit, and reports the per-layer metrics.  Every
unit's output is checked (dataset or report digest, pinned in
``digests.json`` for the seeds listed there, and identical across the
units of a run), and so are the exact ``repro.obs`` counters.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
carries the environment (nproc, CPU model, Python, commit, seed) and
per-unit details.  Scratch data lives under ``.bench_build/perfbench/``
in the checkout and is removed before exit.  README.md documents the
workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_build", "perfbench")
DIGESTS = os.path.join(HERE, "digests.json")

#: Every timed run measures at least this many units: one median needs
#: two readings, and the digest/counter repeat check needs a second unit.
MIN_UNITS = 2
MAX_UNITS = 50

#: Exact ``repro.obs`` counters reported by the traced run.  A name sums
#: every flattened counter equal to it or nested under it (so
#: ``scanner.grab.retry`` totals the per-reason retries).
COUNTERS = (
    *(f"experiment.grabs.{name}" for name in (
        "daily-ticket", "daily-dhe", "daily-ecdhe", "support-dhe",
        "support-ecdhe", "support-ticket", "crossdomain", "probe-session_id",
        "probe-ticket")),
    "scanner.grab.attempt",
    *(f"scanner.grab.failure.{reason}" for reason in (
        "nxdomain", "connect_timeout", "no_backend", "outage", "reset",
        "truncate", "handshake", "breaker_open")),
    "scanner.grab.retry",
    *(f"tls.server.handshake.{kex}.{kind}" for kex in ("rsa", "dhe", "ecdhe")
      for kind in ("full", "abbreviated")),
    *(f"tls.server.resumption_{outcome}.{via}"
      for outcome in ("accepted", "rejected") for via in ("session_id", "ticket")),
    "tls.ticket.seal", "tls.ticket.open", "tls.ticket.open_wrong_key",
    "tls.ticket.open_reject",
    "crypto.aes.stek_cipher.hit", "crypto.aes.stek_cipher.miss",
    "x509.sig_memo.hit", "x509.sig_memo.miss",
    *(f"analysis.rows.{channel}" for channel in (
        "ticket_daily", "dhe_daily", "ecdhe_daily", "ticket_support",
        "dhe_support", "ecdhe_support", "ticket_30min", "dhe_30min",
        "ecdhe_30min", "session_probes", "ticket_probes", "cache_edges")),
    "analysis.chunks", "analysis.cache.hit", "analysis.cache.miss",
)


#: Per-layer values derived from the traced run (README.md defines them).
DERIVED = (
    "scanner.useful_work_ratio",
    "scanner.ZGrabber.grab.p50_us",
    "scanner.ZGrabber.grab.p99_us",
    "trace.overhead_ratio",
    "trace.unattributed_share",
    "trace.wrapper_cost_us",
    "report_audit_w2_s",
    "report_audit_warm_s",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def git_commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` ("unknown" without one)."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        with open(os.path.join(git_dir, ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    """Where a result was measured: numbers from two hosts don't compare."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pinned_digest(workload: str, seed: int):
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def unit_of(name: str) -> str:
    """The unit a metric is reported in (see README.md)."""
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(".self_us"):
        return "us/item"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def per_layer_names() -> list:
    """Every metric ``--trace 1`` reports, in output order."""
    from layers import LAYERS

    names = []
    for layer in LAYERS:
        names += [f"{layer.metric}.calls", f"{layer.metric}.self_us"]
        if layer.units is not None:
            names.append(f"{layer.metric}.bytes")
    return names + list(COUNTERS) + list(DERIVED)


def counter_value(counters: dict, name: str) -> int:
    prefix = name + "."
    return sum(value for key, value in counters.items()
               if key == name or key.startswith(prefix))


class Run:
    """The units of one benchmark run and their checks."""

    def __init__(self, workload, seed: int, workdir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.pinned = pinned_digest(workload.name, seed)
        self.units: list = []
        self.attempted = 0
        self.errors: list = []

    def unit(self, probe: bool, tracer_hooks=None):
        """Run one unit; a crash is recorded as a failed unit."""
        from workloads import run_unit

        self.attempted += 1
        directory = tempfile.mkdtemp(dir=self.workdir)
        try:
            result = run_unit(self.workload, self.seed, directory, probe,
                              tracer_hooks)
        except Exception:
            self.errors.append(traceback.format_exc())
            print(self.errors[-1], file=sys.stderr)
            return None
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        self.units.append(result)
        return result

    def checked(self) -> tuple[list, list]:
        """Units whose digest and exact counters match the reference.

        The reference digest is the pinned one when this seed is pinned,
        else the most common one; the reference counters are the most
        common set.  Returns ``(good_units, varying_counter_names)``.
        """
        digests = Counter(unit.digest for unit in self.units)
        reference = self.pinned or (digests.most_common(1)[0][0]
                                    if digests else None)
        counter_sets = Counter(json.dumps(unit.counters, sort_keys=True)
                               for unit in self.units)
        usual = (json.loads(counter_sets.most_common(1)[0][0])
                 if counter_sets else {})
        varying = sorted({
            name for unit in self.units
            for name in set(unit.counters) | set(usual)
            if unit.counters.get(name) != usual.get(name)
        })
        good = []
        for index, unit in enumerate(self.units):
            if unit.digest != reference:
                self.errors.append(f"unit {index}: digest {unit.digest} != "
                                   f"expected {reference}")
            elif unit.counters != usual:
                self.errors.append(f"unit {index}: exact counters differ")
            else:
                good.append(unit)
        return good, varying

    def warmup(self) -> None:
        directory = tempfile.mkdtemp(dir=self.workdir)
        try:
            self.workload.warmup(directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def result(self, metrics: dict, good: list) -> dict:
        failed = self.attempted - len(good)
        return {
            "correct": failed == 0,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit_of(name)}
                        for name, value in metrics.items()},
        }


def timed_run(run: Run, seconds: float) -> tuple[dict, list, list]:
    """Repeat units until ``seconds`` are measured; end-to-end metrics."""
    run.warmup()
    durations: list = []
    deadline = time.perf_counter() + seconds
    while run.attempted < MAX_UNITS:
        started = time.perf_counter()
        run.unit(probe=True)
        durations.append(time.perf_counter() - started)
        if (run.attempted >= MIN_UNITS
                and time.perf_counter() + statistics.median(durations) > deadline):
            break
    good, varying = run.checked()
    if not good:
        return {}, varying, good
    metrics = {
        "setup_s": statistics.median(unit.setup_s for unit in good),
        "wall_s": statistics.median(wall for unit in good
                                    for wall in unit.walls),
        "items_per_s": statistics.median(unit.items / wall for unit in good
                                         for wall in unit.walls),
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, varying, good


def traced_run(run: Run) -> tuple[dict, list, list]:
    """One untraced then one traced unit; per-layer metrics."""
    from layers import LAYERS, Tracer, calibrate, install, percentile, uninstall

    inner, outer = calibrate()
    run.warmup()
    untraced = run.unit(probe=False)
    tracer = Tracer(inner_cost=inner, outer_cost=outer)
    undo: list = []
    span: dict = {}

    def start():
        undo.extend(install(tracer))
        span["start"] = time.perf_counter()

    def stop():
        span["wall_s"] = time.perf_counter() - span["start"]
        uninstall(undo)

    traced = run.unit(False, (start, stop))
    good, varying = run.checked()
    if untraced is None or traced is None or len(good) < 2:
        return {}, varying, good
    items = traced.items
    metrics: dict = {}
    for layer in LAYERS:
        record = tracer.record(layer.metric)
        metrics[f"{layer.metric}.calls"] = record.calls
        metrics[f"{layer.metric}.self_us"] = record.self_s * 1e6 / items
        if layer.units is not None:
            metrics[f"{layer.metric}.bytes"] = record.units
    for name in COUNTERS:
        metrics[name] = counter_value(traced.counters, name)
    attempts = metrics["scanner.grab.attempt"]
    failures = counter_value(traced.counters, "scanner.grab.failure")
    metrics["scanner.useful_work_ratio"] = (
        (attempts - failures) / attempts if attempts else 0.0)
    grab_samples = tracer.record("scanner.ZGrabber.grab").samples
    metrics["scanner.ZGrabber.grab.p50_us"] = percentile(grab_samples, 0.50) * 1e6
    metrics["scanner.ZGrabber.grab.p99_us"] = percentile(grab_samples, 0.99) * 1e6
    wall = span["wall_s"]
    metrics["trace.overhead_ratio"] = wall / (untraced.setup_s
                                              + untraced.walls[0])
    metrics["trace.unattributed_share"] = tracer.unattributed_s(wall) / wall
    metrics["trace.wrapper_cost_us"] = (inner + outer) * 1e6
    for phase in ("report_audit_w2_s", "report_audit_warm_s"):
        metrics[phase] = statistics.median(untraced.phases.get(phase, [0.0]))
    return {name: metrics[name] for name in per_layer_names()}, varying, good


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure ({SRC}/repro is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    # A terminated run still removes its scratch data and waits for any
    # analysis pool it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    run = Run(WORKLOADS[args.workload], args.seed, workdir)
    try:
        if args.trace:
            metrics, varying, good = traced_run(run)
        else:
            metrics, varying, good = timed_run(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = run.result(metrics, good)
    print(json.dumps({"perfbench": {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "pinned_digest": run.pinned,
        "digests": sorted({unit.digest for unit in run.units}),
        "units": [{"setup_s": unit.setup_s, "walls": unit.walls,
                   "items": unit.items, **unit.phases, "raw_s": unit.raw}
                  for unit in run.units],
        "varying_counters": varying,
        "errors": run.errors,
    }}))
    print(json.dumps(result))
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
