"""One workload in one fresh process: set up, warm up, then measure.

Started by run.py as ``worker.py --root DIR --workload NAME --seed N
--mode probe|timed|trace --seconds S``. It writes ``ready`` to stdout once
its first (warm-up) request has returned, so the parent can time set-up,
then one JSON line with the raw results of the phase. Anything the library
prints is captured around each request and counted, so stdout carries
these two lines only.

- ``probe`` stops after the warm-up and a few calibration slices
  (calibration.py): it only times set-up.
- ``timed`` runs the closed loop for at least ``--seconds`` of requests,
  ending on a whole block of requests so every run weighs the inputs
  alike, with a calibration slice between requests every
  ``SLICE_EVERY_S``; then it checks every output against the workload's
  oracle.
- ``trace`` runs a fixed list of requests, each once untraced and once with
  span hooks installed, so counts repeat exactly at a given seed and the
  overhead compares the two runs of the same requests.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from collections import namedtuple

import calibration
import tracing
from workloads import WORKLOADS

# a run must end within 180 s; stop issuing requests well before that
HARD_STOP_S = 120.0
# enough samples that the tail percentile sits above the median
MIN_REQUESTS = 20
# wall time between calibration slices in the timed loop, and the number of
# slices a probe runs after its warm-up
SLICE_EVERY_S = 0.2
PROBE_SLICES = 5

LoopResult = namedtuple("LoopResult", "latencies indices errors first unstable elapsed")


def import_library(root):
    """Import threshold_diffusion (and its CLI) from ``root/src`` only."""
    src = os.path.abspath(os.path.join(root, "src"))
    if not os.path.isfile(os.path.join(src, "threshold_diffusion", "__init__.py")):
        raise SystemExit(f"error: no threshold_diffusion package under {src}")
    sys.path.insert(0, src)
    import threshold_diffusion as lib
    import threshold_diffusion.cli  # noqa: F401  the CLI workload and its hook need it loaded
    if not os.path.abspath(lib.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: threshold_diffusion was imported from {lib.__file__}")
    return lib


class Quiet:
    """Runs calls with stdout captured, counting what the library printed."""

    def __init__(self, execute):
        self.execute = execute
        self.chars = 0

    def __call__(self, spec):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                return self.execute(spec)
        finally:
            self.chars += len(buf.getvalue())


def closed_loop(specs, execute, seconds, block, min_requests=MIN_REQUESTS, calibrator=None):
    """Issue specs in order, cyclically, each request after the previous returns.

    Stops at the first multiple of ``block`` requests reached after
    ``seconds`` (and at least ``min_requests``). A request that raises is
    recorded as an error and the loop goes on. The first output of each
    spec is kept; a repeat that differs from it marks the spec unstable.
    With a ``calibrator``, a slice of it runs before the first request,
    between two requests once ``SLICE_EVERY_S`` have passed since the last
    one, and after the last request; the time slices take is left out of
    the elapsed time.
    """
    latencies, indices, errors = [], [], {}
    first, unstable = {}, set()
    start = next_slice = time.perf_counter()
    paused = 0.0
    i = 0
    while True:
        now = time.perf_counter()
        elapsed = now - start - paused
        if i >= min_requests and (elapsed >= HARD_STOP_S
                                  or (i % block == 0 and elapsed >= seconds)):
            break
        if calibrator is not None and now >= next_slice:
            paused += calibrator.slice(i)
            next_slice = time.perf_counter() + SLICE_EVERY_S
        k = i % len(specs)
        t0 = time.perf_counter()
        try:
            out = execute(specs[k])
        except Exception as exc:  # a failed request is counted, not fatal
            out = exc
        latencies.append(time.perf_counter() - t0)
        indices.append(k)
        if isinstance(out, Exception):
            errors[i] = f"{type(out).__name__}: {out}"
        elif k not in first:
            first[k] = out
        elif out != first[k]:
            unstable.add(k)
        i += 1
    elapsed = time.perf_counter() - start - paused
    if calibrator is not None:
        calibrator.slice(i)
    return LoopResult(latencies, indices, errors, first, unstable, elapsed)


def judge(workload, lib, specs, loop):
    """Failure messages, one per failed request of the loop (outside any timing)."""
    try:
        bad = workload.check(lib, specs, loop.first)
    except Exception as exc:  # an oracle that cannot run passes nothing
        bad = {k: f"oracle raised {type(exc).__name__}: {exc}" for k in loop.first}
    for k in loop.unstable:
        bad.setdefault(k, "a repeat of this request gave a different output")
    out = []
    for i, k in enumerate(loop.indices):
        if i in loop.errors:
            out.append(loop.errors[i])
        elif k in bad:
            out.append(bad[k])
    return out


def _output_bytes(loop):
    return sum(loop.first[k].get("bytes", 0) for k in loop.indices
               if isinstance(loop.first.get(k), dict))


def timed_phase(workload, lib, specs, execute, seconds):
    cal = calibration.Calibrator()
    loop = closed_loop(specs, execute, seconds, workload.block, calibrator=cal)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = judge(workload, lib, specs, loop)
    return {"latencies": loop.latencies, "elapsed": loop.elapsed,
            "attempted": len(loop.latencies), "failed": len(failures),
            "failure_samples": failures[:5], "peak_rss_mb": rss_mb, "calibration": cal.slices,
            "nominal_work": sum(workload.nominal_work(specs[k]) for k in loop.indices)}


def trace_phase(workload, lib, specs, execute, spans_path):
    """A fixed request list, each request run untraced and traced back to back.

    The pair alternates which run goes first, so warm caches favour neither
    and slow drift in the machine's speed cancels out of the overhead.
    """
    rec = tracing.Recorder()
    seconds = {"untraced": 0.0, "traced": 0.0}
    status = {}
    counter_failures = set()
    pairs = itertools.count()

    def paired(spec):
        i = next(pairs)
        outputs = {}
        for mode in (("untraced", "traced") if i % 2 == 0 else ("traced", "untraced")):
            hooks = tracing.Hooks(rec) if mode == "traced" else None
            rec.active = hooks is not None
            t0 = time.perf_counter()
            try:
                outputs[mode] = execute(spec)
            finally:
                seconds[mode] += time.perf_counter() - t0
                rec.active = False
                if hooks is not None:
                    hooks.remove()
                    status.update(hooks.status)
                    counter_failures.update(hooks.counter_failures)
        if outputs["traced"] != outputs["untraced"]:
            raise RuntimeError("the traced run changed the output")
        return outputs["traced"]

    n = workload.trace_requests
    loop = closed_loop(specs, paired, 0.0, 1, min_requests=n)
    spans = rec.spans()
    metrics = tracing.layer_metrics(spans, n, _output_bytes(loop))
    metrics["trace.overhead"] = (seconds["traced"] / seconds["untraced"] - 1.0, "ratio")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"hooks": status, "counter_failures": sorted(counter_failures),
                   "fields": tracing.Span._fields, "spans": spans}, fh)
    failures = judge(workload, lib, specs, loop)
    return {"per_layer": metrics, "hooks": status, "counter_failures": sorted(counter_failures),
            "attempted": 2 * len(loop.latencies), "failed": 2 * len(failures),
            "failure_samples": failures[:5], "spans": len(spans),
            "spans_file": os.path.relpath(spans_path)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("probe", "timed", "trace"), required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    lib = import_library(args.root)
    workload = WORKLOADS[args.workload]
    specs = workload.inputs(args.seed)
    workdir = tempfile.mkdtemp(prefix="work-", dir=args.out_dir)
    try:
        execute = Quiet(workload.executor(lib, workdir))
        try:
            execute(specs[0])
        except Exception:  # the measured phase counts this request if it fails again
            pass
        print("ready", flush=True)
        if args.mode == "probe":
            cal = calibration.Calibrator()
            for _ in range(PROBE_SLICES):
                cal.slice(0)
            print(json.dumps({"calibration": cal.slices}), flush=True)
            return 0
        if args.mode == "timed":
            result = timed_phase(workload, lib, specs, execute, args.seconds)
        else:
            spans_path = os.path.join(args.out_dir, f"spans-{args.workload}-{args.seed}.json")
            result = trace_phase(workload, lib, specs, execute, spans_path)
        result["captured_stdout_chars"] = execute.chars
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
