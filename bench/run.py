"""Closed-loop benchmark of threshold_diffusion, one workload per fresh process.

    python3 bench/run.py --workload density-curves --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 0 --seconds 20 [--trace 1]

Each workload is a single client on a single process that issues its next
request when the previous one returns (see workloads.py for the four
workloads and why each was chosen). The program is imported from ``src/``
of the checkout this file sits in; the benchmark hands it only inputs
generated from ``--seed``.

With ``--trace 0`` the workload runs untraced: set-up is timed in
PROBES + 1 fresh processes and reported as their median, then the last of
them runs the timed closed loop and every output is checked against the
workload's oracle. Every process also times slices of a fixed reference
computation (calibration.py), and the reported timings are scaled to a
host of the reference speed, because a shared host's own speed swings by
more than any bound a change could be held to; the report on stderr keeps
the unscaled figures and the scale next to them. With ``--trace 1`` one
process runs a fixed request list, each request once untraced and once
traced, and reports per-layer metrics from the spans (tracing.py) plus the
tracing overhead.

Stdout is one JSON line: ``correct``, ``attempted``, ``failed`` and the
metrics, each with its unit. ``--all`` instead prints one JSON document
with every workload's full report. The full report of a single workload,
with the environment, sample counts and the tail percentile used, goes to
stderr; the spans of a traced run are written under ``.bench_out/``.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import calibration
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

# set-up is timed in this many extra processes besides the measured one
PROBES = 8
# a worker that has not finished by then is killed; runs must end within 180 s
WORKER_DEADLINE_S = 170.0

E2E_UNITS = {"setup_s": "s", "requests_per_s": "1/s", "path_steps_per_s": "1/s",
             "latency_p50_ms": "ms", "latency_tail_ms": "ms", "error_rate": "share",
             "peak_rss_mb": "MB"}
# The one-line result carries the metrics BENCHMARK.json bounds; the report
# has all seven. error_rate (0 when healthy) travels as failed/attempted,
# path_steps_per_s exists on mc-ensembles only, and latency_tail_ms, at
# p99.7-p99.9 on the high-volume workloads, moved up to 29% between unscaled
# runs of unchanged code on a shared 2-vCPU host, too much to gate a change on.
E2E_RESULT = ("setup_s", "requests_per_s", "latency_p50_ms", "peak_rss_mb")


class BenchError(Exception):
    """The benchmark could not run the workload."""


def tail_index(n):
    """Ascending rank of the highest-percentile sample with ten samples beyond it."""
    if n < 11:
        raise ValueError(f"a tail percentile needs at least 11 samples, got {n}")
    return n - 11


def latency_summary(latencies_s):
    xs = sorted(latencies_s)
    k = tail_index(len(xs))
    return {"latency_p50_ms": statistics.median(xs) * 1e3,
            "latency_tail_ms": xs[k] * 1e3,
            "latency_tail_percentile": 100.0 * (k + 1) / len(xs),
            "samples": len(xs)}


def end_to_end(setups, timed):
    """All seven end-to-end metrics, timings scaled to the reference host.

    ``setups`` holds one (seconds, calibration slices) pair per spawn; the
    timed phase carries its own slices. Also returns the unscaled timings
    and the timed phase's scale, its requests' scales weighted by latency.
    """
    lat = latency_summary(timed["latencies"])
    elapsed = timed["elapsed"]
    raw = {
        "setup_s": statistics.median(s for s, _ in setups),
        "requests_per_s": timed["attempted"] / elapsed,
        "path_steps_per_s": timed["nominal_work"] / elapsed if timed["nominal_work"] else None,
        "latency_p50_ms": lat["latency_p50_ms"],
        "latency_tail_ms": lat["latency_tail_ms"],
    }
    scales = calibration.request_scales(len(timed["latencies"]), timed["calibration"])
    scaled = [x * k for x, k in zip(timed["latencies"], scales)]
    k = sum(scaled) / sum(timed["latencies"])
    scaled_lat = latency_summary(scaled)
    metrics = {
        "setup_s": statistics.median(s * calibration.scale(c) for s, c in setups),
        "requests_per_s": raw["requests_per_s"] / k,
        "path_steps_per_s": raw["path_steps_per_s"] and raw["path_steps_per_s"] / k,
        "latency_p50_ms": scaled_lat["latency_p50_ms"],
        "latency_tail_ms": scaled_lat["latency_tail_ms"],
        "error_rate": timed["failed"] / timed["attempted"],
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    samples = {"setup_s": len(setups), "latency": lat["samples"],
               "calibration_slices": len(timed["calibration"])}
    return metrics, samples, lat["latency_tail_percentile"], raw, k


def _git(root, *args):
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", *args], cwd=root, env=env, capture_output=True,
                              text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root):
    rev = _git(root, "rev-parse", "HEAD")
    dirty = _git(root, "status", "--porcelain") if rev else None
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy_version,
            "git_rev": rev or "unknown", "git_dirty": None if rev is None else bool(dirty),
            "loadavg_1m_start": os.getloadavg()[0]}


def spawn(workload, seed, mode, seconds):
    """Run one worker; returns (seconds from spawn to warm-up done, its result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--seconds", repr(float(seconds)), "--out-dir", OUT_DIR]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(WORKER_DEADLINE_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or code != 0:
        raise BenchError(f"{workload} worker ({mode}) exited with {code} before finishing")
    try:
        return setup, json.loads(rest.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{workload} worker ({mode}) printed no result") from None


def run_workload(workload, seed, seconds, trace):
    """Full report of one workload: metrics with units, counts and context."""
    os.makedirs(OUT_DIR, exist_ok=True)
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    if trace:
        _, result = spawn(workload, seed, "trace", seconds)
        report["metrics"] = {k: {"value": v, "unit": u}
                             for k, (v, u) in result.pop("per_layer").items()}
    else:
        setups = []
        for _ in range(PROBES):
            setup, probe = spawn(workload, seed, "probe", seconds)
            setups.append((setup, probe["calibration"]))
        setup, result = spawn(workload, seed, "timed", seconds)
        setups.append((setup, result["calibration"]))
        metrics, samples, tail_pct, raw, scale = end_to_end(setups, result)
        report["metrics"] = {k: {"value": v, "unit": E2E_UNITS[k]}
                             for k, v in metrics.items() if v is not None}
        report["unscaled"] = {k: {"value": v, "unit": E2E_UNITS[k]}
                              for k, v in raw.items() if v is not None}
        report["scale"] = scale
        report["samples"] = samples
        report["latency_tail_percentile"] = tail_pct
        report["elapsed_s"] = result["elapsed"]
        result = {k: v for k, v in result.items()
                  if k not in ("latencies", "elapsed", "nominal_work", "peak_rss_mb",
                               "calibration")}
    report.update(result)
    return report


def result_line(report):
    names = E2E_RESULT if not report["trace"] else report["metrics"]
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {k: report["metrics"][k] for k in names}}


def main():
    ap = argparse.ArgumentParser(description="threshold_diffusion closed-loop benchmark")
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=list(WORKLOADS))
    which.add_argument("--all", action="store_true", help="every workload, one JSON document")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "threshold_diffusion", "__init__.py")):
        print(f"error: no threshold_diffusion sources under {ROOT}/src", file=sys.stderr)
        return 2

    env = environment(ROOT)
    names = list(WORKLOADS) if args.all else [args.workload]
    try:
        reports = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_1m_end"] = os.getloadavg()[0]
    if args.all:
        print(json.dumps({"environment": env, "workloads": reports}, indent=2))
        return 0
    reports[0]["environment"] = env
    print(json.dumps(reports[0], indent=2), file=sys.stderr)
    print(json.dumps(result_line(reports[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
