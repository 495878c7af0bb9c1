"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import math
import os
import sys
import time

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_tail_percentile_leaves_ten_samples_beyond_it():
    for n in range(11, 3000):
        k = run.tail_index(n)
        assert n - 1 - k == 10  # exactly ten beyond, so no higher rank qualifies
    with pytest.raises(ValueError):
        run.tail_index(10)
    lat = run.latency_summary([i / 1000.0 for i in range(1, 101)])
    assert lat["latency_tail_ms"] == pytest.approx(90.0)
    assert lat["latency_tail_percentile"] == pytest.approx(90.0)
    assert lat["latency_p50_ms"] == pytest.approx(50.5)


class _Fake:
    """A workload whose oracle rejects spec 2 and whose spec 3 raises."""

    block = 1

    def check(self, lib, specs, outputs):
        return {2: "oracle miss"} if 2 in outputs else {}

    def nominal_work(self, spec):
        return 0


def _fake_execute(spec):
    if spec == 3:
        raise ValueError("injected")
    return float(spec)


def _timed(execute, n=40):
    specs = list(range(5))
    loop = worker.closed_loop(specs, execute, 0.0, 1, min_requests=n)
    failures = worker.judge(_Fake(), None, specs, loop)
    return {"latencies": loop.latencies, "elapsed": loop.elapsed,
            "attempted": len(loop.latencies), "failed": len(failures),
            "peak_rss_mb": 1.0, "nominal_work": 0,
            "calibration": [(0, calibration.REFERENCE_S)]}, failures


def test_injected_failing_request_raises_error_rate():
    timed, failures = _timed(_fake_execute)
    at_reference = [(0, calibration.REFERENCE_S)]
    metrics, samples, _, _, _ = run.end_to_end(
        [(0.1, at_reference), (0.2, at_reference), (0.3, at_reference)], timed)
    # specs 2 (oracle miss) and 3 (raises) are 2 of every 5 requests
    assert metrics["error_rate"] == pytest.approx(2 / 5)
    assert any("injected" in f for f in failures)
    assert any("oracle miss" in f for f in failures)
    assert samples == {"setup_s": 3, "latency": 40, "calibration_slices": 1}
    assert metrics["setup_s"] == pytest.approx(0.2)
    assert metrics["path_steps_per_s"] is None


def test_timings_scale_with_the_calibration_slices():
    ref = calibration.REFERENCE_S
    timed = {"latencies": [0.01 * i for i in range(1, 101)], "elapsed": 5.0, "attempted": 100,
             "failed": 0, "peak_rss_mb": 1.0, "nominal_work": 1000,
             # slices at twice the reference time around every request: half speed
             "calibration": [(0, 1.5 * ref), (50, 2.5 * ref), (100, 1.5 * ref)]}
    setups = [(0.4, [(0, 2.0 * ref)]), (1.0, [(0, 3.0 * ref), (0, 5.0 * ref)]), (0.2, [(0, ref)])]
    metrics, _, _, raw, scale = run.end_to_end(setups, timed)
    assert scale == pytest.approx(0.5)
    assert raw["requests_per_s"] == pytest.approx(20.0)
    assert metrics["requests_per_s"] == pytest.approx(40.0)
    assert metrics["path_steps_per_s"] == pytest.approx(400.0)
    assert metrics["latency_p50_ms"] == pytest.approx(0.5 * raw["latency_p50_ms"])
    assert metrics["latency_tail_ms"] == pytest.approx(0.5 * raw["latency_tail_ms"])
    assert raw["setup_s"] == pytest.approx(0.4)
    assert metrics["setup_s"] == pytest.approx(0.2)  # each spawn scaled by its own slices
    assert metrics["peak_rss_mb"] == 1.0


def test_each_request_takes_the_slices_around_it():
    ref = calibration.REFERENCE_S
    slices = [(0, ref), (2, 3.0 * ref), (3, 0.5 * ref)]
    assert calibration.request_scales(4, slices) == pytest.approx([0.5, 0.5, 2 / 3.5, 2.0])


def test_calibration_slices_leave_the_elapsed_time():
    class Slow:
        slices = []

        def slice(self, position):
            time.sleep(0.05)
            self.slices.append((position, 0.05))
            return 0.05

    loop = worker.closed_loop(list(range(5)), float, 0.0, 1, min_requests=3, calibrator=Slow())
    assert Slow.slices == [(0, 0.05), (3, 0.05)]  # before the first request and after the last
    assert loop.elapsed < 0.04


def test_nondeterministic_output_fails():
    calls = []

    def flaky(spec):
        calls.append(spec)
        return len(calls) if spec == 0 else float(spec)

    timed, failures = _timed(flaky, n=10)
    assert any("different output" in f for f in failures)


def test_library_prints_are_captured(capsys):
    quiet = worker.Quiet(lambda spec: print("summary") or spec)
    assert quiet(7) == 7
    assert capsys.readouterr().out == ""
    assert quiet.chars == len("summary\n")


def _span(name, layer, parent, start, end, error=None, work=None):
    return tracing.Span(name, layer, parent, start, end, error, work)


def test_self_time_on_nested_spans():
    spans = [
        _span("root", "a", -1, 0, 100),
        _span("child", "b", 0, 10, 30),
        _span("child", "b", 0, 20, 50),    # overlaps the first child
        _span("late", "b", 0, 90, 120),    # runs past its parent's end
        _span("grandchild", "c", 1, 12, 18),
    ]
    # root: 100 minus the union [10, 50] and [90, 100]; child: 20 minus 6
    assert tracing.self_times(spans) == [50, 14, 30, 30, 6]


def test_layer_metrics_attribute_outer_integral_panels():
    spans = [
        _span("density.point", "density", -1, 0, 1000),
        _span("quadrature.semi_inf", "quadrature", 0, 100, 900),
        _span("quadrature.finite", "quadrature", 1, 200, 800),
        _span("quadrature.convolve", "quadrature", 2, 300, 700, work=110),
    ]
    m = tracing.layer_metrics(spans, n_requests=1)
    assert m["density.points"][0] == 1
    assert m["quadrature.convolve_nodes_per_point"][0] == 110
    assert m["quadrature.convolve_self_ms_per_point"][0] == pytest.approx(400e-6)
    # semi_inf self (800 - 600) plus its finite panels' self (600 - 400)
    assert m["quadrature.semi_inf_self_ms_per_point"][0] == pytest.approx(400e-6)
    assert m["quadrature.finite_self_ms_per_request"][0] == 0.0
    assert m["density.closed_form_share"][0] == 0.0


def test_missing_hook_is_reported_not_fatal():
    import threshold_diffusion as lib
    original = lib.params.deltas
    rec = tracing.Recorder()
    hooks = tracing.Hooks(rec, hooks=(
        tracing.Hook("gone", "quadrature", "threshold_diffusion.quadrature", "_no_such_fn"),
        tracing.Hook("params.deltas", "params", "threshold_diffusion.params", "deltas"),
    ))
    try:
        assert hooks.status["gone"] == "missing"
        assert hooks.status["params.deltas"] >= 3  # params, potential, the package, ...
        rec.active = True
        p = lib.make_params(1.0, -1.0, 1.0, 2.0, 0.0)
        lib.potential_density(lib.PotentialQuery(p, 1.0, 0.3, 0.5))
        rec.active = False
    finally:
        hooks.remove()
    assert lib.params.deltas is original and lib.potential.deltas is original
    assert [s.name for s in rec.spans()] == ["params.deltas"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_follow_the_seed(name):
    w = WORKLOADS[name]
    first, again, other = w.inputs(5), w.inputs(5), w.inputs(6)
    assert json.dumps(first) == json.dumps(again)
    assert json.dumps(first) != json.dumps(other)
    assert len(first) % w.block == 0  # a block never straddles the cycle's end
    assert all(math.isfinite(v) for spec in first for v in spec.values()
               if isinstance(v, float))


def test_traced_counts_repeat_exactly(tmp_path):
    import threshold_diffusion as lib
    import threshold_diffusion.cli  # noqa: F401
    w = WORKLOADS["closed-form-cli"]
    specs = w.inputs(3)
    execute = worker.Quiet(w.executor(lib, str(tmp_path)))
    runs = [worker.trace_phase(w, lib, specs, execute, str(tmp_path / f"spans{i}.json"))
            for i in range(2)]
    for r in runs:
        assert r["failed"] == 0 and r["attempted"] == 2 * w.trace_requests
        assert all(v != "missing" for v in r["hooks"].values())
    counts = [{k: v for k, (v, unit) in r["per_layer"].items() if unit in ("count", "bytes")}
              for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["params.deltas_calls_per_request"] > 0


def test_value_grid_starts_keep_their_side_of_the_switch_level():
    w = WORKLOADS["value-grid"]
    sides = None
    for seed in range(200):
        got = [s["x"] > w.switch_level(s["fields"]) for s in w.inputs(seed)]
        assert sides is None or got == sides  # the same cost mix for every seed
        sides = got
    assert 0 < sum(sides) < len(sides)
