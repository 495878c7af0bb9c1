"""Span recording around the library's layers, for the traced benchmark run.

Spans come only from this file: each hook replaces every binding of one
library function, found by object identity across the loaded
``threshold_diffusion.*`` modules, with a wrapper that records a span
(name, layer, parent, start, end, error, work count). Callables
the library receives, such as integrands and policies, are wrapped as
arguments so the work done inside them is attributed to the caller's layer.
Spans stay in memory until the run ends.

A hook whose target no longer exists is reported as ``missing`` and
skipped, so a refactor that renames or merges a function degrades the
trace instead of crashing it.
"""

import functools
import sys
import threading
import time
from collections import defaultdict, namedtuple

import numpy as np

PACKAGE = "threshold_diffusion"

Span = namedtuple("Span", "name layer parent start end error work")

# positions inside a live span record (a list, in Span's field order, for
# cheap in-place closing)
_LAYER, _END, _ERROR, _WORK = 1, 4, 5, 6


class Recorder:
    """In-memory span store with a stack of open spans for one thread."""

    def __init__(self):
        self.records = []
        self.stack = []
        self.active = False
        self.thread = threading.get_ident()

    def recording(self):
        return self.active and threading.get_ident() == self.thread

    def open(self, name, layer):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.records)
        self.records.append([name, layer, parent, time.perf_counter_ns(), 0, None, None])
        self.stack.append(index)
        return index

    def close(self, index, error=None, work=None):
        rec = self.records[index]
        rec[_END] = time.perf_counter_ns()
        rec[_ERROR] = error
        rec[_WORK] = work
        self.stack.pop()

    def caller_layer(self, skip):
        """Layer of the innermost open span whose layer is not ``skip``."""
        for index in reversed(self.stack):
            layer = self.records[index][_LAYER]
            if layer != skip:
                return layer
        return "bench"

    def spans(self):
        return [Span(*rec) for rec in self.records]


Hook = namedtuple("Hook", "name layer module attr work args", defaults=(None, ()))

# Argument wrappers: (position, keyword, span name). "{caller}" in the name is
# replaced by the layer that called into the hooked function.
_INTEGRAND = ((0, "f", "{caller}.integrand"),)


def _batch_nodes(args, kwargs, out):
    # _convolve_batch(t, x1, mu1, x2, mu2, ...): one overshoot node per batch element
    return int(np.broadcast(np.atleast_1d(args[1]), np.atleast_1d(args[3])).size)


def _size(args, kwargs, out):
    return int(out.size)


def _nominal_steps(args, kwargs, out):
    # _hitting_block(config, level, q, sign, i0, count, n_full, rem)
    return int(args[5]) * (int(args[6]) + (1 if args[7] > 0.0 else 0))


HOOKS = (
    Hook("params.deltas", "params", PACKAGE + ".params", "deltas"),
    Hook("potential.density", "potential", PACKAGE + ".potential", "potential_density"),
    Hook("potential.q_to_zero", "potential", PACKAGE + ".potential",
         "potential_q_to_zero_limit"),
    Hook("exit.two_sided", "exit", PACKAGE + ".exit", "two_sided_exit"),
    Hook("density.point", "density", PACKAGE + ".density", "transition_density"),
    Hook("quadrature.convolve", "quadrature", PACKAGE + ".quadrature", "_convolve_batch",
         work=_batch_nodes),
    Hook("quadrature.semi_inf", "quadrature", PACKAGE + ".quadrature",
         "integrate_semi_infinite", args=_INTEGRAND),
    Hook("quadrature.finite", "quadrature", PACKAGE + ".quadrature", "integrate_finite",
         args=_INTEGRAND),
    Hook("inversion.invert", "inversion", PACKAGE + ".inversion", "invert",
         args=((0, "F", "inversion.transform"),)),
    Hook("control.value", "control", PACKAGE + ".control", "value_function"),
    Hook("simulate.paths", "simulate", PACKAGE + ".simulate", "simulate_paths"),
    Hook("simulate.controlled", "simulate", PACKAGE + ".simulate", "simulate_policy",
         args=((1, "policy", "simulate.policy"),)),
    Hook("simulate.hitting", "simulate", PACKAGE + ".simulate", "empirical_hitting_transform"),
    Hook("simulate.block", "simulate", PACKAGE + ".simulate", "_terminal_block"),
    Hook("simulate.hitting_block", "simulate", PACKAGE + ".simulate", "_hitting_block",
         work=_nominal_steps),
    Hook("simulate.gen", "simulate", PACKAGE + ".simulate", "_path_generator"),
    Hook("simulate.uniforms", "simulate", PACKAGE + ".simulate", "_draw_block_normals",
         work=_size),
    Hook("simulate.normals", "simulate", PACKAGE + ".simulate", "_norm_ppf", work=_size),
    Hook("cli.main", "cli", PACKAGE + ".cli", "main"),
)


def _wrap_callable(rec, fn, name, layer):
    if getattr(fn, "__bench_span__", None) is not None:
        return fn  # already wrapped by an enclosing hook (semi_inf hands f to finite)

    def wrapped(*args, **kwargs):
        if not rec.recording():
            return fn(*args, **kwargs)
        index = rec.open(name, layer)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            rec.close(index, error=type(exc).__name__)
            raise
        rec.close(index)
        return out
    wrapped.__bench_span__ = name
    return wrapped


def _wrap_arguments(rec, hook, args, kwargs):
    caller = rec.caller_layer(hook.layer)
    args = list(args)
    for pos, key, template in hook.args:
        name = template.format(caller=caller)
        layer = name.split(".", 1)[0]
        if key in kwargs:
            kwargs[key] = _wrap_callable(rec, kwargs[key], name, layer)
        elif pos < len(args) and callable(args[pos]):
            args[pos] = _wrap_callable(rec, args[pos], name, layer)
    return args, kwargs


def _wrap_hook(rec, hook, fn, counter_failures):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.recording():
            return fn(*args, **kwargs)
        if hook.args:
            args, kwargs = _wrap_arguments(rec, hook, args, kwargs)
        index = rec.open(hook.name, hook.layer)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            rec.close(index, error=type(exc).__name__)
            raise
        work = None
        if hook.work is not None:
            try:
                work = hook.work(args, kwargs, out)
            except Exception:  # a changed signature loses the count, not the run
                counter_failures.add(hook.name)
        rec.close(index, work=work)
        return out
    return wrapper


def _library_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


class Hooks:
    """Installs span wrappers over the loaded library; ``remove`` undoes them.

    ``status`` maps each hook name to the number of bindings replaced, or
    to ``"missing"`` when its target function does not exist.
    """

    def __init__(self, rec, hooks=HOOKS):
        self.status = {}
        self.counter_failures = set()
        self._undo = []
        modules = _library_modules()
        for hook in hooks:
            home = sys.modules.get(hook.module)
            target = getattr(home, hook.attr, None) if home is not None else None
            if not callable(target):
                self.status[hook.name] = "missing"
                continue
            wrapper = _wrap_hook(rec, hook, target, self.counter_failures)
            bound = 0
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is target:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, value))
                        bound += 1
            self.status[hook.name] = bound

    def remove(self):
        for module, key, value in reversed(self._undo):
            setattr(module, key, value)
        self._undo.clear()


def self_times(spans):
    """Each span's duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for index, s in enumerate(spans):
        covered = 0
        lo_run = hi_run = None
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out.append(s.end - s.start - covered)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, n_requests, output_bytes=0):
    """Per-layer metrics of one traced run, as {name: (value, unit)}."""
    selfs = self_times(spans)
    count = defaultdict(int)
    self_ns = defaultdict(int)
    total_ns = defaultdict(int)
    work = defaultdict(int)
    children = defaultdict(list)
    for index, s in enumerate(spans):
        name = s.name
        if name == "quadrature.finite" and s.parent >= 0 and \
                spans[s.parent].name == "quadrature.semi_inf":
            name = "quadrature.semi_inf"  # the panels of the outer overshoot integral
        count[name] += 1
        self_ns[name] += selfs[index]
        total_ns[name] += s.end - s.start
        work[name] += s.work or 0
        if s.parent >= 0:
            children[s.parent].append(index)

    def under(index, ancestor):
        parent = spans[index].parent
        while parent >= 0:
            if spans[parent].name == ancestor:
                return True
            parent = spans[parent].parent
        return False

    points = count["density.point"]
    values = count["control.value"]
    closed_form = sum(1 for i, s in enumerate(spans) if s.name == "density.point"
                      and not any(spans[c].name == "quadrature.semi_inf" for c in children[i]))
    density_in_value = sum(1 for i, s in enumerate(spans)
                           if s.name == "density.point" and under(i, "control.value"))
    accuracy_errors = sum(
        1 for i, s in enumerate(spans)
        if s.layer == "quadrature" and s.error == "AccuracyError"
        and not any(spans[c].error for c in children[i]))
    hitting_actual = sum(s.work or 0 for i, s in enumerate(spans)
                         if s.name == "simulate.normals" and under(i, "simulate.hitting_block"))
    potential_calls = count["potential.density"] + count["potential.q_to_zero"]
    ms, us = 1e-6, 1e-3

    return {
        "quadrature.convolve_calls_per_point": (_ratio(count["quadrature.convolve"], points),
                                                "count"),
        "quadrature.convolve_nodes_per_point": (_ratio(work["quadrature.convolve"], points),
                                                "count"),
        "quadrature.convolve_self_ms_per_point": (
            _ratio(self_ns["quadrature.convolve"] * ms, points), "ms"),
        "quadrature.semi_inf_self_ms_per_point": (
            _ratio(self_ns["quadrature.semi_inf"] * ms, points), "ms"),
        "quadrature.finite_self_ms_per_request": (
            _ratio(self_ns["quadrature.finite"] * ms, n_requests), "ms"),
        "quadrature.accuracy_errors": (accuracy_errors, "count"),
        "density.points": (points, "count"),
        "density.self_ms_per_point": (
            _ratio((self_ns["density.point"] + self_ns["density.integrand"]) * ms, points), "ms"),
        "density.closed_form_share": (_ratio(closed_form, points), "share"),
        "control.density_calls_per_value": (_ratio(density_in_value, values), "count"),
        "control.self_ms_per_value": (
            _ratio((self_ns["control.value"] + self_ns["control.integrand"]) * ms, values), "ms"),
        "inversion.calls": (count["inversion.invert"], "count"),
        "inversion.transform_evals": (count["inversion.transform"], "count"),
        "params.deltas_calls_per_request": (_ratio(count["params.deltas"], n_requests), "count"),
        "params.deltas_us_per_call": (
            _ratio(total_ns["params.deltas"] * us, count["params.deltas"]), "us"),
        "potential.self_us_per_call": (
            _ratio((self_ns["potential.density"] + self_ns["potential.q_to_zero"]) * us,
                   potential_calls), "us"),
        "exit.self_us_per_call": (
            _ratio(self_ns["exit.two_sided"] * us, count["exit.two_sided"]), "us"),
        "cli.self_ms_per_request": (_ratio(self_ns["cli.main"] * ms, n_requests), "ms"),
        "cli.output_bytes_per_request": (_ratio(output_bytes, n_requests), "bytes"),
        "simulate.path_steps": (work["simulate.normals"], "count"),
        "simulate.hitting_alive_share": (
            _ratio(hitting_actual, work["simulate.hitting_block"]), "share"),
        "simulate.gen_setup_us_per_path": (
            _ratio(total_ns["simulate.gen"] * us, count["simulate.gen"]), "us"),
        "simulate.uniforms_per_s": (
            _ratio(work["simulate.uniforms"], self_ns["simulate.uniforms"] * 1e-9), "1/s"),
        "simulate.normals_per_s": (
            _ratio(work["simulate.normals"], self_ns["simulate.normals"] * 1e-9), "1/s"),
        "simulate.step_self_s": (
            (self_ns["simulate.block"] + self_ns["simulate.hitting_block"]) * 1e-9, "s"),
        "simulate.policy_self_ms": (self_ns["simulate.policy"] * ms, "ms"),
    }
