"""The benchmark's four closed-loop workloads.

Each workload turns a seed into a list of request specs (plain JSON data),
executes one spec per request against the library, and checks the outputs
against an independent oracle after the timed phase. Library functions are
looked up on their modules at call time so that the traced run's hooks see
every call.

The parameter sets, problems and sizes come from the acceptance battery in
``threshold_diffusion.validate`` (criteria 1, 4, 7, 8 and 9) and the README's
command-line examples.
"""

import csv
import hashlib
import io
import json
import math
import os
import random
from fractions import Fraction

import numpy as np

# drift-sign and volatility-ratio coverage: zero drift, confining, same-sign
# drifts, equal volatilities (mu1, mu2, sigma1, sigma2, a)
BATTERY = ((0.0, 0.0, 1.0, 2.0, 0.0),
           (1.0, -1.0, 1.0, 2.0, 0.0),
           (-0.7, -0.2, 3.0, 1.0, 1.2),
           (1.0, -1.0, 1.3, 1.3, 0.4))
CONFINING = (BATTERY[1], BATTERY[3])

# criterion 9's problems plus pz at a longer horizon
# (mu_bar, sigma_bar, mu_low, sigma_low, a, T)
PROBLEMS = (("pz", (0.0, 2.0, 0.0, 1.0, 0.0, 1.0)),
            ("pr", (1.0, 2.0, -1.0, 1.0, 0.0, 1.0)),
            ("p3", (0.5, 1.5, -0.5, 0.5, 0.0, 1.0)),
            ("pz4", (0.0, 2.0, 0.0, 1.0, 0.0, 4.0)))

DEFAULT_SEED = 0
DIGESTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


class RequestError(Exception):
    """A request returned something that is not a valid answer."""


def _finite(value, what):
    if not math.isfinite(value):
        raise RequestError(f"{what} is not finite: {value!r}")
    return value


def _rng(name, seed):
    return random.Random(f"{name}/{seed}")


def _jittered_grid(rng, lo, hi, n, jitter):
    """n ascending points on [lo, hi], each moved by up to ``jitter`` of the spacing."""
    step = (hi - lo) / (n - 1)
    pts = [lo + i * step + rng.uniform(-jitter, jitter) * step for i in range(n)]
    return [min(max(p, lo), hi) for p in pts]


def _phi(u):
    return 0.5 * math.erfc(-u / math.sqrt(2.0))


# ---------------------------------------------------------------- oracles

def _stehfest_weights(n):
    half = n // 2
    f = math.factorial
    out = []
    for k in range(1, n + 1):
        acc = Fraction(0)
        for j in range((k + 1) // 2, min(k, half) + 1):
            acc += Fraction(j ** half * f(2 * j),
                            f(half - j) * f(j) * f(j - 1) * f(k - j) * f(2 * j - k))
        out.append(float((-1) ** (k + half) * acc))
    return out


# 18 terms, the library's own cap: at its default of 14 the rule's truncation
# error reaches 2e-4 on t = 0.25 curves started 1.4 from the threshold, where
# 18 terms stay below 2e-5 (a high-precision Talbot inversion agrees with
# transition_density to 1e-15 there)
_GS_WEIGHTS = _stehfest_weights(18)


def gaver_stehfest(transform, t):
    """Gaver-Stehfest inversion with Salzer weights computed in exact arithmetic."""
    ln2_t = math.log(2.0) / t
    return ln2_t * sum(w * transform((k + 1) * ln2_t) for k, w in enumerate(_GS_WEIGHTS))


def oscillating_bm_density(s1, s2, a, t, x, z):
    """Zero-drift two-volatility density (Keilson & Wellner); x < a by reflection."""
    if x < a:
        return oscillating_bm_density(s2, s1, -a, t, -x, -z)
    if z >= a:
        g = 1.0 / math.sqrt(2.0 * math.pi * t * s2 * s2)
        return g * (math.exp(-((z - x) ** 2) / (2.0 * t * s2 * s2))
                    + (s1 - s2) / (s1 + s2) * math.exp(-((x + z - 2.0 * a) ** 2)
                                                       / (2.0 * t * s2 * s2)))
    u = (z - a) / s1 - (x - a) / s2
    return 2.0 * s2 / ((s1 + s2) * s1 * math.sqrt(2.0 * math.pi * t)) * math.exp(-u * u / (2.0 * t))


def zero_drift_value(sigma_bar, sigma_low, a, T, x):
    """Optimal survival probability with zero drifts: an oscillating BM tail mass."""
    s = sigma_bar + sigma_low
    if x <= a:
        return 2.0 * sigma_bar / s * _phi((x - a) / (sigma_bar * math.sqrt(T)))
    return (sigma_bar - sigma_low) / s + 2.0 * sigma_low / s * _phi((x - a) / (sigma_low * math.sqrt(T)))


def stationary_closed_form(mu1, mu2, s1, s2, a, z):
    """Two-sided exponential stationary law of a confining threshold diffusion."""
    mass = -mu1 * mu2 / (mu1 - mu2)
    if z >= a:
        return mass * 2.0 / (s2 * s2) * math.exp(2.0 * mu2 * (z - a) / (s2 * s2))
    return mass * 2.0 / (s1 * s1) * math.exp(2.0 * mu1 * (z - a) / (s1 * s1))


# ---------------------------------------------------------------- workloads

class Workload:
    """Defaults shared by the workloads: no Monte Carlo path steps."""

    def nominal_work(self, spec):
        return 0


class DensityCurves(Workload):
    """One request is one transition_density point on a jittered README curve."""

    name = "density-curves"
    block = len(BATTERY) * 3 * 2          # one point of every (set, t, start) curve
    trace_requests = 10 * block
    times = (0.25, 1.0, 4.0)
    gs_tol = 1e-4                          # criterion 4
    closed_form_tol = 1e-5                 # criterion 1

    def inputs(self, seed):
        rng = _rng(self.name, seed)
        curves = []
        for params in BATTERY:
            a = params[4]
            for t in self.times:
                for x in (a - rng.uniform(0.1, 1.5), a + rng.uniform(0.1, 1.5)):
                    zs = _jittered_grid(rng, a - 4.0, a + 4.0, 201, 0.4)
                    rng.shuffle(zs)
                    curves.append([{"params": list(params), "t": t, "x": x, "z": z}
                                   for z in zs])
        # interleave so every block of len(curves) requests visits each curve once
        order = []
        for rank in range(201):
            block = [c[rank] for c in curves]
            rng.shuffle(block)
            order.extend(block)
        return order

    def executor(self, lib, workdir):
        def execute(spec):
            params = lib.make_params(*spec["params"])
            value = lib.transition_density(
                lib.DensityQuery(params, spec["t"], spec["x"], spec["z"]))
            return _finite(float(value), "density")
        return execute

    def check(self, lib, specs, outputs):
        bad = {}
        for k, p in outputs.items():
            spec = specs[k]
            params = lib.make_params(*spec["params"])
            t, x, z = spec["t"], spec["x"], spec["z"]
            if p < 0.0:
                bad[k] = f"negative density {p!r}"
                continue
            inv = gaver_stehfest(
                lambda q: lib.potential_density(lib.PotentialQuery(params, q, x, z)) / q, t)
            if abs(inv - p) > self.gs_tol:
                bad[k] = f"|p - GS inversion| = {abs(inv - p):.2e} > {self.gs_tol:g}"
                continue
            mu1, mu2, s1, s2, a = spec["params"]
            if mu1 == 0.0 and mu2 == 0.0:
                want = oscillating_bm_density(s1, s2, a, t, x, z)
                if abs(want - p) > self.closed_form_tol:
                    bad[k] = f"|p - closed form| = {abs(want - p):.2e}"
        return bad


class ValueGrid(Workload):
    """One request is one value_function(problem, x) on a jittered x grid."""

    name = "value-grid"
    block = len(PROBLEMS) * 9              # the whole grid: request costs differ by x
    trace_requests = block
    closed_form_tol = 1e-6
    anchor_tol = 1e-3                      # criterion 9's V(a) = 2/3 tolerance
    monotone_slack = 1e-6

    @staticmethod
    def switch_level(fields):
        """a + alpha T: the start whose tilted start y0 = x - alpha T sits on a."""
        mu_bar, sigma_bar, mu_low, sigma_low, a, T = fields
        return a + (mu_bar * sigma_low - mu_low * sigma_bar) / (sigma_bar - sigma_low) * T

    def inputs(self, seed):
        rng = _rng(self.name, seed)
        # A request costs about three times more when y0 lies above a, so a
        # point keeps the side of the switch level its grid node is on (a node
        # on the level goes above): every seed then weighs the same mix.
        grids = {}
        for name, fields in PROBLEMS:
            level = self.switch_level(fields)
            nodes = np.linspace(-2.0, 2.0, 9)
            xs = _jittered_grid(rng, -2.0, 2.0, 9, 0.1)
            grids[name] = [2.0 * level - x if (node >= level) != (x > level) else x
                           for node, x in zip(nodes, xs)]
        return [{"problem": name, "fields": list(fields), "x": grids[name][r]}
                for r in range(9) for name, fields in PROBLEMS]

    def executor(self, lib, workdir):
        def execute(spec):
            problem = lib.ControlProblem(*spec["fields"])
            return _finite(float(lib.value_function(problem, spec["x"])), "value")
        return execute

    def check(self, lib, specs, outputs):
        bad = {}
        by_problem = {}
        for k, v in outputs.items():
            spec = specs[k]
            by_problem.setdefault(spec["problem"], []).append((spec["x"], v, k))
            if not 0.0 <= v <= 1.0:
                bad[k] = f"value {v!r} outside [0, 1]"
            mu_bar, sigma_bar, mu_low, sigma_low, a, T = spec["fields"]
            if mu_bar == 0.0 and mu_low == 0.0:
                want = zero_drift_value(sigma_bar, sigma_low, a, T, spec["x"])
                if abs(v - want) > self.closed_form_tol:
                    bad[k] = f"|V - closed form| = {abs(v - want):.2e}"
        # the optimally controlled state is a one-dimensional diffusion, so V is
        # nondecreasing in the start state
        for rows in by_problem.values():
            rows.sort()
            for (_, v0, k0), (_, v1, k1) in zip(rows, rows[1:]):
                if v1 < v0 - self.monotone_slack:
                    bad[k1] = f"V decreases in x: {v0!r} -> {v1!r}"
        pz = [k for k in outputs if specs[k]["problem"] == "pz"]
        if pz:
            fields = specs[pz[0]]["fields"]
            v_a = lib.value_function(lib.ControlProblem(*fields), fields[4])
            if abs(v_a - 2.0 / 3.0) > self.anchor_tol:
                for k in pz:
                    bad[k] = f"V_pz(a) = {v_a!r}, want 2/3"
        return bad


class MCEnsembles(Workload):
    """One request is one 8192-path Euler ensemble at threads=1, dt=1e-3."""

    name = "mc-ensembles"
    n_paths = 8192
    dt = 1e-3
    block = 6
    trace_requests = 6
    # the battery uses 3 SE on fixed seeds; across arbitrary seeds and several
    # ensembles per run, 4 SE keeps false alarms below 1e-4 per check
    se_margin = 4.0
    dominance_margin = 3.0                 # criterion 9's pooled-SE dominance margin
    barrier_shift = 0.5826                 # criterion 8's grid-detection shift

    def inputs(self, seed):
        rng = _rng(self.name, seed)
        seeds = [rng.randrange(2 ** 63) for _ in range(6)]
        pr = dict(PROBLEMS)["pr"]
        specs = [{"kind": "paths", "params": list(BATTERY[1]), "x0": rng.uniform(-0.5, 0.5),
                  "horizon": 1.0, "seed": seeds[0]}]
        for s, policy in zip(seeds[1:5], ("optimal", "bar", "low", "reversed")):
            specs.append({"kind": "policy", "policy": policy, "fields": list(pr), "seed": s})
        specs.append({"kind": "hitting", "params": list(BATTERY[1]), "x0": 0.5,
                      "horizon": 10.0, "level": 0.0, "q": 0.7, "seed": seeds[5]})
        return specs

    def executor(self, lib, workdir):
        factories = {"optimal": lib.optimal_policy, "bar": lib.constant_bar_policy,
                     "low": lib.constant_low_policy, "reversed": lib.reversed_threshold_policy}

        def execute(spec):
            kind = spec["kind"]
            if kind == "hitting":
                cfg = lib.SimConfig(lib.make_params(*spec["params"]), spec["x0"],
                                    spec["horizon"], self.dt, self.n_paths, spec["seed"])
                est, se = lib.empirical_hitting_transform(cfg, spec["level"], spec["q"],
                                                          threads=1)
                blob = np.array([est, se]).tobytes()
                return {"digest": hashlib.sha256(blob).hexdigest(),
                        "estimate": _finite(est, "estimate"), "se": se}
            if kind == "paths":
                cfg = lib.SimConfig(lib.make_params(*spec["params"]), spec["x0"],
                                    spec["horizon"], self.dt, self.n_paths, spec["seed"])
                ens = lib.simulate_paths(cfg, threads=1)
                level = spec["params"][4]
            else:
                problem = lib.ControlProblem(*spec["fields"])
                ens = lib.simulate_policy(problem, factories[spec["policy"]](problem),
                                          self.dt, self.n_paths, spec["seed"], threads=1)
                level = problem.a
            values = np.asarray(ens.terminal_values, dtype=float)
            if not np.all(np.isfinite(values)):
                raise RequestError("non-finite terminal value")
            est, se = ens.survival_frequency(level)
            return {"digest": hashlib.sha256(values.tobytes()).hexdigest(),
                    "estimate": est, "se": se}
        return execute

    def _analytic(self, lib, spec):
        """(expected value, extra allowance) of the ensemble's estimate."""
        kind = spec["kind"]
        if kind == "hitting":
            params = lib.make_params(*spec["params"])
            q, x0, level = spec["q"], spec["x0"], spec["level"]
            want = lib.one_sided_down(params, q, x0, level)
            shift = self.barrier_shift * params.sigma2 * math.sqrt(self.dt)
            bias = 2.0 * abs(want - lib.one_sided_down(params, q, x0, level - shift))
            return want, bias + math.exp(-q * spec["horizon"])
        if kind == "paths":
            params = lib.make_params(*spec["params"])
            return _survival(lib, params, spec["x0"], spec["horizon"]), 0.0
        pb = lib.ControlProblem(*spec["fields"])
        if spec["policy"] == "optimal":
            return lib.value_function(pb, pb.x0), 0.0
        if spec["policy"] == "reversed":
            return None, 0.0   # no closed form; judged by dominance below
        # a constant policy runs a Brownian motion with drift, which Euler samples exactly
        mu, sigma = (pb.mu_bar, pb.sigma_bar) if spec["policy"] == "bar" else (pb.mu_low,
                                                                               pb.sigma_low)
        return _phi((pb.x0 + mu * pb.T - pb.a) / (sigma * math.sqrt(pb.T))), 0.0

    def check(self, lib, specs, outputs):
        bad = {}
        recorded = None
        if specs == self.inputs(DEFAULT_SEED):
            with open(DIGESTS_FILE, encoding="utf-8") as fh:
                recorded = json.load(fh)[self.name]
        for k, out in outputs.items():
            spec = specs[k]
            if recorded is not None and out["digest"] != recorded[k]:
                bad[k] = f"digest {out['digest'][:12]} differs from the recorded one"
                continue
            want, allowance = self._analytic(lib, spec)
            if want is not None:
                gap = abs(out["estimate"] - want)
                budget = self.se_margin * out["se"] + allowance
                if gap > budget:
                    bad[k] = f"MC gap {gap:.2e} > budget {budget:.2e}"
        optimal = [k for k in outputs if specs[k].get("policy") == "optimal"]
        for k in outputs:
            if not optimal or specs[k]["kind"] != "policy" or k in optimal:
                continue
            opt, alt = outputs[optimal[0]], outputs[k]
            pooled = math.hypot(opt["se"], alt["se"])
            if (opt["estimate"] - alt["estimate"]) / pooled < -self.dominance_margin:
                bad[k] = f"{specs[k]['policy']} policy beats the optimal one"
        return bad

    def nominal_work(self, spec):
        horizon = spec["fields"][5] if spec["kind"] == "policy" else spec["horizon"]
        return self.n_paths * round(horizon / self.dt)


def _survival(lib, params, x0, t):
    """P(X_t >= a) as a Gauss-Legendre integral of the transition density."""
    hi = params.a + 14.0 * max(params.sigma1, params.sigma2) * math.sqrt(t) + 3.0 * t
    xg, wg = np.polynomial.legendre.leggauss(160)
    half = 0.5 * (hi - params.a)
    return sum(w * half * lib.transition_density(
        lib.DensityQuery(params, t, x0, float(params.a + half * (u + 1.0))))
        for u, w in zip(xg, wg))


class ClosedFormCLI(Workload):
    """One request is one in-process cli.main call writing a file that is parsed back."""

    name = "closed-form-cli"
    variants = 3
    block = variants * (2 * len(BATTERY) + len(CONFINING))   # the whole cycle
    trace_requests = 2 * block
    columns = {"exit-lt": ("q", "down", "up"), "potential": ("z", "u"), "stationary": ("z", "pi")}

    def inputs(self, seed):
        rng = _rng(self.name, seed)
        specs = []
        for _ in range(self.variants):
            for params in BATTERY:
                a = params[4]
                x = a + rng.uniform(-1.0, 1.0)
                specs.append({"kind": "exit-lt", "params": list(params), "x": x,
                              "y": x - rng.uniform(0.5, 2.0), "z": x + rng.uniform(0.5, 2.0),
                              "lo": rng.uniform(0.05, 0.5), "hi": rng.uniform(2.0, 8.0)})
                shift = rng.uniform(-0.5, 0.5)
                specs.append({"kind": "potential", "params": list(params),
                              "q": rng.uniform(0.2, 3.0), "x": a + rng.uniform(-1.0, 1.0),
                              "lo": a - 4.0 + shift, "hi": a + 4.0 + shift})
            for params in CONFINING:
                shift = rng.uniform(-0.5, 0.5)
                specs.append({"kind": "stationary", "params": list(params),
                              "lo": params[4] - 4.0 + shift, "hi": params[4] + 4.0 + shift})
        seen = {}
        for spec in specs:  # each command alternates between the two formats
            n = seen[spec["kind"]] = seen.get(spec["kind"], -1) + 1
            spec["format"] = ("csv", "json")[n % 2]
        return specs

    @staticmethod
    def argv(spec, out_path):
        mu1, mu2, s1, s2, a = spec["params"]
        argv = [spec["kind"], "--mu1", repr(mu1), "--mu2", repr(mu2), "--sigma1", repr(s1),
                "--sigma2", repr(s2), "--a", repr(a)]
        grid = f"{spec['lo']!r}:{spec['hi']!r}:201"
        if spec["kind"] == "exit-lt":
            argv += ["--x", repr(spec["x"]), "--y", repr(spec["y"]), "--z", repr(spec["z"]),
                     "--q-grid", grid]
        elif spec["kind"] == "potential":
            argv += ["--q", repr(spec["q"]), "--x", repr(spec["x"]), "--z-grid", grid]
        else:
            argv += ["--z-grid", grid]
        return argv + ["--format", spec["format"], "--out", out_path]

    def executor(self, lib, workdir):
        out_path = os.path.join(workdir, "cli-out")

        def execute(spec):
            code = lib.cli.main(self.argv(spec, out_path))
            if code != 0:
                raise RequestError(f"cli exited with {code}")
            with open(out_path, "rb") as fh:
                blob = fh.read()
            rows = _parse(blob.decode("utf-8"), spec["format"], self.columns[spec["kind"]])
            if len(rows) != 201:
                raise RequestError(f"expected 201 rows, got {len(rows)}")
            return {"rows": rows, "bytes": len(blob)}
        return execute

    def check(self, lib, specs, outputs):
        bad = {}
        for k, out in outputs.items():
            spec = specs[k]
            params = lib.make_params(*spec["params"])
            grid = np.linspace(spec["lo"], spec["hi"], 201)
            msg = None
            for i, row in enumerate(out["rows"]):
                g = float(grid[i])
                if row[0] != g:
                    msg = f"grid value {row[0]!r} != {g!r}"
                elif spec["kind"] == "exit-lt":
                    want = lib.two_sided_exit(lib.ExitQuery(params, g, spec["x"], spec["y"],
                                                            spec["z"]))
                    if tuple(row[1:]) != tuple(want):
                        msg = f"exit row {row!r} does not round-trip {want!r}"
                    elif not (0.0 <= row[1] <= 1.0 and 0.0 <= row[2] <= 1.0
                              and row[1] + row[2] <= 1.0 + 1e-12):
                        msg = f"exit transforms {row[1:]!r} not sub-probabilities"
                    elif i and (row[1] > out["rows"][i - 1][1] or row[2] > out["rows"][i - 1][2]):
                        msg = "exit transforms increase with q"
                elif spec["kind"] == "potential":
                    want = lib.potential_density(lib.PotentialQuery(params, spec["q"], spec["x"], g))
                    if row[1] != want or row[1] < 0.0:
                        msg = f"potential {row[1]!r} does not round-trip {want!r}"
                else:
                    want = stationary_closed_form(*spec["params"], g)
                    if abs(row[1] - want) > 1e-12 * max(1.0, abs(want)):
                        msg = f"stationary {row[1]!r} != closed form {want!r}"
                if msg:
                    bad[k] = msg
                    break
        return bad


def _parse(text, fmt, columns):
    """Rows of floats from the CLI's CSV or JSON output; RequestError if malformed."""
    try:
        if fmt == "json":
            rows = [[float(obj[c]) for c in columns] for obj in json.loads(text)]
        else:
            reader = csv.reader(io.StringIO(text))
            if tuple(next(reader)) != columns:
                raise RequestError("unexpected CSV header")
            rows = [[float(v) for v in line] for line in reader]
    except (ValueError, KeyError, TypeError, StopIteration) as exc:
        raise RequestError(f"output does not parse: {exc}") from None
    for row in rows:
        if len(row) != len(columns) or not all(math.isfinite(v) for v in row):
            raise RequestError(f"malformed row {row!r}")
    return rows


WORKLOADS = {w.name: w for w in (DensityCurves(), ValueGrid(), MCEnsembles(), ClosedFormCLI())}


if __name__ == "__main__":
    # Prints the digests file's content: MC outputs at the default seed.
    import sys
    sys.path.insert(0, os.path.join(os.path.dirname(DIGESTS_FILE), "..", "src"))
    import threshold_diffusion as lib
    mc = WORKLOADS["mc-ensembles"]
    run = mc.executor(lib, None)
    print(json.dumps({mc.name: [run(s)["digest"] for s in mc.inputs(DEFAULT_SEED)]}, indent=2))
