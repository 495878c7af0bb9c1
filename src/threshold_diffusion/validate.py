"""Cross-oracle validation battery.

Each check pins a library value against an independent route to the same
number: a closed form, a quadrature, a Laplace inversion, or a Monte Carlo
run. The CLI validate command prints one JSON entry per check; the
acceptance test suite asserts the same functions one by one. Each check's
tolerances and Monte Carlo margins are fixed in the check itself.
"""

import contextlib
import io
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .control import (ControlProblem, alpha, constant_bar_policy, constant_low_policy,
                      optimal_policy, reversed_threshold_policy, value_function)
from .density import (DensityQuery, density_jump_at_threshold, is_time_reversible,
                      oscillating_bm_density, stationary_density, transition_density)
from .exit import g_minus, g_plus, one_sided_down, one_sided_up
from .inversion import invert
from .params import DiffusionParams, deltas
from .potential import PotentialQuery, _resolvent, potential_density
from .quadrature import QuadSettings, integrate_finite, integrate_semi_infinite
from .simulate import SimConfig, empirical_hitting_transform, simulate_paths, simulate_policy

# drift-sign and volatility-ratio coverage used by several checks
PARAM_BATTERY = (
    DiffusionParams(0.0, 0.0, 1.0, 1.0, 0.0),
    DiffusionParams(1.0, 1.0, 1.0, 2.0, 0.5),
    DiffusionParams(1.0, -1.0, 1.0, 2.0, 0.0),
    DiffusionParams(-1.0, 1.0, 2.0, 1.0, -0.3),
    DiffusionParams(0.5, -0.5, 1.0, 4.0, 0.0),
    DiffusionParams(-0.7, -0.2, 3.0, 1.0, 1.2),
)

# barrier overshoot per step of an Euler grid walk, in units of sigma sqrt(dt)
_BARRIER_SHIFT = 0.5826


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(criterion, name, passed, detail, t0):
    return CheckResult(criterion, name, bool(passed), detail, round(time.time() - t0, 3))


def criterion_1(threads=1):
    """Zero-drift two-volatility density against its closed form."""
    t0 = time.time()
    tol = 1e-5
    params = DiffusionParams(0.0, 0.0, 1.0, 2.0, 0.0)
    worst = 0.0
    n_pts = 0
    for t in (0.25, 1.0, 4.0):
        span = 4.0 * params.sigma2 * math.sqrt(t)
        grids = (np.linspace(-span, 0.0, 41), np.linspace(1e-6, span, 41))
        for x in (0.0, 0.5, 2.0):
            for grid in grids:
                for z in grid:
                    got = transition_density(DensityQuery(params, t, x, float(z)))
                    want = oscillating_bm_density(1.0, 2.0, 0.0, t, x, float(z))
                    worst = max(worst, abs(got - want))
                    n_pts += 1
    el = time.time() - t0
    passed = worst <= tol and el <= 60.0
    return _result(1, "oscillating-oracle", passed,
                   f"max|p - closed form| = {worst:.3e} over {n_pts} points "
                   f"(tol {tol:g}); {el:.1f}s of 60s budget", t0)


def criterion_2(threads=1):
    """One-sided density limits and the jump at the threshold."""
    t0 = time.time()
    tol = 1e-5
    params = DiffusionParams(0.0, 0.0, 1.0, 2.0, 0.0)
    # z = a dispatches to the upper branch for x >= a, so that call IS the
    # upper limit; the lower limit needs a strictly negative z
    p_plus = transition_density(DensityQuery(params, 1.0, 0.0, 0.0))
    p_minus = transition_density(DensityQuery(params, 1.0, 0.0, -1e-9))
    jump = density_jump_at_threshold(params, 1.0, 0.0)
    same_sigma = density_jump_at_threshold(DiffusionParams(1.0, -1.0, 1.3, 1.3, 0.4), 1.0, 0.2)
    errs = (abs(p_plus - 0.13298076013381089),
            abs(p_minus - 0.53192304053524357),
            abs(jump - (-0.39894228040143268)),
            abs((p_plus - p_minus) - jump))
    passed = max(errs[:3]) <= tol and errs[3] <= 2 * tol and same_sigma == 0.0
    return _result(2, "threshold-jump", passed,
                   f"limit errors above/below/jump = {errs[0]:.2e}/{errs[1]:.2e}/{errs[2]:.2e}, "
                   f"consistency {errs[3]:.2e} (tol {tol:g}); equal-sigma jump = {same_sigma!r}", t0)


def criterion_3(threads=1):
    """Single-regime reduction: Gaussian density and exponential potential."""
    t0 = time.time()
    dtol, ptol = 1e-6, 1e-10
    mu, sigma, a = 0.3, 1.2, 0.1
    params = DiffusionParams(mu, mu, sigma, sigma, a)
    grid = (-1.0, -0.25, 0.1, 0.6, 1.5)
    worst_d = 0.0
    for x in grid:
        for z in grid:
            got = transition_density(DensityQuery(params, 1.0, x, z))
            want = math.exp(-(z - x - mu) ** 2 / (2.0 * sigma * sigma)) / (
                sigma * math.sqrt(2.0 * math.pi))
            worst_d = max(worst_d, abs(got - want))
    worst_p = 0.0
    for q in (0.5, 2.0):
        w = math.sqrt(2.0 * q * sigma * sigma + mu * mu)
        dp = (w + mu) / (sigma * sigma)
        dm = (w - mu) / (sigma * sigma)
        for x in grid:
            for z in grid:
                got = potential_density(PotentialQuery(params, q, x, z))
                want = (q / w) * (math.exp(-dm * (z - x)) if z >= x
                                  else math.exp(-dp * (x - z)))
                worst_p = max(worst_p, abs(got - want))
    passed = worst_d <= dtol and worst_p <= ptol
    return _result(3, "single-regime-reduction", passed,
                   f"density err {worst_d:.2e} (tol {dtol:g}), "
                   f"potential err {worst_p:.2e} (tol {ptol:g})", t0)


def criterion_4(threads=1):
    """Potential density vs time-quadrature and Laplace inversion of it."""
    t0 = time.time()
    tol = 1e-4
    params = DiffusionParams(1.0, -1.0, 1.0, 2.0, 0.0)
    points = ((0.5, 1.0), (0.5, -0.5), (-0.5, 1.0))
    settings = QuadSettings(abs_tol=1e-7, rel_tol=1e-7)
    worst_q = 0.0
    for q in (0.5, 1.0, 2.0):
        for x, z in points:
            def f(ts):
                return np.array([q * math.exp(-q * s)
                                 * transition_density(DensityQuery(params, float(s), x, z))
                                 for s in np.asarray(ts, dtype=float)])
            val, _ = integrate_semi_infinite(f, 1e-12, q, settings=settings)
            want = potential_density(PotentialQuery(params, q, x, z))
            worst_q = max(worst_q, abs(val - want))
    worst_inv = 0.0
    for x, z in points:
        got = invert(lambda q: _resolvent(params, q, x, z) / q, 1.0)
        want = transition_density(DensityQuery(params, 1.0, x, z))
        worst_inv = max(worst_inv, abs(got - want))
    passed = worst_q <= tol and worst_inv <= tol
    return _result(4, "laplace-consistency", passed,
                   f"time-quadrature err {worst_q:.2e}, inversion err {worst_inv:.2e} "
                   f"(tol {tol:g})", t0)


def criterion_5(threads=1):
    """Transition and potential densities integrate to one."""
    t0 = time.time()
    dtol, ptol = 1e-4, 1e-6
    settings = QuadSettings(abs_tol=3e-7, rel_tol=3e-7)
    worst_d = worst_p = 0.0
    for params in PARAM_BATTERY:
        x = params.a + 0.4
        span = 12.0 * max(params.sigma1, params.sigma2) + abs(params.mu1) + abs(params.mu2)
        lo, hi = min(x - span, params.a - 1.0), max(x + span, params.a + 1.0)

        def fd(zs):
            return np.array([transition_density(DensityQuery(params, 1.0, x, float(z)))
                             for z in np.asarray(zs, dtype=float)])
        val, _ = integrate_finite(fd, lo, hi, settings=settings, seed_points=(params.a, x))
        worst_d = max(worst_d, abs(val - 1.0))

        xq = params.a - 0.3
        d = deltas(params, 1.0)
        lo = min(params.a - 60.0 / d.d1_plus, xq - 1.0)
        hi = max(params.a + 60.0 / d.d2_minus, xq + 1.0)

        def fp(zs):
            return np.array([potential_density(PotentialQuery(params, 1.0, xq, float(z)))
                             for z in np.asarray(zs, dtype=float)])
        val, _ = integrate_finite(fp, lo, hi, settings=settings, seed_points=(params.a, xq))
        worst_p = max(worst_p, abs(val - 1.0))
    passed = worst_d <= dtol and worst_p <= ptol
    return _result(5, "normalization", passed,
                   f"density mass err {worst_d:.2e} (tol {dtol:g}), "
                   f"potential mass err {worst_p:.2e} (tol {ptol:g}) across "
                   f"{len(PARAM_BATTERY)} parameter sets", t0)


def criterion_6(threads=1):
    """Chapman-Kolmogorov semigroup identity."""
    t0 = time.time()
    tol = 1e-3
    params = DiffusionParams(1.0, -1.0, 1.0, 2.0, 0.0)
    settings = QuadSettings(abs_tol=1e-5, rel_tol=1e-5)
    t1 = t2 = 0.5
    span = 12.0 * params.sigma2 * math.sqrt(t1) + 2.0
    worst = 0.0
    for x in (-0.5, 0.25, 1.0):
        for z in (-1.0, 0.1, 0.75):
            def f(ys):
                out = []
                for y in np.asarray(ys, dtype=float):
                    out.append(transition_density(DensityQuery(params, t1, x, float(y)))
                               * transition_density(DensityQuery(params, t2, float(y), z)))
                return np.array(out)
            lo = min(x, z, params.a) - span
            hi = max(x, z, params.a) + span
            val, _ = integrate_finite(f, lo, hi, settings=settings,
                                      seed_points=(params.a, x, z))
            want = transition_density(DensityQuery(params, t1 + t2, x, z))
            worst = max(worst, abs(val - want))
    return _result(6, "chapman-kolmogorov", worst <= tol,
                   f"max semigroup defect {worst:.2e} on 3x3 grid (tol {tol:g})", t0)


def criterion_7(threads=1):
    """Stationary law: exact form, long-horizon density, and Monte Carlo."""
    t0 = time.time()
    etol, dtol = 1e-12, 1e-2
    params = DiffusionParams(1.0, -1.0, 1.0, 1.0, 0.0)
    worst_e = max(abs(stationary_density(params, z) - math.exp(-2.0 * abs(z)))
                  for z in (-2.0, -1.0, -0.3, 0.0, 0.4, 1.0, 2.0))
    worst_d = max(abs(transition_density(DensityQuery(params, 30.0, 0.0, z))
                      - math.exp(-2.0 * abs(z)))
                  for z in (-1.0, 0.0, 1.0))

    cfg = SimConfig(params, 0.0, 30.0, 1e-3, 100_000, 70707)
    ens = simulate_paths(cfg, threads=threads)
    edges, freq, _ = ens.histogram(20, -3.0, 3.0)

    def cdf(z):
        return 0.5 * math.exp(2.0 * z) if z <= 0.0 else 1.0 - 0.5 * math.exp(-2.0 * z)
    worst_dev = 0.0
    for i in range(20):
        mass = cdf(edges[i + 1]) - cdf(edges[i])
        se = math.sqrt(mass * (1.0 - mass) / cfg.n_paths)
        worst_dev = max(worst_dev, abs(freq[i] - mass) / se)
    passed = worst_e <= etol and worst_d <= dtol and worst_dev <= 3.0
    return _result(7, "stationary-law", passed,
                   f"closed-form err {worst_e:.2e} (tol {etol:g}), t=30 density err "
                   f"{worst_d:.2e} (tol {dtol:g}), worst bin deviation {worst_dev:.2f} SE "
                   f"of 3 allowed", t0)


def criterion_8(threads=1):
    """Exit transforms: pasting, closed-form reduction, Monte Carlo hitting."""
    t0 = time.time()
    ptol, ltol = 1e-6, 1e-12
    h = 1e-5
    worst_paste = 0.0
    for params in PARAM_BATTERY:
        a = params.a
        for g in (g_minus, g_plus):
            # second-order one-sided stencils; a straddling quotient would
            # average the two one-sided slopes and hide a kink
            right = (-3.0 * g(params, 1.0, a) + 4.0 * g(params, 1.0, a + h)
                     - g(params, 1.0, a + 2 * h)) / (2.0 * h)
            left = (3.0 * g(params, 1.0, a) - 4.0 * g(params, 1.0, a - h)
                    + g(params, 1.0, a - 2 * h)) / (2.0 * h)
            worst_paste = max(worst_paste,
                              abs(right - left) / max(1.0, abs(right), abs(left)))

    worst_lin = 0.0
    for mu in (-0.7, 0.7):
        for q in (0.5, 2.0):
            sigma = 1.5
            single = DiffusionParams(mu, mu, sigma, sigma, 0.0)
            w = math.sqrt(2.0 * q * sigma * sigma + mu * mu)
            for dist in (0.3, 2.0):
                down = one_sided_down(single, q, dist, 0.0)
                up = one_sided_up(single, q, 0.0, dist)
                want_down = math.exp((-mu - w) * dist / (sigma * sigma))
                want_up = math.exp((mu - w) * dist / (sigma * sigma))
                worst_lin = max(worst_lin, abs(down - want_down), abs(up - want_up))

    params = DiffusionParams(1.0, -1.0, 1.0, 2.0, 0.0)
    q, x0, level, dt, horizon = 0.7, 0.5, 0.0, 1e-4, 10.0
    cfg = SimConfig(params, x0, horizon, dt, 100_000, 80808)
    est, se = empirical_hitting_transform(cfg, level, q, threads=threads)
    want = one_sided_down(params, q, x0, level)
    # grid detection sees an effectively lower barrier by ~0.583 sigma sqrt(dt)
    shift = _BARRIER_SHIFT * params.sigma2 * math.sqrt(dt)
    bias = 2.0 * abs(want - one_sided_down(params, q, x0, level - shift))
    budget = 3.0 * se + bias + math.exp(-q * horizon)
    mc_ok = abs(est - want) <= budget
    passed = worst_paste <= ptol and worst_lin <= ltol and mc_ok
    return _result(8, "exit-transforms", passed,
                   f"pasting defect {worst_paste:.2e} (tol {ptol:g}), closed-form err "
                   f"{worst_lin:.2e} (tol {ltol:g}), MC gap {abs(est - want):.2e} of "
                   f"budget {budget:.2e}", t0)


def criterion_9(threads=1):
    """Control problem: slope, value function, and policy dominance."""
    t0 = time.time()
    vtol, stol = 1e-3, 1e-12
    pr = ControlProblem(1.0, 2.0, -1.0, 1.0, 0.0, 1.0)
    alpha_exact = alpha(pr) == 3.0
    slope_gap = abs((pr.mu_low + alpha(pr)) / pr.sigma_low
                    - (pr.mu_bar + alpha(pr)) / pr.sigma_bar)

    pz = ControlProblem(0.0, 2.0, 0.0, 1.0, 0.0, 1.0)
    v0 = value_function(pz, 0.0)
    v0_ok = abs(v0 - 2.0 / 3.0) <= vtol

    problems = (pz, pr, ControlProblem(0.5, 1.5, -0.5, 0.5, 0.0, 1.0))
    mc_worst = 0.0
    dominance_ok = True
    dom_detail = []
    for k, problem in enumerate(problems):
        v = value_function(problem, problem.x0)
        ens = simulate_policy(problem, optimal_policy(problem), 2.5e-4, 100_000,
                              909090 + k, threads=threads)
        su, se = ens.survival_frequency(problem.a)
        mc_worst = max(mc_worst, abs(su - v) / (3.0 * se))
        ens_opt = simulate_policy(problem, optimal_policy(problem), 1e-3, 100_000,
                                  919191 + k, threads=threads)
        s_opt, se_opt = ens_opt.survival_frequency(problem.a)
        for tag, factory in (("bar", constant_bar_policy), ("low", constant_low_policy),
                             ("rev", reversed_threshold_policy)):
            ens_alt = simulate_policy(problem, factory(problem), 1e-3, 100_000,
                                      929292 + 10 * k, threads=threads)
            s_alt, se_alt = ens_alt.survival_frequency(problem.a)
            pooled = math.sqrt(se_opt ** 2 + se_alt ** 2)
            margin = (s_opt - s_alt) / pooled
            dom_detail.append(f"P{k + 1}:{tag} {margin:+.1f}SE")
            if margin < -3.0:
                dominance_ok = False
    el = time.time() - t0
    passed = (alpha_exact and slope_gap <= stol and v0_ok and mc_worst <= 1.0
              and dominance_ok and el <= 300.0)
    return _result(9, "control-value", passed,
                   f"alpha==3 {alpha_exact}, slope gap {slope_gap:.1e}, "
                   f"|V(0)-2/3| = {abs(v0 - 2.0 / 3.0):.2e} (tol {vtol:g}), MC-vs-V worst "
                   f"{mc_worst:.2f} of 3SE, dominance [{', '.join(dom_detail)}]; "
                   f"{el:.0f}s of 300s budget", t0)


def criterion_10(threads=1):
    """Time reversal holds exactly when both coefficient pairs coincide."""
    t0 = time.time()
    wtol = 1e-3
    flags_ok = all(is_time_reversible(p) == (p.mu1 == p.mu2 and p.sigma1 == p.sigma2)
                   for p in PARAM_BATTERY)
    has_true = any(is_time_reversible(p) for p in PARAM_BATTERY)

    params = DiffusionParams(1.0, -1.0, 1.0, 2.0, 0.0)
    reversed_params = DiffusionParams(-params.mu1, -params.mu2,
                                      params.sigma1, params.sigma2, params.a)
    witness = 0.0
    at = None
    for x, z in ((0.5, -0.5), (0.3, 0.8), (0.0, 1.0)):
        gap = abs(transition_density(DensityQuery(params, 1.0, x, z))
                  - transition_density(DensityQuery(reversed_params, 1.0, z, x)))
        if gap > witness:
            witness, at = gap, (x, z)
    rev = DiffusionParams(0.0, 0.0, 1.0, 1.0, 0.0)
    rev_gap = abs(transition_density(DensityQuery(rev, 1.0, 0.3, 0.8))
                  - transition_density(DensityQuery(rev, 1.0, 0.8, 0.3)))
    passed = flags_ok and has_true and witness > wtol and rev_gap <= 1e-9
    return _result(10, "time-reversal", passed,
                   f"flags consistent on {len(PARAM_BATTERY)} sets; witness gap "
                   f"{witness:.3e} > {wtol:g} at (x,z)={at}; reversible-case gap "
                   f"{rev_gap:.1e}", t0)


def criterion_11(threads=1):
    """Simulation CLI is byte-deterministic, serial or parallel."""
    import tempfile

    from . import cli
    t0 = time.time()
    args = ["simulate", "--mu1", "0.5", "--mu2", "-0.5", "--sigma1", "1", "--sigma2", "2",
            "--a", "0", "--x0", "0.1", "--horizon", "1", "--dt", "1e-3",
            "--n-paths", "4000", "--seed", "42"]
    blobs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, extra in enumerate((["--threads", "1"], ["--threads", "1"],
                                   ["--threads", "4"])):
            path = os.path.join(tmp, f"run{i}.csv")
            # the survival summary goes to stdout when the CSV goes to a file;
            # keep it out of the validate report
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(args + ["--out", path] + extra)
            if code != 0:
                return _result(11, "determinism", False,
                               f"cmd_simulate exited with {code}", t0)
            with open(path, "rb") as fh:
                blobs.append(fh.read())
    passed = blobs[0] == blobs[1] and blobs[0] == blobs[2]
    return _result(11, "determinism", passed,
                   f"rerun identical: {blobs[0] == blobs[1]}; serial == 4 threads: "
                   f"{blobs[0] == blobs[2]} ({len(blobs[0])} bytes)", t0)


ALL_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
                criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
                criterion_11)
