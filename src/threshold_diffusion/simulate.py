"""Euler-Maruyama simulation of the threshold diffusion and of controlled runs.

Reproducibility contract: each path owns a counter-based RNG stream,
a Philox4x64-10 generator keyed by the pair (seed, path_index). Uniform
variates come from numpy's 53-bit Generator.random; normals are produced
by Wichura's AS241 inverse-CDF polynomial implemented below, so the
bit stream never depends on numpy's normal sampler. Serial and parallel
execution therefore produce identical ensembles, block splits included.

The scheme freezes the regime at the left endpoint of every step; the
coefficients are discontinuous at the threshold, so survival-type
functionals carry an O(sqrt(dt)) weak bias that the documented bias
budgets account for. Hitting times are detected on the time grid with
no bridge correction, same budget.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParameterError, PolicyError
from .params import _finite_real, _integer

# shifts [0,1) uniforms strictly inside (0,1) so the inverse CDF stays finite
_U_SHIFT = 2.0 ** -54
# paths evolved together; large enough to amortize numpy dispatch
_BLOCK_PATHS = 4096
# noise doubles drawn per chunk; bounds per-worker memory, not results
_CHUNK_BUDGET = 4_000_000

# Wichura (1988) algorithm AS241, PPND16 constants
_PPND_A = (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
           4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
           1.3314166789178437745e2, 3.3871328727963666080e0)
_PPND_B = (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
           2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
           4.2313330701600911252e1, 1.0)
_PPND_C = (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
           1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
           4.63033784615654529590e0, 1.42343711074968357734e0)
_PPND_D = (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
           1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
           2.05319162663775882187e0, 1.0)
_PPND_E = (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
           2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
           5.46378491116411436990e0, 6.65790464350110377720e0)
_PPND_F = (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
           7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
           5.99832206555887937690e-1, 1.0)


def _horner(coeffs, r):
    acc = np.full_like(r, coeffs[0])
    for c in coeffs[1:]:
        acc *= r
        acc += c
    return acc


def _ppf_slab(u, out):
    q = u - 0.5
    central = np.abs(q) <= 0.425
    if central.any():
        qc = q[central]
        r = 0.180625 - qc * qc
        out[central] = qc * _horner(_PPND_A, r) / _horner(_PPND_B, r)
    tails = ~central
    if tails.any():
        ut = u[tails]
        r = np.sqrt(-np.log(np.minimum(ut, 1.0 - ut)))
        v = np.empty_like(r)
        near = r <= 5.0
        rn = r[near] - 1.6
        v[near] = _horner(_PPND_C, rn) / _horner(_PPND_D, rn)
        far = ~near
        rf = r[far] - 5.0
        v[far] = _horner(_PPND_E, rf) / _horner(_PPND_F, rf)
        out[tails] = np.where(ut < 0.5, -v, v)


# slab length for the inverse CDF; keeps the ~10 working arrays cache-resident
_PPF_SLAB = 131072


def _norm_ppf(u):
    """Inverse standard-normal CDF (AS241), vectorized, u strictly in (0,1)."""
    u = np.ascontiguousarray(u, dtype=float)
    out = np.empty(u.shape)
    uf = u.reshape(-1)
    of = out.reshape(-1)
    for i in range(0, uf.size, _PPF_SLAB):
        _ppf_slab(uf[i:i + _PPF_SLAB], of[i:i + _PPF_SLAB])
    return out


def _path_generator(seed, index):
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _draw_block_normals(gens, n_cols):
    u = np.empty((len(gens), n_cols))
    for i, g in enumerate(gens):
        u[i, :] = g.random(n_cols)
    u += _U_SHIFT
    return _norm_ppf(u)


def _step_layout(horizon, dt):
    """Full steps of size dt plus an optional shorter closing step."""
    n_full = int(math.floor(horizon / dt + 1e-9))
    rem = horizon - n_full * dt
    if rem <= 1e-12 * max(1.0, abs(horizon)):
        rem = 0.0
    return n_full, rem


@dataclass(frozen=True)
class SimConfig:
    """Plain (uncontrolled) simulation request."""

    params: object
    x0: float
    horizon: float
    dt: float
    n_paths: int
    seed: int

    def __post_init__(self):
        if not (_finite_real(self.horizon) and self.horizon > 0):
            raise InvalidParameterError(f"horizon must be positive, got {self.horizon!r}")
        if not (_finite_real(self.dt) and self.dt > 0):
            raise InvalidParameterError(f"dt must be positive, got {self.dt!r}")
        if self.dt > self.horizon:
            raise InvalidParameterError(
                f"dt must not exceed horizon, got dt={self.dt!r} > T={self.horizon!r}")
        if not (_integer(self.n_paths) and self.n_paths >= 1):
            raise InvalidParameterError(f"n_paths must be an integer >= 1, got {self.n_paths!r}")
        if not (_integer(self.seed) and 0 <= int(self.seed) < 2 ** 64):
            raise InvalidParameterError(
                f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if not _finite_real(self.x0):
            raise InvalidParameterError(f"x0 must be a finite number, got {self.x0!r}")


@dataclass(frozen=True)
class PathEnsemble:
    """Terminal states of a simulated ensemble plus basic estimators."""

    terminal_values: np.ndarray
    n_paths: int
    seed: int
    dt: float
    x0: float
    horizon: float

    def __post_init__(self):
        if len(self.terminal_values) != self.n_paths:
            raise InvalidParameterError("terminal_values length must equal n_paths")

    def mean(self):
        """(sample mean, standard error)."""
        v = self.terminal_values
        se = v.std(ddof=1) / math.sqrt(self.n_paths) if self.n_paths > 1 else 0.0
        return float(v.mean()), float(se)

    def survival_frequency(self, level):
        """(frequency of terminal value >= level, standard error)."""
        ind = (self.terminal_values >= level).astype(float)
        p = float(ind.mean())
        se = float(ind.std(ddof=1) / math.sqrt(self.n_paths)) if self.n_paths > 1 else 0.0
        return p, se

    def histogram(self, n_bins, lo, hi):
        """Per-bin occupation frequencies with binomial standard errors.

        Returns (edges, frequencies, standard_errors); frequencies are
        probabilities of landing in each bin, not densities.
        """
        counts, edges = np.histogram(self.terminal_values, bins=n_bins, range=(lo, hi))
        freq = counts / self.n_paths
        se = np.sqrt(freq * (1.0 - freq) / self.n_paths)
        return edges, freq, se


def _block_size(n_paths, threads):
    per = _BLOCK_PATHS
    if threads > 1:
        per = min(per, max(64, -(-n_paths // threads)))
    return min(n_paths, per)


def _chunk_steps(block):
    return max(64, min(2048, _CHUNK_BUDGET // max(block, 1)))


def _terminal_block(seed, idx0, count, x0, horizon, dt, step_factory):
    """Evolve one path block to the horizon, regime frozen per step.

    step_factory(count) builds a step(X, t, dt_step, Z) closure owning any
    per-block work buffers, so blocks running on different threads never
    share state. Noise is drawn in chunks of columns; each path consumes its
    own stream sequentially, so the chunking leaves the results untouched.
    """
    gens = [_path_generator(seed, idx0 + i) for i in range(count)]
    step_fn = step_factory(count)
    n_full, rem = _step_layout(horizon, dt)
    x = np.full(count, float(x0))
    chunk = _chunk_steps(count)
    done = 0
    while done < n_full:
        m = min(chunk, n_full - done)
        z = _draw_block_normals(gens, m)
        zt = np.ascontiguousarray(z.T)
        for k in range(m):
            step_fn(x, (done + k) * dt, dt, zt[k])
        done += m
    if rem > 0.0:
        z = _draw_block_normals(gens, 1)
        step_fn(x, n_full * dt, rem, z[:, 0])
    return x


def _plain_step(params):
    """Step factory for the uncontrolled process, buffered for the hot path.

    The update x += (mu2 + dmu b) dt + (s2 + ds b) sq z with b = 1{x <= a}
    is regrouped as x += mu2 dt + s2 sq z + b (dmu dt + ds sq z) so the whole
    step runs in-place on preallocated work arrays.
    """
    mu2, s2 = params.mu2, params.sigma2
    dmu, ds = params.mu1 - params.mu2, params.sigma1 - params.sigma2
    a = params.a

    def make(count):
        mask = np.empty(count, dtype=bool)
        w1 = np.empty(count)
        w2 = np.empty(count)

        def step(x, t, dt_step, z):
            sq = math.sqrt(dt_step)
            np.less_equal(x, a, out=mask)
            np.multiply(z, ds * sq, out=w1)
            np.add(w1, dmu * dt_step, out=w1)
            np.multiply(w1, mask, out=w1)
            np.multiply(z, s2 * sq, out=w2)
            np.add(w1, w2, out=w1)
            np.add(w1, mu2 * dt_step, out=w1)
            np.add(x, w1, out=x)
        return step
    return make


def _run_blocks(config, threads, block_values):
    """One output value per path, block by block: block_values(i0, count)
    returns those of paths i0 .. i0 + count - 1. Blocks run on a thread pool
    when threads > 1; the split never changes the values."""
    block = _block_size(config.n_paths, threads)
    out = np.empty(config.n_paths)
    starts = range(0, config.n_paths, block)

    def work(i0):
        count = min(block, config.n_paths - i0)
        out[i0:i0 + count] = block_values(i0, count)

    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, starts))
    else:
        for i0 in starts:
            work(i0)
    return out


def _terminal_values(config, step_factory, threads):
    return _run_blocks(config, threads, lambda i0, count: _terminal_block(
        config.seed, i0, count, config.x0, config.horizon, config.dt, step_factory))


def simulate_paths(config, threads=1):
    """Simulate the uncontrolled threshold diffusion; returns a PathEnsemble.

    Deterministic given config.seed: same seed, same ensemble, independent
    of block or thread count.
    """
    out = _terminal_values(config, _plain_step(config.params), threads)
    return PathEnsemble(out, config.n_paths, config.seed, config.dt,
                        config.x0, config.horizon)


def simulate_policy(problem, policy, dt, n_paths, seed, threads=1):
    """Simulate the controlled state equation under a volatility policy.

    policy(states, t) must return, for each state, one of the problem's two
    admissible volatilities (sigma_low or sigma_bar, exact values); the
    paired drift is chosen automatically. A non-admissible return raises
    PolicyError at its first occurrence.
    """
    sbar, slow = problem.sigma_bar, problem.sigma_low
    mubar, mulow = problem.mu_bar, problem.mu_low

    def make(count):
        def step(x, t, dt_step, z):
            vol = np.asarray(policy(x, t), dtype=float)
            if vol.ndim == 0:
                vol = np.full_like(x, float(vol))
            bad = ~((vol == sbar) | (vol == slow))
            if bad.any():
                raise PolicyError(
                    f"policy returned volatility {vol[bad][0]!r} at t={t!r}; "
                    f"admissible values are {slow!r} and {sbar!r}")
            drift = np.where(vol == sbar, mubar, mulow)
            x += drift * dt_step + vol * math.sqrt(dt_step) * z
        return step

    config = SimConfig(None, problem.x0, problem.T, dt, n_paths, seed)
    out = _terminal_values(config, make, threads)
    return PathEnsemble(out, n_paths, seed, dt, problem.x0, problem.T)


def empirical_hitting_transform(config, level, q, threads=1):
    """Monte Carlo estimate of E[exp(-q T_level)] with grid-time detection.

    Paths that never touch the level before the horizon contribute 0 (the
    transform already encodes killing, so no infinite hitting time appears).
    Returns (estimate, standard_error). Exact 1 when level == x0.
    """
    if not (_finite_real(q) and q > 0):
        raise DomainError(f"q must be positive, got {q!r}")
    if not _finite_real(level):
        raise DomainError(f"level must be a finite number, got {level!r}")
    if level == config.x0:
        return 1.0, 0.0
    sign = 1.0 if config.x0 > level else -1.0
    n_full, rem = _step_layout(config.horizon, config.dt)
    out = _run_blocks(config, threads, lambda i0, count: _hitting_block(
        config, level, q, sign, i0, count, n_full, rem))
    est = float(out.mean())
    se = float(out.std(ddof=1) / math.sqrt(config.n_paths)) if config.n_paths > 1 else 0.0
    return est, se


def _hitting_block(config, level, q, sign, i0, count, n_full, rem):
    """First-crossing contributions for one path block, with compaction of
    finished paths between noise chunks."""
    params = config.params
    mu2, s2 = params.mu2, params.sigma2
    dmu, ds = params.mu1 - params.mu2, params.sigma1 - params.sigma2
    a = params.a
    dt = config.dt
    sq = math.sqrt(dt)

    gens = [_path_generator(config.seed, i0 + i) for i in range(count)]
    x = np.full(count, float(config.x0))
    alive = np.arange(count)
    contrib = np.zeros(count)
    chunk = 1024
    done = 0
    while len(gens) and done < n_full:
        m = min(chunk, n_full - done)
        zt = np.ascontiguousarray(_draw_block_normals(gens, m).T)
        hit_step = np.full(len(gens), np.int64(-1))
        for k in range(m):
            below = x <= a
            x += (mu2 + dmu * below) * dt + (s2 + ds * below) * sq * zt[k]
            newly = (hit_step < 0) & (sign * (x - level) <= 0.0)
            if newly.any():
                hit_step[newly] = done + k + 1
        done += m
        dead = hit_step >= 0
        if dead.any():
            contrib[alive[dead]] = np.exp(-q * dt * hit_step[dead])
            keep = ~dead
            x = x[keep]
            alive = alive[keep]
            gens = [g for g, kp in zip(gens, keep) if kp]
    if len(gens) and rem > 0.0:
        z = _draw_block_normals(gens, 1)
        below = x <= a
        x += (mu2 + dmu * below) * rem + (s2 + ds * below) * math.sqrt(rem) * z[:, 0]
        hit = sign * (x - level) <= 0.0
        if hit.any():
            contrib[alive[hit]] = math.exp(-q * config.horizon)
    return contrib
