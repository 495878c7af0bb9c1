"""Euler-Maruyama simulation of the threshold diffusion and of controlled runs.

Reproducibility contract: each path owns a counter-based RNG stream,
the Philox4x64-10 stream keyed by the pair (seed, path_index). A block of
paths builds one generator and re-keys it to each path's key, setting the
counter to where that path's stream resumes, so every path reads exactly
the stream a fresh Philox(key=(seed, path_index)) would give. Uniform
variates come from numpy's 53-bit Generator.random; normals are produced
by Wichura's AS241 inverse-CDF polynomial implemented below, so the
bit stream never depends on numpy's normal sampler. Serial and parallel
execution therefore produce identical ensembles, block and chunk splits
included.

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

from .control import ControlProblem, _ThresholdPolicy
from .errors import DomainError, InvalidParameterError, PolicyError
from .params import DiffusionParams, _finite_real, _integer

# shifts [0,1) uniforms strictly inside (0,1) so the inverse CDF stays finite
_U_SHIFT = 2.0 ** -54
# paths evolved together; large enough to amortize numpy dispatch
_BLOCK_PATHS = 4096
# noise doubles drawn per chunk (the last chunk of a block may take an eighth
# more; a hitting chunk also holds a second increment and a flag per normal);
# bounds per-worker memory, not results
_CHUNK_BUDGET = 4_000_000
# horizon / dt may not exceed this many Euler steps per path; criterion 8 takes
# 1e5, and without a cap a subnormal dt would ask for 1e300 steps
_MAX_STEPS = 1e9

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


def _horner(coeffs, r, acc=None):
    """Horner's rule, c0 r + c1, then (...) r + c2, ...; in place on acc when given."""
    acc = np.multiply(r, coeffs[0], out=acc)
    acc += coeffs[1]
    for c in coeffs[2:]:
        acc *= r
        acc += c
    return acc


def _ppf_slab(u, out, work):
    """AS241 on one contiguous slab. The central rational runs branch-free on
    every value; its denominator stays above 2e-3 for |q| <= 1/2, so the tail
    values it also computes are finite. They are then overwritten by index,
    the same way: the r <= 5 rational runs on every tail value (its
    denominator has positive coefficients and r - 1.6 > 0 there), and the
    r > 5 rational is patched in by index where such values occur."""
    q, r, num, den = (w[:u.size] for w in work[0])
    tails = work[1][:u.size]
    np.subtract(u, 0.5, out=q)
    np.abs(q, out=r)
    np.greater(r, 0.425, out=tails)
    np.multiply(q, q, out=r)
    np.subtract(0.180625, r, out=r)
    np.multiply(q, _horner(_PPND_A, r, num), out=out)
    out /= _horner(_PPND_B, r, den)
    idx = np.flatnonzero(tails)
    if idx.size:
        ut = u[idx]
        r = np.sqrt(-np.log(np.minimum(ut, 1.0 - ut)))
        rn = r - 1.6
        v = _horner(_PPND_C, rn)
        v /= _horner(_PPND_D, rn)
        far = np.flatnonzero(r > 5.0)
        if far.size:
            rf = r[far] - 5.0
            v[far] = _horner(_PPND_E, rf) / _horner(_PPND_F, rf)
        out[idx] = np.copysign(v, q[idx], out=v)


# slab length for the inverse CDF, sized to a 2 MB L2 cache: on a 2-vCPU x86
# host a normal cost 20-24 ns at 65 536 values per slab and 27-29 ns at 131 072
_PPF_SLAB = 65536


def _norm_ppf(u, out=None):
    """Inverse standard-normal CDF (AS241), vectorized, u strictly in (0,1).

    Writes into `out` when given (same shape as u). The transpose of a
    C-ordered 2-D array, such as a path-major slab of uniforms read
    step-major, is evaluated in its memory order and written back
    transposed.
    """
    u = np.asarray(u, dtype=float)
    if out is None:
        out = np.empty(u.shape)
    flip = u.ndim == 2 and not u.flags.c_contiguous and u.T.flags.c_contiguous
    src = (u.T if flip else np.ascontiguousarray(u)).reshape(-1)
    direct = not flip and out.flags.c_contiguous
    res = out.reshape(-1) if direct else np.empty(src.size)
    n = min(_PPF_SLAB, src.size)
    work = (np.empty((4, n)), np.empty(n, dtype=bool))
    for i in range(0, src.size, _PPF_SLAB):
        _ppf_slab(src[i:i + _PPF_SLAB], res[i:i + _PPF_SLAB], work)
    if not direct:
        np.copyto(out, res.reshape(u.T.shape).T if flip else res.reshape(u.shape))
    return out


def _path_generator(seed, index):
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _draw_block_normals(gen, paths, col0, n_cols):
    """Normals for columns col0 .. col0 + n_cols - 1 of each path's stream,
    step-major: row k holds column col0 + k of every path in `paths`.

    gen comes from _path_generator(seed, ...) and is re-keyed to (seed, i)
    for each path i. Philox emits four 64-bit words per counter value and
    Generator.random takes one word per double, so column col0 starts
    col0 % 4 words into the block of counter col0 // 4 + 1: the counter is
    set to col0 // 4 with an empty buffer and col0 % 4 words are discarded.
    Uniforms are drawn one cache-sized slab of paths at a time, and each
    slab is turned into normals straight into its columns of the output.
    """
    bitgen = gen.bit_generator
    state = bitgen.state
    key, counter = state["state"]["key"], state["state"]["counter"]
    counter[:] = 0
    counter[0] = col0 // 4
    state["buffer_pos"] = 4
    skip = col0 % 4
    out = np.empty((n_cols, len(paths)))
    per = max(1, _PPF_SLAB // n_cols)
    u = np.empty((min(per, len(paths)), n_cols))
    for j in range(0, len(paths), per):
        rows = u[:len(paths[j:j + per])]
        for row, i in zip(rows, paths[j:j + per]):
            key[1] = i
            bitgen.state = state
            if skip:
                bitgen.random_raw(skip)
            gen.random(out=row)
        rows += _U_SHIFT
        _norm_ppf(rows.T, out[:, j:j + per])
    return out


def _step_layout(horizon, dt):
    """Full steps of size dt plus an optional shorter closing step."""
    n_full = int(math.floor(horizon / dt + 1e-9))
    rem = horizon - n_full * dt
    if rem <= 1e-12 * max(1.0, abs(horizon)):
        rem = 0.0
    return n_full, rem


def _check_run(x0, horizon, dt, n_paths, seed):
    """Validate the fields every simulation request shares."""
    if not (_finite_real(horizon) and horizon > 0):
        raise InvalidParameterError(f"horizon must be positive, got {horizon!r}")
    if not (_finite_real(dt) and dt > 0):
        raise InvalidParameterError(f"dt must be positive, got {dt!r}")
    if dt > horizon:
        raise InvalidParameterError(
            f"dt must not exceed horizon, got dt={dt!r} > T={horizon!r}")
    if horizon > _MAX_STEPS * dt:
        raise InvalidParameterError(
            f"horizon / dt must not exceed {_MAX_STEPS:.0e} steps per path, got "
            f"T={horizon!r}, dt={dt!r}")
    if not (_integer(n_paths) and n_paths >= 1):
        raise InvalidParameterError(f"n_paths must be an integer >= 1, got {n_paths!r}")
    if not (_integer(seed) and 0 <= int(seed) < 2 ** 64):
        raise InvalidParameterError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    if not _finite_real(x0):
        raise InvalidParameterError(f"x0 must be a finite number, got {x0!r}")


def _check_threads(threads):
    if not (_integer(threads) and threads >= 1):
        raise InvalidParameterError(f"threads must be an integer >= 1, got {threads!r}")


@dataclass(frozen=True)
class SimConfig:
    """Plain (uncontrolled) simulation request; horizon / dt is at most 1e9 steps."""

    params: DiffusionParams
    x0: float
    horizon: float
    dt: float
    n_paths: int
    seed: int

    def __post_init__(self):
        if not isinstance(self.params, DiffusionParams):
            raise InvalidParameterError(
                f"params must be a DiffusionParams, got {self.params!r}")
        _check_run(self.x0, self.horizon, self.dt, self.n_paths, self.seed)


def _check_config(config):
    if not isinstance(config, SimConfig):
        raise InvalidParameterError(f"config must be a SimConfig, got {config!r}")


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
        if not _finite_real(level):
            raise DomainError(f"level must be a finite number, got {level!r}")
        ind = (self.terminal_values >= level).astype(float)
        p = float(ind.mean())
        se = float(ind.std(ddof=1) / math.sqrt(self.n_paths)) if self.n_paths > 1 else 0.0
        return p, se

    def histogram(self, n_bins, lo, hi):
        """Per-bin occupation frequencies with binomial standard errors.

        Returns (edges, frequencies, standard_errors); frequencies are
        probabilities of landing in each bin, not densities.
        """
        if not (_integer(n_bins) and n_bins >= 1):
            raise InvalidParameterError(f"n_bins must be an integer >= 1, got {n_bins!r}")
        if not (_finite_real(lo) and _finite_real(hi) and lo < hi):
            raise DomainError(f"histogram range needs finite lo < hi, got ({lo!r}, {hi!r})")
        counts, edges = np.histogram(self.terminal_values, bins=n_bins, range=(lo, hi))
        freq = counts / self.n_paths
        se = np.sqrt(freq * (1.0 - freq) / self.n_paths)
        return edges, freq, se


def _block_size(n_paths, threads):
    per = _BLOCK_PATHS
    if threads > 1:
        per = min(per, max(64, -(-n_paths // threads)))
    return min(n_paths, per)


def _chunk_steps(block, left):
    """Columns in the next noise chunk of a block when `left` columns remain.

    The budget's share of columns, or all that remain when they exceed it
    by at most an eighth: a short chunk of its own would pay a whole re-key
    pass over the block's paths for a few columns.
    """
    chunk = max(64, min(2048, _CHUNK_BUDGET // max(block, 1)))
    return left if left <= chunk + chunk // 8 else chunk


def _terminal_block(seed, idx0, count, x0, horizon, dt, step_factory):
    """Evolve one path block to the horizon, regime frozen per step.

    step_factory(count) builds a step(X, t, dt_step, Z) closure owning any
    per-block work buffers, so blocks running on different threads never
    share state. Noise is drawn in chunks of columns; each path consumes its
    own stream sequentially, so the chunking leaves the results untouched.
    """
    gen = _path_generator(seed, idx0)
    paths = range(idx0, idx0 + count)
    step_fn = step_factory(count)
    n_full, rem = _step_layout(horizon, dt)
    x = np.full(count, float(x0))
    done = 0
    while done < n_full:
        m = _chunk_steps(count, n_full - done)
        z = _draw_block_normals(gen, paths, done, m)
        for k in range(m):
            step_fn(x, (done + k) * dt, dt, z[k])
        done += m
    if rem > 0.0:
        step_fn(x, n_full * dt, rem, _draw_block_normals(gen, paths, n_full, 1)[0])
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


def _two_valued_step(x, below, on_below, elsewhere, z):
    """x += d + v z, with (d, v) = on_below where `below` holds, else elsewhere.

    Within one step the drift and volatility terms take two values each, so
    they are scalars selected per path; each value comes from the same
    products as the per-path arithmetic it replaces, so the bits agree.
    """
    v = np.where(below, on_below[1], elsewhere[1])
    v *= z
    v += np.where(below, on_below[0], elsewhere[0])
    x += v


def _run_blocks(n_paths, threads, block, block_values):
    """One output value per path, `block` paths at a time: block_values(i0,
    count) returns those of paths i0 .. i0 + count - 1. Blocks run on a
    thread pool when threads > 1; the split never changes the values."""
    out = np.empty(n_paths)
    starts = range(0, n_paths, block)

    def work(i0):
        count = min(block, n_paths - i0)
        out[i0:i0 + count] = block_values(i0, count)

    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, starts))
    else:
        for i0 in starts:
            work(i0)
    return out


def _terminal_values(seed, x0, horizon, dt, n_paths, step_factory, threads):
    return _run_blocks(n_paths, threads, _block_size(n_paths, threads),
                       lambda i0, count: _terminal_block(seed, i0, count, x0, horizon, dt,
                                                         step_factory))


def simulate_paths(config, threads=1):
    """Simulate the uncontrolled threshold diffusion; returns a PathEnsemble.

    Deterministic given config.seed: same seed, same ensemble, independent
    of block or thread count.
    """
    _check_config(config)
    _check_threads(threads)
    out = _terminal_values(config.seed, config.x0, config.horizon, config.dt,
                           config.n_paths, _plain_step(config.params), threads)
    return PathEnsemble(out, config.n_paths, config.seed, config.dt,
                        config.x0, config.horizon)


def _threshold_policy_step(problem, policy):
    """Step factory for a _ThresholdPolicy whose two volatilities the problem
    admits: the policy's moving level splits the paths, with no call to it."""
    owner = policy.problem

    def pair(vol, dt_step, sq):
        vol = float(vol)
        return (problem.mu_bar if vol == problem.sigma_bar else problem.mu_low) * dt_step, vol * sq

    def make(count):
        def step(x, t, dt_step, z):
            sq = math.sqrt(dt_step)
            level = owner.a + policy.alpha * (owner.T - t)
            _two_valued_step(x, x <= level, pair(policy.at_or_below, dt_step, sq),
                             pair(policy.above, dt_step, sq), z)
        return step
    return make


def _policy_step(problem, policy):
    """Step factory calling policy(states, t) every step and checking its answer."""
    sbar, slow = problem.sigma_bar, problem.sigma_low
    mubar, mulow = problem.mu_bar, problem.mu_low

    def make(count):
        def step(x, t, dt_step, z):
            returned = policy(x, t)
            try:
                vol = np.asarray(returned, dtype=float)
            except (TypeError, ValueError) as exc:
                raise PolicyError(f"policy returned no volatilities at t={t!r}: {exc}") from exc
            if vol.ndim == 0:
                vol = np.full_like(x, float(vol))
            if vol.shape != x.shape:
                raise PolicyError(f"policy returned shape {vol.shape} for {x.shape} states "
                                  f"at t={t!r}")
            bad = ~((vol == sbar) | (vol == slow))
            if bad.any():
                raise PolicyError(
                    f"policy returned volatility {vol[bad][0]!r} at t={t!r}; "
                    f"admissible values are {slow!r} and {sbar!r}")
            drift = np.where(vol == sbar, mubar, mulow)
            x += drift * dt_step + vol * math.sqrt(dt_step) * z
        return step
    return make


def simulate_policy(problem, policy, dt, n_paths, seed, threads=1):
    """Simulate the controlled state equation under a volatility policy.

    policy(states, t) must return, for each state, one of the problem's two
    admissible volatilities (sigma_low or sigma_bar, exact values); the
    paired drift is chosen automatically. A non-admissible return, or one
    not shaped like the states, raises PolicyError at its first occurrence.
    The library's threshold policies are stepped without calling them, with
    the same arithmetic, when the problem admits both of their volatilities.
    """
    if not isinstance(problem, ControlProblem):
        raise InvalidParameterError(f"problem must be a ControlProblem, got {problem!r}")
    if not callable(policy):
        raise PolicyError(f"policy must be callable as policy(states, t), got {policy!r}")
    _check_run(problem.x0, problem.T, dt, n_paths, seed)
    _check_threads(threads)
    admissible = (problem.sigma_low, problem.sigma_bar)
    if (isinstance(policy, _ThresholdPolicy) and policy.at_or_below in admissible
            and policy.above in admissible):
        factory = _threshold_policy_step(problem, policy)
    else:
        factory = _policy_step(problem, policy)
    out = _terminal_values(seed, problem.x0, problem.T, dt, n_paths, factory, threads)
    return PathEnsemble(out, n_paths, seed, dt, problem.x0, problem.T)


def empirical_hitting_transform(config, level, q, threads=1):
    """Monte Carlo estimate of E[exp(-q T_level)] with grid-time detection.

    Paths that never touch the level before the horizon contribute 0 (the
    transform already encodes killing, so no infinite hitting time appears).
    Returns (estimate, standard_error). Exact 1 when level == x0.
    """
    _check_config(config)
    _check_threads(threads)
    if not (_finite_real(q) and q > 0):
        raise DomainError(f"q must be positive, got {q!r}")
    if not _finite_real(level):
        raise DomainError(f"level must be a finite number, got {level!r}")
    if level == config.x0:
        return 1.0, 0.0
    sign = 1.0 if config.x0 > level else -1.0
    n_full, rem = _step_layout(config.horizon, config.dt)
    # one block per thread: a step costs the same few numpy calls however
    # few paths are alive, so fewer blocks pay that overhead fewer times
    out = _run_blocks(config.n_paths, threads, -(-config.n_paths // threads),
                      lambda i0, count: _hitting_block(config, level, q, sign, i0, count,
                                                       n_full, rem))
    est = float(out.mean())
    se = float(out.std(ddof=1) / math.sqrt(config.n_paths)) if config.n_paths > 1 else 0.0
    return est, se


# noise columns of the first hitting chunk; later chunks double up to the cap,
# so paths that hit early stop drawing normals early
_HIT_CHUNK_FIRST = 64
_HIT_CHUNK_MAX = 1024


def _hitting_block(config, level, q, sign, i0, count, n_full, rem):
    """First-crossing contributions for one path block, with compaction of
    finished paths between noise chunks.

    A path crosses when sign (x - level) <= 0, i.e. x <= level for sign 1
    and x >= level for sign -1. A chunk of noise, at most _CHUNK_BUDGET
    normals or one column, is turned into the two increments d + v z a step
    can take, with the products and sums of _two_valued_step, so a step is
    a regime test, a select, an add and a crossing test recorded per path.
    Crossed paths keep stepping until the chunk ends; the first recorded
    crossing of each path gives its hitting step.
    """
    params = config.params
    mu2, s2 = params.mu2, params.sigma2
    dmu, ds = params.mu1 - params.mu2, params.sigma1 - params.sigma2
    a = params.a

    def pairs(dt_step):
        # the values of (mu2 + dmu b) dt_step and (s2 + ds b) sqrt(dt_step), b in {1, 0}
        sq = math.sqrt(dt_step)
        return tuple(((mu2 + dmu * b) * dt_step, (s2 + ds * b) * sq) for b in (1.0, 0.0))

    crossed = np.less_equal if sign > 0 else np.greater_equal
    dt = config.dt
    (d_below, v_below), (d_above, v_above) = pairs(dt)
    gen = _path_generator(config.seed, i0)
    x = np.full(count, float(config.x0))
    alive = np.arange(count)
    contrib = np.zeros(count)
    chunk = _HIT_CHUNK_FIRST
    done = 0
    while alive.size and done < n_full:
        m = min(chunk, n_full - done, max(1, _CHUNK_BUDGET // alive.size))
        z = _draw_block_normals(gen, (i0 + alive).tolist(), done, m)
        below = z * v_below
        below += d_below
        z *= v_above
        z += d_above
        record = np.empty(z.shape, dtype=bool)
        for k in range(m):
            x += np.where(x <= a, below[k], z[k])
            crossed(x, level, out=record[k])
        first = record.argmax(axis=0)
        dead = record[first, np.arange(alive.size)]
        if dead.any():
            contrib[alive[dead]] = np.exp(-q * dt * (done + first[dead] + 1))
            keep = ~dead
            x = x[keep]
            alive = alive[keep]
        # free this chunk before drawing the next, or both are held at once
        del z, below, record
        done += m
        chunk = min(2 * chunk, _HIT_CHUNK_MAX)
    if alive.size and rem > 0.0:
        z = _draw_block_normals(gen, (i0 + alive).tolist(), n_full, 1)
        _two_valued_step(x, x <= a, *pairs(rem), z[0])
        hit = crossed(x, level)
        if hit.any():
            contrib[alive[hit]] = math.exp(-q * config.horizon)
    return contrib
