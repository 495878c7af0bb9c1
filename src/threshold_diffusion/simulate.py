"""Euler-Maruyama simulation of the threshold diffusion and of controlled runs.

Reproducibility contract: each path owns a counter-based RNG stream,
the Philox4x64-10 stream keyed by the pair (seed, path_index). A block of
paths builds one generator and re-keys it to each path's key from plain ints,
with the counter where that path's stream resumes, so every path reads exactly
the stream a fresh Philox(key=(seed, path_index)) would give. Uniform
variates come from numpy's 53-bit Generator.random; normals are produced
by Wichura's AS241 inverse-CDF polynomial implemented below, so the
bit stream never depends on numpy's normal sampler. Serial and parallel
execution therefore produce identical ensembles, block and chunk splits
included. Terminal ensembles run blocks of at most 2048 paths, the hitting
transform one block per thread; each worker holds at most _NOISE_BUDGET
bytes of noise at once, so memory grows with threads, not with n_paths.
A step factory, given a block's path count and a step size, turns a noise
chunk into the increment terms its steps add, one cache-sized sub-chunk at a
time, with the products and sums, in order, of a step computing them itself.

The scheme freezes the regime at the left endpoint of every step; the
coefficients are discontinuous at the threshold, so survival-type
functionals carry an O(sqrt(dt)) weak bias that the documented bias
budgets account for. Hitting times are detected on the time grid with
no bridge correction, same budget.
"""

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .control import ControlProblem, _ThresholdPolicy
from .errors import DomainError, InvalidParameterError, PolicyError
from .params import DiffusionParams, _check_type, _count, _real, _reals

# shifts [0,1) uniforms strictly inside (0,1) so the inverse CDF stays finite
_U_SHIFT = 2.0 ** -54
# paths evolved together in a terminal ensemble: enough to amortize numpy
# dispatch, few enough that a sub-chunk of increments stays in cache
_BLOCK_PATHS = 2048
# bytes of noise one worker holds at once, counting every per-normal array of
# a chunk: the normal itself, which becomes an increment in place, and a
# hitting chunk's crossing flag. Memory grows with threads, not with n_paths;
# it bounds memory, not results.
_NOISE_BUDGET = 32 << 20
_NORMAL_BYTES = 8
_HIT_NORMAL_BYTES = 9
# doubles in a block's buffer for the second increment term a fill makes (the
# first replaces the normals in place): 32 columns of a 2048-path block, made
# and read while both sit in a 2 MB L2 cache
_SUB_DOUBLES = 65536
# horizon / dt may not exceed this many Euler steps per path; criterion 8 takes
# 1e5, and without a cap a subnormal dt would ask for 1e300 steps
_MAX_STEPS = 1e9
# the most float64 values one array can hold; numpy refuses more with a bare ValueError
_MAX_VALUES = sys.maxsize // 8

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


def _norm_ppf(u):
    """Inverse standard-normal CDF (AS241), vectorized, u strictly in (0,1).

    Evaluates a C-ordered copy of u one slab at a time into a new array of u's shape.
    """
    u = np.asarray(u, dtype=float, order="C")
    out = np.empty(u.shape)
    src, res = u.reshape(-1), out.reshape(-1)
    n = min(_PPF_SLAB, src.size)
    work = (np.empty((4, n)), np.empty(n, dtype=bool))
    for i in range(0, src.size, _PPF_SLAB):
        _ppf_slab(src[i:i + _PPF_SLAB], res[i:i + _PPF_SLAB], work)
    return out


def _path_generator(seed, index):
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _draw_block_normals(gen, paths, col0, n_cols):
    """Normals for columns col0 .. col0 + n_cols - 1 of each path's stream,
    step-major: row k holds column col0 + k of every path in `paths`.

    gen comes from _path_generator(seed, ...) and is re-keyed to (seed, i)
    for each path i from a state of plain Python ints. Philox emits four
    64-bit words per counter value and Generator.random takes one word per
    double, so column col0 starts col0 % 4 words into the block of counter
    col0 // 4 + 1: the counter is set to col0 // 4 with an empty buffer and
    col0 % 4 words are discarded. Each cache-sized slab of paths is drawn
    path-major, and one _norm_ppf call writes its normals into its columns.
    """
    bitgen = gen.bit_generator
    key = [int(bitgen.state["state"]["key"][0]), 0]
    state = {"bit_generator": "Philox", "state": {"counter": [col0 // 4, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
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
        out[:, j:j + per] = _norm_ppf(rows).T
    return out


def _step_layout(horizon, dt):
    """Full steps of size dt plus an optional shorter closing step."""
    n_full = int(math.floor(horizon / dt + 1e-9))
    rem = horizon - n_full * dt
    if rem <= 1e-12 * max(1.0, abs(horizon)):
        rem = 0.0
    return n_full, rem


def _check_run(x0, horizon, dt, n_paths, seed):
    """Validate the fields every simulation request shares, returned as floats and ints."""
    x0 = _real(x0, "x0", InvalidParameterError)
    horizon = _real(horizon, "horizon", InvalidParameterError, positive=True)
    dt = _real(dt, "dt", InvalidParameterError, positive=True)
    if dt > horizon:
        raise InvalidParameterError(
            f"dt must not exceed horizon, got dt={dt!r} > T={horizon!r}")
    if horizon > _MAX_STEPS * dt:
        raise InvalidParameterError(
            f"horizon / dt must not exceed {_MAX_STEPS:.0e} steps per path, got "
            f"T={horizon!r}, dt={dt!r}")
    return (x0, horizon, dt, _count(n_paths, "n_paths", hi=_MAX_VALUES),
            _count(seed, "seed", 0, 2 ** 64 - 1))


def _store_run(obj):
    """Check the run fields of a frozen SimConfig or PathEnsemble, storing their floats and ints."""
    names = ("x0", "horizon", "dt", "n_paths", "seed")
    for name, value in zip(names, _check_run(*(getattr(obj, name) for name in names))):
        object.__setattr__(obj, name, value)


def _check_threads(threads):
    """The worker count to use: threads, at most one per CPU."""
    return min(_count(threads, "threads"), os.cpu_count() or 1)


@dataclass(frozen=True)
class SimConfig:
    """Plain (uncontrolled) simulation request; horizon / dt is at most 1e9 steps.

    It runs in blocks of at most 2048 paths, and each worker thread holds at
    most 32 MiB of noise at once, however large n_paths is.
    """

    params: DiffusionParams
    x0: float
    horizon: float
    dt: float
    n_paths: int
    seed: int

    def __post_init__(self):
        _check_type(self.params, DiffusionParams, "params")
        # every Euler step adds a multiple of mu1 - mu2; inf there makes NaN paths
        if not math.isfinite(self.params.mu1 - self.params.mu2):
            raise InvalidParameterError(
                f"mu1 - mu2 must be finite, got mu1={self.params.mu1!r}, mu2={self.params.mu2!r}")
        _store_run(self)


def _moments(values):
    n = len(values)
    se = values.std(ddof=1) / math.sqrt(n) if n > 1 else 0.0
    return float(values.mean()), float(se)


def _mean_se(values):
    """(sample mean, standard error) of one value per path; DomainError where
    either leaves the double range."""
    with np.errstate(over="ignore", invalid="ignore"):
        pair = _moments(values)
    if not all(map(math.isfinite, pair)):
        # a sum or a square left the double range: take what did again on the
        # values scaled by a power of two, and scale it back
        e = math.frexp(float(np.max(np.abs(values))))[1]
        try:
            pair = tuple(v if math.isfinite(v) else math.ldexp(w, e)
                         for v, w in zip(pair, _moments(np.ldexp(values, -e))))
        except OverflowError:
            raise DomainError("the sample mean or its standard error leaves the "
                              "double range") from None
    return pair


@dataclass(frozen=True)
class PathEnsemble:
    """Terminal states of a simulated ensemble plus basic estimators; the run
    fields are checked as SimConfig checks them."""

    terminal_values: np.ndarray
    n_paths: int
    seed: int
    dt: float
    x0: float
    horizon: float

    def __post_init__(self):
        object.__setattr__(self, "terminal_values", _reals(
            self.terminal_values, "terminal_values", error=InvalidParameterError))
        _store_run(self)
        if len(self.terminal_values) != self.n_paths:
            raise InvalidParameterError("terminal_values length must equal n_paths")

    def mean(self):
        """(sample mean, standard error)."""
        return _mean_se(self.terminal_values)

    def survival_frequency(self, level):
        """(frequency of terminal value >= level, standard error)."""
        level = _real(level, "level")
        return _mean_se((self.terminal_values >= level).astype(float))

    def histogram(self, n_bins, lo, hi):
        """Per-bin occupation frequencies with binomial standard errors.

        Returns (edges, frequencies, standard_errors); frequencies are
        probabilities of landing in each bin, not densities.
        """
        n_bins = _count(n_bins, "n_bins", hi=_MAX_VALUES - 1)  # n_bins + 1 edges
        lo, hi = _real(lo, "lo"), _real(hi, "hi")
        if not lo < hi:
            raise DomainError(f"histogram range needs lo < hi, got ({lo!r}, {hi!r})")
        # numpy warns on a width past the double range, and refuses its own edges
        # unless they increase strictly: both are checked here first
        if not (math.isfinite(hi - lo)
                and np.all(np.diff(np.linspace(lo, hi, n_bins + 1)) > 0.0)):
            raise DomainError(f"histogram range ({lo!r}, {hi!r}) has no {n_bins} bins "
                              "of finite, positive width")
        counts, edges = np.histogram(self.terminal_values, bins=n_bins, range=(lo, hi))
        freq = counts / self.n_paths
        se = np.sqrt(freq * (1.0 - freq) / self.n_paths)
        return edges, freq, se


def _block_size(n_paths, threads):
    per = _BLOCK_PATHS
    if threads > 1:
        per = min(per, max(64, -(-n_paths // threads)))
    return min(n_paths, per)


def _budget_columns(paths, per_normal):
    """Noise columns of `paths` paths the budget holds, at least one."""
    return max(1, _NOISE_BUDGET // (paths * per_normal))


def _chunk_steps(block, left):
    """Columns in the next noise chunk of a block when `left` columns remain.

    The fewest chunks the budget allows, of even width: a short last chunk
    would pay a whole re-key pass over the block's paths for a few columns.
    """
    chunks = -(-left // _budget_columns(block, _NORMAL_BYTES))
    return -(-left // chunks)


def _increment_rows(z, buf, fill):
    """(on, off) rows for the steps of noise chunk z, made one sub-chunk of rows
    at a time: fill(rows, on) turns rows of z into one increment term in place
    and writes another into `on`, a view of buf."""
    sub = buf.size // z.shape[1]
    for s in range(0, len(z), sub):
        off = z[s:s + sub]
        on = buf[:off.size].reshape(off.shape)
        fill(off, on)
        yield from zip(on, off)


def _terminal_block(seed, idx0, count, x0, horizon, dt, step_factory):
    """Evolve one path block to the horizon, regime frozen per step.

    step_factory(count, dt_step) gives (fill, step) for steps of that size on
    `count` paths, with work buffers of their own, so blocks running on
    different threads never share state: fill as in _increment_rows, and
    step(x, t, on, off) advancing x from time t with one row of each. Noise
    is drawn in chunks of columns; each path consumes its own stream
    sequentially, so the chunking leaves the results untouched.
    """
    gen = _path_generator(seed, idx0)
    paths = range(idx0, idx0 + count)
    buf = np.empty(max(_SUB_DOUBLES, count))
    n_full, rem = _step_layout(horizon, dt)
    x = np.full(count, x0)
    fill, step = step_factory(count, dt)
    done = 0
    while done < n_full:
        m = _chunk_steps(count, n_full - done)
        _terminal_steps(x, _draw_block_normals(gen, paths, done, m), buf, fill, step,
                        done, dt)
        done += m
    if rem > 0.0:
        _terminal_steps(x, _draw_block_normals(gen, paths, n_full, 1), buf,
                        *step_factory(count, rem), n_full, dt)
    return x


def _terminal_steps(x, z, buf, fill, step, k0, dt):
    """Step x through noise chunk z, whose row k is step k0 + k at time (k0 + k) dt;
    the chunk is freed on return, before the next one is drawn."""
    for k, (on, off) in enumerate(_increment_rows(z, buf, fill), k0):
        step(x, k * dt, on, off)


def _plain_step(params):
    """Step factory for the uncontrolled process.

    The update x += (mu2 + dmu b) dt + (s2 + ds b) sq z with b = 1{x <= a}
    is regrouped as x += ((dmu dt + ds sq z) b + s2 sq z) + mu2 dt. The two
    noise terms are made ahead of the steps, and a step multiplies by b as
    a 0/1 double: no select, whose cost grows where b is unpredictable.
    """
    mu2, s2 = params.mu2, params.sigma2
    dmu, ds = params.mu1 - params.mu2, params.sigma1 - params.sigma2
    a = params.a

    def steps_for(count, dt_step):
        w = np.empty(count)
        sq = math.sqrt(dt_step)
        c1, d1, c2, d2 = ds * sq, dmu * dt_step, s2 * sq, mu2 * dt_step

        def fill(z, on):
            np.multiply(z, c1, out=on)
            on += d1
            z *= c2

        def step(x, t, on, off):
            np.less_equal(x, a, out=w)
            np.multiply(w, on, out=w)
            np.add(w, off, out=w)
            np.add(w, d2, out=w)
            x += w
        return fill, step
    return steps_for


def _two_valued_fill(on_pair, off_pair):
    """Fill for steps x += d + v z with (d, v) = on_pair where a path takes the
    on-side increment, else off_pair: within one step the drift and
    volatility terms take two values each, so they are scalars, and each
    increment comes from the same product and sum as the per-path arithmetic
    it replaces."""
    (d_on, v_on), (d_off, v_off) = on_pair, off_pair

    def fill(z, on):
        np.multiply(z, v_on, out=on)
        on += d_on
        z *= v_off
        z += d_off
    return fill


def _take_off(x, t, on, off):
    """Step of a policy whose two increments agree: no split to evaluate."""
    x += off


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
    out = _run_blocks(n_paths, threads, _block_size(n_paths, threads),
                      lambda i0, count: _terminal_block(seed, i0, count, x0, horizon, dt,
                                                        step_factory))
    if not np.isfinite(out).all():
        raise DomainError("a simulated path left the double range: non-finite terminal value")
    return out


def simulate_paths(config, threads=1):
    """Simulate the uncontrolled threshold diffusion; returns a PathEnsemble.

    Deterministic given config.seed: same seed, same ensemble, independent
    of block or thread count.
    """
    _check_type(config, SimConfig, "config")
    threads = _check_threads(threads)
    out = _terminal_values(config.seed, config.x0, config.horizon, config.dt,
                           config.n_paths, _plain_step(config.params), threads)
    return PathEnsemble(out, config.n_paths, config.seed, config.dt,
                        config.x0, config.horizon)


def _policy_pair(problem, vol, dt_step):
    """(drift dt, vol sqrt(dt)) of one admissible volatility, drift paired with it."""
    drift = problem.mu_bar if vol == problem.sigma_bar else problem.mu_low
    return drift * dt_step, vol * math.sqrt(dt_step)


def _threshold_policy_step(problem, policy):
    """Step factory for a _ThresholdPolicy whose two volatilities the problem
    admits: policy.level(t) splits the paths, with no call to the policy itself."""
    def steps_for(count, dt_step):
        mask = np.empty(count, dtype=bool)

        def step(x, t, on, off):
            x += np.where(np.less_equal(x, policy.level(t), out=mask), on, off)

        on_pair = _policy_pair(problem, policy.at_or_below, dt_step)
        off_pair = _policy_pair(problem, policy.above, dt_step)
        return (_two_valued_fill(on_pair, off_pair),
                step if on_pair != off_pair else _take_off)
    return steps_for


def _policy_step(problem, policy):
    """Step factory calling policy(states, t) every step and checking its answer;
    the paths it gives sigma_bar take the on-side increment."""
    sbar, slow = problem.sigma_bar, problem.sigma_low

    def step(x, t, on, off):
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
        high = vol == sbar
        bad = ~(high | (vol == slow))
        if bad.any():
            raise PolicyError(
                f"policy returned volatility {vol[bad][0]!r} at t={t!r}; "
                f"admissible values are {slow!r} and {sbar!r}")
        x += np.where(high, on, off)

    def steps_for(count, dt_step):
        return (_two_valued_fill(_policy_pair(problem, sbar, dt_step),
                                 _policy_pair(problem, slow, dt_step)), step)
    return steps_for


def simulate_policy(problem, policy, dt, n_paths, seed, threads=1):
    """Simulate the controlled state equation under a volatility policy.

    policy(states, t) must return, for each state, one of the problem's two
    admissible volatilities (sigma_low or sigma_bar, exact values); the
    paired drift is chosen automatically. A non-admissible return, or one
    not shaped like the states, raises PolicyError at its first occurrence.
    The library's threshold policies are stepped without calling them, with
    the same arithmetic, when the problem admits both of their volatilities.
    """
    _check_type(problem, ControlProblem, "problem")
    if not callable(policy):
        raise PolicyError(f"policy must be callable as policy(states, t), got {policy!r}")
    _, _, dt, n_paths, seed = _check_run(problem.x0, problem.T, dt, n_paths, seed)
    threads = _check_threads(threads)
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
    _check_type(config, SimConfig, "config")
    threads = _check_threads(threads)
    q, level = _real(q, "q", positive=True), _real(level, "level")
    if level == config.x0:
        return 1.0, 0.0
    sign = 1.0 if config.x0 > level else -1.0
    n_full, rem = _step_layout(config.horizon, config.dt)
    # one block per thread: a step costs the same few numpy calls however
    # few paths are alive, so fewer blocks pay that overhead fewer times
    out = _run_blocks(config.n_paths, threads, -(-config.n_paths // threads),
                      lambda i0, count: _hitting_block(config, level, q, sign, i0, count,
                                                       n_full, rem))
    return _mean_se(out)


# noise columns of the first hitting chunk; later chunks double up to the cap,
# so paths that hit early stop drawing normals early
_HIT_CHUNK_FIRST = 64
_HIT_CHUNK_MAX = 1024


def _hitting_block(config, level, q, sign, i0, count, n_full, rem):
    """First-crossing contributions for one path block, with compaction of
    finished paths between noise chunks.

    A path crosses when sign (x - level) <= 0, i.e. x <= level for sign 1
    and x >= level for sign -1. A chunk of noise holds at most the budget's
    bytes with its crossing flags, or one column. It is turned into the two
    increments d + v z a step can take, below a and above it, one sub-chunk
    at a time, so a step is a regime test, a select, an add and a crossing
    test recorded per path. Crossed paths keep stepping until the chunk
    ends; the first recorded crossing of each path gives its hitting step.
    """
    params = config.params
    mu2, s2 = params.mu2, params.sigma2
    dmu, ds = params.mu1 - params.mu2, params.sigma1 - params.sigma2
    a = params.a

    def fill_for(dt_step):
        # the values of (mu2 + dmu b) dt_step and (s2 + ds b) sqrt(dt_step), b in {1, 0}
        sq = math.sqrt(dt_step)
        return _two_valued_fill(*(((mu2 + dmu * b) * dt_step, (s2 + ds * b) * sq)
                                  for b in (1.0, 0.0)))

    crossed = np.less_equal if sign > 0 else np.greater_equal
    dt = config.dt
    fill = fill_for(dt)
    buf = np.empty(max(_SUB_DOUBLES, count))
    gen = _path_generator(config.seed, i0)
    x = np.full(count, config.x0)
    alive = np.arange(count)
    contrib = np.zeros(count)
    chunk = _HIT_CHUNK_FIRST
    done = 0
    while alive.size and done < n_full:
        m = min(chunk, n_full - done, _budget_columns(alive.size, _HIT_NORMAL_BYTES))
        record = _hitting_steps(x, _draw_block_normals(gen, (i0 + alive).tolist(), done, m),
                                buf, fill, a, crossed, level)
        first = record.argmax(axis=0)
        dead = record[first, np.arange(alive.size)]
        if dead.any():
            contrib[alive[dead]] = np.exp(-q * dt * (done + first[dead] + 1))
            keep = ~dead
            x = x[keep]
            alive = alive[keep]
        # free this chunk's flags before drawing the next, or both are held at once
        del record
        done += m
        chunk = min(2 * chunk, _HIT_CHUNK_MAX)
    if alive.size and rem > 0.0:
        hit = _hitting_steps(x, _draw_block_normals(gen, (i0 + alive).tolist(), n_full, 1),
                             buf, fill_for(rem), a, crossed, level)[0]
        if hit.any():
            contrib[alive[hit]] = math.exp(-q * config.horizon)
    return contrib


def _hitting_steps(x, z, buf, fill, a, crossed, level):
    """Step x through noise chunk z; returns the crossing record, row k after step k.
    The chunk itself is freed on return."""
    record = np.empty(z.shape, dtype=bool)
    for k, (on, off) in enumerate(_increment_rows(z, buf, fill)):
        x += np.where(x <= a, on, off)
        crossed(x, level, out=record[k])
    return record
