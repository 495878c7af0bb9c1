"""Path simulation: reproducibility, statistics, policy runs, hitting MC."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from threshold_diffusion import (ControlProblem, DiffusionParams, DomainError,
                                 InvalidParameterError, PathEnsemble, PolicyError, SimConfig,
                                 constant_bar_policy, constant_low_policy,
                                 empirical_hitting_transform, optimal_policy,
                                 reversed_threshold_policy, simulate_paths, simulate_policy)
from threshold_diffusion import simulate
from threshold_diffusion.simulate import (_U_SHIFT, _draw_block_normals, _norm_ppf,
                                          _path_generator)

TWO_REGIME = DiffusionParams(1.0, -1.0, 1.0, 2.0, 0.0)


@pytest.fixture
def eight_cpus(monkeypatch):
    """Worker counts are clamped to the CPU count; report 8 CPUs so that a test
    asking for three threads gets three-thread blocks on any host."""
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 8)


def test_inverse_normal_cdf_against_scipy():
    ndtri = pytest.importorskip("scipy.special").ndtri
    u = np.concatenate([
        np.linspace(1e-12, 1e-3, 500),
        np.linspace(1e-3, 1.0 - 1e-3, 2001),
        1.0 - np.linspace(1e-12, 1e-3, 500),
    ])
    got = _norm_ppf(u)
    want = ndtri(u)
    scale = np.maximum(1.0, np.abs(want))
    assert np.max(np.abs(got - want) / scale) <= 2e-15


def test_inverse_normal_cdf_shapes():
    u = np.array([[0.1, 0.5, 0.9], [0.25, 0.75, 0.999]])
    out = _norm_ppf(u)
    assert out.shape == u.shape
    assert out[0, 1] == 0.0
    flat = _norm_ppf(u.reshape(-1))
    assert np.array_equal(out.reshape(-1), flat)


@pytest.mark.usefixtures("eight_cpus")
def test_determinism_and_thread_invariance():
    # horizon chosen to leave a partial closing step
    cfg = SimConfig(TWO_REGIME, 0.1, 0.7503, 1e-2, 3000, 42)
    a = simulate_paths(cfg)
    b = simulate_paths(cfg)
    c = simulate_paths(cfg, threads=3)
    assert np.array_equal(a.terminal_values, b.terminal_values)
    assert np.array_equal(a.terminal_values, c.terminal_values)


def test_seed_changes_output():
    base = dict(params=TWO_REGIME, x0=0.0, horizon=0.5, dt=1e-2, n_paths=200)
    a = simulate_paths(SimConfig(seed=1, **base))
    b = simulate_paths(SimConfig(seed=2, **base))
    assert not np.array_equal(a.terminal_values, b.terminal_values)


@pytest.mark.parametrize("kwargs", [
    dict(horizon=0.0), dict(horizon=float("nan")),
    dict(dt=0.0), dict(dt=2.0),
    dict(n_paths=0),
    dict(seed=-1), dict(seed=2 ** 64),
    dict(x0=float("inf")),
    dict(n_paths=10.5), dict(n_paths=10.0), dict(n_paths=True),
    dict(seed=True),
    dict(x0=None), dict(horizon="1"), dict(dt=None),
])
def test_config_validation(kwargs):
    base = dict(params=TWO_REGIME, x0=0.0, horizon=1.0, dt=1e-2, n_paths=10, seed=0)
    base.update(kwargs)
    with pytest.raises(InvalidParameterError):
        SimConfig(**base)


def test_single_regime_moments():
    # Euler is exact for constant coefficients, so only sampling error remains
    mu, sigma, T = 0.3, 1.3, 0.7
    p = DiffusionParams(mu, mu, sigma, sigma, 0.0)
    ens = simulate_paths(SimConfig(p, 0.2, T, 1e-2, 40_000, 7))
    mean, se = ens.mean()
    assert abs(mean - (0.2 + mu * T)) <= 4.0 * se
    std = ens.terminal_values.std(ddof=1)
    assert abs(std - sigma * math.sqrt(T)) <= 0.02


@pytest.mark.slow
def test_survival_probabilities_match_closed_forms():
    # symmetric case: driftless unit-volatility paths end above 0 half the time
    bm = DiffusionParams(0.0, 0.0, 1.0, 1.0, 0.0)
    ens = simulate_paths(SimConfig(bm, 0.0, 1.0, 1e-3, 100_000, 2024))
    pr, se = ens.survival_frequency(0.0)
    assert abs(pr - 0.5) <= 3.0 * se

    # two-volatility case: time above the level has mass sigma1/(sigma1+sigma2)
    osc = DiffusionParams(0.0, 0.0, 1.0, 2.0, 0.0)
    ens = simulate_paths(SimConfig(osc, 0.0, 1.0, 1e-3, 100_000, 2025))
    pr, se = ens.survival_frequency(0.0)
    assert abs(pr - 1.0 / 3.0) <= 3.0 * se


def test_survival_frequency_semantics():
    ens = PathEnsemble(np.array([-1.0, 0.0, 0.5, 2.0]), 4, 0, 0.1, 0.0, 1.0)
    pr, se = ens.survival_frequency(0.0)
    assert pr == 0.75
    assert se > 0.0


def test_histogram_totals_and_edges():
    ens = PathEnsemble(np.array([-0.5, 0.1, 0.2, 0.9, 5.0]), 5, 0, 0.1, 0.0, 1.0)
    edges, freq, se = ens.histogram(4, -1.0, 1.0)
    assert np.allclose(edges, [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert freq.sum() == pytest.approx(0.8)  # the 5.0 value falls outside
    assert np.all(se >= 0.0)


def test_hitting_transform_trivial_start():
    cfg = SimConfig(TWO_REGIME, 0.0, 1.0, 1e-2, 10, 0)
    assert empirical_hitting_transform(cfg, 0.0, 1.0) == (1.0, 0.0)


def test_hitting_transform_rejects_bad_rate():
    cfg = SimConfig(TWO_REGIME, 0.5, 1.0, 1e-2, 10, 0)
    with pytest.raises(DomainError):
        empirical_hitting_transform(cfg, 0.0, 0.0)


def test_hitting_transform_single_regime():
    # driftless unit volatility from 0.5 down to 0: E e^{-q tau} = e^{-0.5 sqrt(2q)}
    q, dt, horizon, sigma = 0.5, 1e-3, 8.0, 1.0
    p = DiffusionParams(0.0, 0.0, sigma, sigma, 0.0)
    cfg = SimConfig(p, 0.5, horizon, dt, 20_000, 11)
    est, se = empirical_hitting_transform(cfg, 0.0, q)
    want = math.exp(-0.5 * math.sqrt(2.0 * q))
    # grid detection sees the barrier shifted down by ~0.5826 sigma sqrt(dt)
    shift = 0.5826 * sigma * math.sqrt(dt)
    bias = abs(math.exp(-(0.5 + shift) * math.sqrt(2.0 * q)) - want)
    budget = 3.0 * se + 2.0 * bias + math.exp(-q * horizon)
    assert abs(est - want) <= budget


def test_policy_must_return_offered_volatilities():
    prob = ControlProblem(0.0, 2.0, 0.0, 1.0, 0.0, 1.0, x0=0.0)
    with pytest.raises(PolicyError):
        simulate_policy(prob, lambda states, t: np.full_like(states, 3.0),
                        1e-2, 50, 0)


def test_constant_low_policy_equals_plain_run():
    # same seeds, same arithmetic order: results must agree bit for bit
    prob = ControlProblem(0.7, 2.0, -0.4, 1.0, 0.0, 1.0, x0=0.3)
    pol = simulate_policy(prob, lambda states, t: np.full_like(states, 1.0),
                          1e-2, 2000, 99)
    plain = simulate_paths(SimConfig(DiffusionParams(-0.4, -0.4, 1.0, 1.0, 0.0),
                                     0.3, 1.0, 1e-2, 2000, 99))
    assert np.array_equal(pol.terminal_values, plain.terminal_values)


def test_step_count_past_the_cap_is_refused():
    # only the refusal is exercised: the first config would ask for 1e300 steps
    with pytest.raises(InvalidParameterError, match="steps"):
        SimConfig(TWO_REGIME, 0.0, 1.0, 1e-300, 10, 1)
    with pytest.raises(InvalidParameterError, match="steps"):
        SimConfig(TWO_REGIME, 0.0, 10.0, 9.99e-9, 10, 1)
    prob = ControlProblem(0.0, 2.0, 0.0, 1.0, 0.0, 1.0, x0=0.0)
    with pytest.raises(InvalidParameterError, match="steps"):
        simulate_policy(prob, optimal_policy(prob), 1e-300, 10, 0)
    # criterion 8's 1e5 steps and the cap itself stay legal
    SimConfig(TWO_REGIME, 0.5, 10.0, 1e-4, 100_000, 80808)
    SimConfig(TWO_REGIME, 0.0, 1.0, 1e-9, 10, 1)


def test_policy_run_rejects_fractional_path_count():
    prob = ControlProblem(0.0, 2.0, 0.0, 1.0, 0.0, 1.0, x0=0.0)
    with pytest.raises(InvalidParameterError, match="n_paths"):
        simulate_policy(prob, lambda states, t: np.full_like(states, 1.0), 1e-2, 10.5, 0)


def _digest(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


# SHA-256 of ensembles taken before the engine's streams, normals and steps
# were restructured; any change to the bit stream shows here.
PIN_PROBLEM = ControlProblem(0.5, 2.0, -0.3, 1.0, 0.2, 0.5037, x0=0.1)
POLICIES = (optimal_policy, constant_bar_policy, constant_low_policy, reversed_threshold_policy)


@pytest.mark.usefixtures("eight_cpus")
@pytest.mark.parametrize("threads", [1, 3])
def test_plain_ensemble_digest_pin(threads):
    # 1000 full steps and a 3e-4 closing step; two blocks at one thread
    cfg = SimConfig(TWO_REGIME, 0.1, 1.0003, 1e-3, 5000, 42)
    assert _digest(simulate_paths(cfg, threads=threads).terminal_values) == (
        "a012348716930dd94e589be42893879ed1e247ad67ca070d05763fbcf69b053d")


@pytest.mark.parametrize("factory, digest", [
    (optimal_policy, "5ee71376e733f8003cfad1b6e7973af6f3df2b46db00cbab6c9a5a7b53f1c7c0"),
    (constant_bar_policy, "bb7c2e49558cf0793cc94724206ead0b4513a8c3c69cec0ba34945fadabefd8a"),
    (constant_low_policy, "c6b72b999fa12d4c447c1803b777415cac9df3ad09d8a9ad6886eddb78e3cfbf"),
    (reversed_threshold_policy,
     "56ec0673c847adaa7979960d384b1dd08a4e396d3017598dd42c95e901d3b003"),
])
def test_policy_ensemble_digest_pin(factory, digest):
    ens = simulate_policy(PIN_PROBLEM, factory(PIN_PROBLEM), 1e-3, 4500, 7)
    assert _digest(ens.terminal_values) == digest


@pytest.mark.usefixtures("eight_cpus")
@pytest.mark.parametrize("threads", [1, 3])
def test_hitting_transform_digest_pin(threads):
    # 303 full steps and a 7e-4 closing step
    cfg = SimConfig(TWO_REGIME, 0.5, 0.3037, 1e-3, 5000, 11)
    est = empirical_hitting_transform(cfg, 0.0, 0.7, threads=threads)
    assert _digest(np.array(est)) == (
        "5e5744ca8936e2fe67620fded0df7d7629087b363ae918df6c71ae3f4d7e8b66")


# Pinned at the engine that still ran 4096-path blocks and parked crossed paths,
# before the hitting engine moved to one block per thread. The level lies on the
# far side of a, so each path changes regime before it can hit; 5000 paths leave
# a short last block at three threads.
@pytest.mark.usefixtures("eight_cpus")
@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("x0, level, digest", [
    (0.5, -0.3, "3fba23f7067f523e1549cd6f790e9c10fd9cb2974bbb7cf9ffeb9ca166c4eb79"),
    (-0.5, 0.3, "15bea82afa15d90c562b9cbb1dce9f327acc7e5a3f8963955a251d6d1edca95a"),
], ids=["down-across-a", "up-across-a"])
def test_hitting_transform_across_the_threshold_digest_pin(threads, x0, level, digest):
    # 1003 full steps and a 7e-4 closing step
    cfg = SimConfig(TWO_REGIME, x0, 1.0037, 1e-3, 5000, 13)
    est = empirical_hitting_transform(cfg, level, 0.7, threads=threads)
    assert _digest(np.array(est)) == digest


def _recording_draws(monkeypatch):
    """Record (paths, columns) of every noise chunk drawn from here on."""
    drawn = []

    def draw(gen, paths, col0, n_cols):
        drawn.append((len(paths), n_cols))
        return _draw_block_normals(gen, paths, col0, n_cols)
    monkeypatch.setattr(simulate, "_draw_block_normals", draw)
    return drawn


def test_hitting_noise_chunks_stay_within_the_budget(monkeypatch):
    # one block of 20 000 paths at threads=1; doubling alone would ask for
    # 256 columns of 20 000 paths while most of them are still alive, where
    # the budget holds 186 columns of normals and crossing flags
    drawn = _recording_draws(monkeypatch)
    cfg = SimConfig(TWO_REGIME, 0.5, 2.0003, 1e-3, 20_000, 5)
    empirical_hitting_transform(cfg, -0.3, 0.7)
    assert drawn[0] == (20_000, simulate._HIT_CHUNK_FIRST)
    assert [n_cols for _, n_cols in drawn[1:3]] == [
        128, simulate._budget_columns(drawn[2][0], simulate._HIT_NORMAL_BYTES)]
    assert drawn[2][1] < 256
    assert all(paths * n_cols * simulate._HIT_NORMAL_BYTES <= simulate._NOISE_BUDGET
               for paths, n_cols in drawn)


def test_every_noise_chunk_stays_within_the_byte_budget(monkeypatch):
    # a budget of 12 columns of a 2048-path block: 3000 paths make a full block
    # and a short one, so every kind of run draws many chunks
    monkeypatch.setattr(simulate, "_NOISE_BUDGET", 12 * 2048 * simulate._NORMAL_BYTES)
    problem = ControlProblem(0.5, 2.0, -0.3, 1.0, 0.2, 0.1003, x0=0.1)
    policy = optimal_policy(problem)
    runs = [
        (lambda: simulate_paths(SimConfig(TWO_REGIME, 0.1, 0.1003, 1e-3, 3000, 1)),
         simulate._NORMAL_BYTES),
        (lambda: simulate_policy(problem, policy, 1e-3, 3000, 2), simulate._NORMAL_BYTES),
        (lambda: simulate_policy(problem, lambda s, t: policy(s, t), 1e-3, 3000, 3),
         simulate._NORMAL_BYTES),
        (lambda: empirical_hitting_transform(
            SimConfig(TWO_REGIME, 0.5, 0.1003, 1e-3, 3000, 4), 0.3, 0.7),
         simulate._HIT_NORMAL_BYTES),
    ]
    for run, per_normal in runs:
        drawn = _recording_draws(monkeypatch)
        run()
        assert len(drawn) >= 5
        assert all(paths * n_cols * per_normal <= simulate._NOISE_BUDGET
                   for paths, n_cols in drawn)


@pytest.mark.parametrize("threads", [1, 2])
def test_small_blocks_budget_and_sub_chunks_leave_ensembles_bit_identical(monkeypatch,
                                                                          threads):
    # 50 full steps and a 1-column closing step of 3e-3
    cfg = SimConfig(TWO_REGIME, 0.1, 0.503, 1e-2, 700, 17)
    hit_cfg = SimConfig(TWO_REGIME, 0.5, 0.503, 1e-2, 700, 18)
    problem = ControlProblem(0.5, 2.0, -0.3, 1.0, 0.2, 0.503, x0=0.1)
    policy = reversed_threshold_policy(problem)
    runs = [
        lambda: simulate_paths(cfg, threads=threads).terminal_values,
        lambda: simulate_policy(problem, policy, 1e-2, 700, 19, threads=threads).terminal_values,
        lambda: simulate_policy(problem, lambda s, t: policy(s, t), 1e-2, 700, 19,
                                threads=threads).terminal_values,
        lambda: np.array(empirical_hitting_transform(hit_cfg, -0.3, 0.7, threads=threads)),
    ]
    want = [run() for run in runs]
    # 256-path blocks whose budget holds 16 columns: 50 steps make chunks of 13 and
    # 12 columns, read in sub-chunks of 5 (6 in the 188-path last block)
    monkeypatch.setattr(simulate, "_BLOCK_PATHS", 256)
    monkeypatch.setattr(simulate, "_NOISE_BUDGET", 16 * 256 * simulate._NORMAL_BYTES)
    monkeypatch.setattr(simulate, "_SUB_DOUBLES", 5 * 256)
    drawn = _recording_draws(monkeypatch)
    for run, values in zip(runs, want):
        assert np.array_equal(run(), values)
    widths = {n_cols for _, n_cols in drawn}
    assert {13, 12, 1} <= widths


@pytest.mark.parametrize("slab", [131072, 16])
@pytest.mark.parametrize("seed", [5, 2 ** 64 - 1])
@pytest.mark.parametrize("col0", [0, 1, 3, 4, 977])
def test_block_rekeying_resumes_each_path_stream(monkeypatch, slab, seed, col0):
    # slab 131072 draws all three paths in one uniform slab, slab 16 gives
    # each path its own
    monkeypatch.setattr(simulate, "_PPF_SLAB", slab)
    paths = [0, 7, 4100]
    # two draws from one generator: the second must not depend on the state the
    # first left behind, since each call builds its re-key state afresh
    gen = _path_generator(seed, 0)
    z = np.vstack([_draw_block_normals(gen, paths, col0, 9),
                   _draw_block_normals(gen, paths, col0 + 9, 9)])
    assert z.shape == (18, len(paths))
    for j, i in enumerate(paths):
        fresh = np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
        u = fresh.random(col0 + 18)[col0:]
        assert np.array_equal(z[:, j], _norm_ppf(u + _U_SHIFT))


@pytest.mark.parametrize("n_steps, widths", [(1000, [500, 500]), (2000, [667, 667, 666])])
def test_noise_chunks_are_even_and_as_few_as_the_budget_allows(monkeypatch, n_steps, widths):
    # a budget of 976 columns of a 2048-path block: fixed 976-column chunks would
    # end in a chunk of 24 or 48 columns, a whole re-key pass over the block's
    # paths for a few columns; even chunks leave none that short
    monkeypatch.setattr(simulate, "_NOISE_BUDGET", 976 * 2048 * simulate._NORMAL_BYTES)
    drawn = _recording_draws(monkeypatch)
    simulate_paths(SimConfig(TWO_REGIME, 0.1, n_steps * 1e-3, 1e-3, 2048, 3))
    assert [n_cols for _, n_cols in drawn] == widths


@pytest.mark.parametrize("factory", POLICIES)
@pytest.mark.parametrize("owner", [
    PIN_PROBLEM,
    # same volatilities, another level and horizon: the policy's own line applies
    ControlProblem(0.1, 2.0, 0.4, 1.0, -0.3, 0.8, x0=0.0),
])
def test_threshold_policies_match_the_generic_path(factory, owner):
    policy = factory(owner)
    fast = simulate_policy(PIN_PROBLEM, policy, 1e-2, 700, 3)
    generic = simulate_policy(PIN_PROBLEM, lambda states, t: policy(states, t), 1e-2, 700, 3)
    assert np.array_equal(fast.terminal_values, generic.terminal_values)


@pytest.mark.parametrize("factory", POLICIES)
def test_threshold_policy_of_another_problem_is_checked(factory):
    other = ControlProblem(0.5, 3.0, -0.3, 1.5, 0.2, 0.5037, x0=0.1)
    with pytest.raises(PolicyError):
        simulate_policy(PIN_PROBLEM, factory(other), 1e-2, 50, 0)


_CFG = SimConfig(TWO_REGIME, 0.5, 0.1, 1e-2, 20, 0)
_ENS = PathEnsemble(np.array([-0.5, 0.1, 0.2, 0.9]), 4, 0, 0.1, 0.0, 1.0)
_POLICY = optimal_policy(PIN_PROBLEM)


@pytest.mark.parametrize("call, error", [
    (lambda: simulate_policy(PIN_PROBLEM, lambda s, t: np.full(3, 2.0), 1e-2, 20, 0),
     PolicyError),
    (lambda: simulate_policy(PIN_PROBLEM, lambda s, t: None, 1e-2, 20, 0), PolicyError),
    (lambda: simulate_policy(PIN_PROBLEM, lambda s, t: "high", 1e-2, 20, 0), PolicyError),
    (lambda: simulate_policy(PIN_PROBLEM, 2.0, 1e-2, 20, 0), PolicyError),
    (lambda: simulate_policy(None, _POLICY, 1e-2, 20, 0), InvalidParameterError),
    (lambda: SimConfig(None, 0.0, 1.0, 1e-2, 20, 0), InvalidParameterError),
    (lambda: simulate_paths(None), InvalidParameterError),
    (lambda: empirical_hitting_transform(None, 0.0, 1.0), InvalidParameterError),
    (lambda: simulate_paths(_CFG, threads="2"), InvalidParameterError),
    (lambda: simulate_paths(_CFG, threads=0), InvalidParameterError),
    (lambda: simulate_paths(_CFG, threads=2.5), InvalidParameterError),
    (lambda: simulate_paths(_CFG, threads=True), InvalidParameterError),
    (lambda: simulate_policy(PIN_PROBLEM, _POLICY, 1e-2, 20, 0, threads=0),
     InvalidParameterError),
    (lambda: empirical_hitting_transform(_CFG, 0.5, 1.0, threads=2.5), InvalidParameterError),
    (lambda: _ENS.survival_frequency(None), DomainError),
    (lambda: _ENS.survival_frequency(float("nan")), DomainError),
    (lambda: _ENS.histogram(0, -1.0, 1.0), InvalidParameterError),
    (lambda: _ENS.histogram(2.5, -1.0, 1.0), InvalidParameterError),
    (lambda: _ENS.histogram(4, 1.0, 1.0), DomainError),
    (lambda: _ENS.histogram(4, 1.0, -1.0), DomainError),
    (lambda: _ENS.histogram(4, None, 1.0), DomainError),
    # counts whose float64 arrays would pass sys.maxsize bytes, refused before any is made
    (lambda: _ENS.histogram(2 ** 62, 0.0, 1.0), InvalidParameterError),
    (lambda: simulate_paths(SimConfig(TWO_REGIME, 0.0, 1.0, 0.1, 2 ** 62, 7)),
     InvalidParameterError),
    (lambda: simulate_policy(PIN_PROBLEM, _POLICY, 1e-2, 2 ** 62, 0), InvalidParameterError),
    # ranges numpy cannot split into the bins, or whose width overflows
    (lambda: _ENS.histogram(2, 1.0, 1.0 + 2.2e-16), DomainError),
    (lambda: _ENS.histogram(3, 0.0, 5e-324), DomainError),
    (lambda: _ENS.histogram(3, -1e308, 1e308), DomainError),
], ids=["wrong-shape", "none-vols", "text-vols", "not-callable", "no-problem", "no-params",
        "paths-no-config", "hitting-no-config", "threads-str", "threads-0", "threads-float",
        "threads-bool", "policy-threads-0", "hitting-threads-float", "level-none",
        "level-nan", "bins-0", "bins-float", "empty-range", "reversed-range", "range-none",
        "bins-past-memory", "paths-past-memory", "policy-paths-past-memory",
        "bins-past-resolution", "subnormal-range", "width-overflows"])
def test_mc_entry_points_raise_library_errors(call, error):
    with pytest.raises(error):
        call()


def test_histogram_bins_are_numpys_own():
    for n_bins, lo, hi in ((4, -1.0, 1.0), (3, 1.0, 1.0 + 1e-15), (2, -1e307, 1e307)):
        edges, freq, _ = _ENS.histogram(n_bins, lo, hi)
        counts, want = np.histogram(_ENS.terminal_values, bins=n_bins, range=(lo, hi))
        assert np.array_equal(edges, want) and np.array_equal(freq, counts / _ENS.n_paths)


def test_mean_of_values_whose_sum_or_squares_overflow_is_finite():
    # the squares of the first pass 1e308, and the sum of the second does; the
    # standard error is sqrt(103 / 3) 1e159 and the mean keeps its first bits
    wide = PathEnsemble(np.array([1e160, -1e160, 3e159]), 3, 1, 0.1, 0.0, 1.0)
    assert wide.mean() == (1.0000000000000001e159, 5.859465277082316e159)
    assert PathEnsemble(np.array([1e308, 1e308]), 2, 1, 0.1, 0.0, 1.0).mean() == (1e308, 0.0)


def test_a_drift_gap_past_the_double_range_is_refused():
    # every step adds a multiple of mu1 - mu2, which is inf here: NaN paths that
    # never cross, and a hitting transform of 0.0 where the true value is e^-0.1
    with pytest.raises(InvalidParameterError, match="mu1 - mu2"):
        SimConfig(DiffusionParams(1e308, -1e308, 1.0, 1.0, 0.0), 0.5, 1.0, 0.1, 4, 0)
    near = SimConfig(DiffusionParams(1e300, -1e300, 1.0, 1.0, 0.0), 0.5, 1.0, 0.1, 4, 0)
    assert empirical_hitting_transform(near, 0.0, 1.0) == (math.exp(-0.1), 0.0)


def test_an_ensemble_that_overflows_is_refused():
    config = SimConfig(DiffusionParams(1e308, 1e308, 1.0, 1.0, 0.0), 0.0, 2.0, 1.0, 2, 1)
    with np.errstate(over="ignore"), pytest.raises(DomainError, match="non-finite"):
        simulate_paths(config)


@pytest.mark.parametrize("values, n_paths", [
    ([1.0, 2.0], 2), (None, 2), (np.zeros(0), 0), (np.zeros((2, 1)), 2),
    (np.array([0.0, math.nan]), 2), (np.array([0.0, math.inf]), 2), (np.zeros(3), 2),
    (np.array(["a", "b"]), 2),
], ids=["list", "None", "empty", "2-D", "nan", "inf", "length", "strings"])
def test_ensemble_fields_are_checked(values, n_paths):
    with pytest.raises(InvalidParameterError):
        PathEnsemble(values, n_paths, 0, 0.1, 0.0, 1.0)


@pytest.mark.parametrize("kwargs", [
    dict(seed=-1), dict(seed=2 ** 64), dict(dt=0.0), dict(dt=2.0), dict(horizon=math.nan),
    dict(x0=None), dict(x0=math.inf), dict(n_paths=4.0),
])
def test_ensemble_run_fields_are_checked_as_a_config_checks_them(kwargs):
    base = dict(terminal_values=np.zeros(4), n_paths=4, seed=0, dt=0.1, x0=0.0, horizon=1.0)
    base.update(kwargs)
    with pytest.raises(InvalidParameterError):
        PathEnsemble(**base)


def test_library_ensembles_keep_their_arrays_and_store_plain_numbers():
    ens = simulate_paths(SimConfig(TWO_REGIME, np.float32(0.5), 1, 0.25, np.int32(4),
                                   np.uint64(7)))
    again = PathEnsemble(ens.terminal_values, ens.n_paths, ens.seed, ens.dt, ens.x0,
                         ens.horizon)
    assert again.terminal_values is ens.terminal_values
    assert [type(v) for v in (ens.n_paths, ens.seed, ens.dt, ens.x0, ens.horizon)] == [
        int, int, float, float, float]
    ints = PathEnsemble(np.arange(3), np.int64(3), np.uint64(2), 0.1, 0, 1)
    assert ints.terminal_values.dtype == float and ints.mean() == (1.0, 1.0 / math.sqrt(3))


def test_worker_count_is_clamped_to_the_cpu_count(monkeypatch):
    pools = []

    class SerialPool:
        """Stands in for ThreadPoolExecutor: records its size and runs tasks in order."""

        def __init__(self, max_workers):
            self.max_workers, self.tasks = max_workers, 0
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            self.tasks += len(items)
            return map(fn, items)

    cfg = SimConfig(TWO_REGIME, 0.5, 0.1003, 1e-3, 5000, 4)

    def runs(threads):
        return (simulate_paths(cfg, threads=threads).terminal_values,
                np.array(empirical_hitting_transform(cfg, 0.3, 0.7, threads=threads)))

    want = runs(1)
    monkeypatch.setattr(simulate, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
    got = runs(100_000)
    # two workers: plain blocks of 2048 paths (3 of them), one hitting block per worker
    assert [(pool.max_workers, pool.tasks) for pool in pools] == [(2, 3), (2, 2)]
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: None)  # unknown: one worker
    serial = runs(100_000)
    assert len(pools) == 2
    for values in (got, serial):
        assert all(np.array_equal(g, w) for g, w in zip(values, want))


def _masked_as241(u):
    """The AS241 evaluation with boolean masks, as the engine computed it before
    the central rational went branch-free; kept here as the bit-level oracle."""
    def horner(coeffs, r):
        acc = np.full_like(r, coeffs[0])
        for c in coeffs[1:]:
            acc *= r
            acc += c
        return acc

    out = np.empty(u.shape)
    q = u - 0.5
    central = np.abs(q) <= 0.425
    qc = q[central]
    r = 0.180625 - qc * qc
    out[central] = qc * horner(simulate._PPND_A, r) / horner(simulate._PPND_B, r)
    tails = ~central
    ut = u[tails]
    r = np.sqrt(-np.log(np.minimum(ut, 1.0 - ut)))
    v = np.empty_like(r)
    near = r <= 5.0
    rn = r[near] - 1.6
    v[near] = horner(simulate._PPND_C, rn) / horner(simulate._PPND_D, rn)
    far = ~near
    rf = r[far] - 5.0
    v[far] = horner(simulate._PPND_E, rf) / horner(simulate._PPND_F, rf)
    out[tails] = np.where(ut < 0.5, -v, v)
    return out


def test_inverse_normal_cdf_is_bit_equal_to_the_masked_evaluation():
    edges = np.array([2.0 ** -54, 1e-300, 0.075, 0.925, 1.0 - 2.0 ** -53])
    r5 = math.exp(-25.0)  # the r = 5 switch between the two tail rationals
    at_r5 = np.array([r5, 1.0 - r5])
    near = np.concatenate([np.nextafter(at_r5, 0.0), at_r5, np.nextafter(at_r5, 1.0),
                           np.nextafter(edges[2:4], 0.0), np.nextafter(edges[2:4], 1.0)])
    # more than two slabs, the last one partial, with r > 5 values (edges holds
    # two) in three slabs, so the far rational is patched in by index per slab
    rand = np.random.default_rng(20240).random(2 * simulate._PPF_SLAB + 4099) + _U_SHIFT
    rand[[simulate._PPF_SLAB + 5, 2 * simulate._PPF_SLAB + 11, -3]] = [1e-12, 1e-200,
                                                                       1.0 - 1e-12]
    u = np.concatenate([edges, near, rand])
    # a transposed input, not C-ordered, is evaluated on a C-ordered copy
    n = 7 * (u.size // 7)
    step_major = u[:n].reshape(7, -1).copy().T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _norm_ppf(u)
        flipped = _norm_ppf(step_major)
    want = _masked_as241(u)
    assert np.array_equal(got, want)
    assert np.array_equal(flipped, want[:n].reshape(7, -1).T)
