"""The package's public surface."""

import dataclasses
import importlib
import importlib.util
import inspect
import math
import pathlib
import re
import types

import numpy as np
import pytest

import threshold_diffusion
import threshold_diffusion.cli  # noqa: F401  the bench calls lib.cli.main
from threshold_diffusion import simulate
from threshold_diffusion.exit import two_sided_exit_grid
from threshold_diffusion.potential import potential_grid


def test_all_lists_exactly_the_bound_public_names():
    bound = {name for name, value in vars(threshold_diffusion).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(threshold_diffusion.__all__) == len(set(threshold_diffusion.__all__))
    assert set(threshold_diffusion.__all__) == bound
    for name in threshold_diffusion.__all__:
        assert getattr(threshold_diffusion, name) is not None


_BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def test_every_library_name_the_bench_hooks_or_calls_exists():
    # this suite does not collect bench/, so without this check a name the bench
    # needs would go missing unnoticed until a traced or a timed bench run
    spec = importlib.util.spec_from_file_location("bench_tracing", _BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # read only: no hook is installed
    for hook in tracing.HOOKS:
        assert callable(getattr(importlib.import_module(hook.module), hook.attr, None)), hook
    called = set(re.findall(r"\blib\.([\w.]+)", (_BENCH / "workloads.py").read_text()))
    assert "make_params" in called
    for name in called:
        target = threshold_diffusion
        for part in name.split("."):
            assert hasattr(target, part), f"bench/workloads.py calls lib.{name}"
            target = getattr(target, part)
    # the tracer reads _hitting_block's count, n_full and rem by position, and counts
    # one output element of _draw_block_normals and of _norm_ppf per normal
    names = list(inspect.signature(simulate._hitting_block).parameters)
    assert names[5:8] == ["count", "n_full", "rem"]
    z = simulate._draw_block_normals(simulate._path_generator(3, 0), [0, 1, 2], 5, 7)
    assert z.size == 3 * 7
    assert simulate._norm_ppf(np.full((3, 7), 0.25)).size == 3 * 7


def test_make_params_is_the_parameter_class():
    assert threshold_diffusion.make_params is threshold_diffusion.DiffusionParams


_PARAMS = threshold_diffusion.make_params(1.0, -1.0, 1.0, 2.0, 0.0)
_PROBLEM = threshold_diffusion.ControlProblem(1.0, 2.0, -1.0, 1.0, 0.0, 1.0)
_CONFIG = threshold_diffusion.SimConfig(_PARAMS, 0.0, 1.0, 0.01, 4, 7)


@pytest.mark.parametrize("fn, args", [
    (threshold_diffusion.value_function, (_PROBLEM, None)),
    (threshold_diffusion.value_function, (_PROBLEM, math.nan)),
    (threshold_diffusion.stationary_density, (_PARAMS, None)),
    (threshold_diffusion.empirical_hitting_transform, (_CONFIG, None, 1.0)),
    (threshold_diffusion.empirical_hitting_transform, (_CONFIG, math.nan, 1.0)),
    (threshold_diffusion.empirical_hitting_transform, (_CONFIG, 0.5, None)),
    (threshold_diffusion.oscillating_bm_density, (1.0, 2.0, 0.0, "1", 0.0, 0.1)),
    (threshold_diffusion.oscillating_bm_density, (1.0, 2.0, 0.0, 1.0, math.nan, 0.1)),
    (threshold_diffusion.optimal_threshold, (_PROBLEM, None)),
    (threshold_diffusion.params.deltas, (_PARAMS, None)),
], ids=lambda v: getattr(v, "__name__", None))
def test_entry_points_refuse_non_numbers_and_nan(fn, args):
    with pytest.raises(threshold_diffusion.DomainError):
        fn(*args)


_DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("path", sorted(_DEMOS.glob("*.py")), ids=lambda p: p.stem)
def test_every_demo_imports_the_names_it_uses(path):
    # loaded under its own name, so the demo's main() does not run; a public
    # name it imports that is gone fails here, not on a reader's first run
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    assert callable(demo.main)


_ARG = object()  # marks the argument under test
_LIBRARY = object()  # stands for the row's library object of the wrong type
_QUERY = threshold_diffusion.DensityQuery(_PARAMS, 1.0, 0.1, 0.2)
# (entry point, its arguments with _ARG in the slot under test, a library object
# of the wrong type for that slot)
_TYPED = [
    (threshold_diffusion.DensityQuery, (_ARG, 1.0, 0.1, 0.2), _PROBLEM),
    (threshold_diffusion.PotentialQuery, (_ARG, 1.0, 0.1, 0.2), _PROBLEM),
    (threshold_diffusion.ExitQuery, (_ARG, 1.0, 0.0, -1.0, 1.0), _PROBLEM),
    (threshold_diffusion.transition_density, (_ARG,),
     threshold_diffusion.PotentialQuery(_PARAMS, 1.0, 0.1, 0.2)),
    (threshold_diffusion.potential_density, (_ARG,), _QUERY),
    (threshold_diffusion.two_sided_exit, (_ARG,), _QUERY),
    (threshold_diffusion.g_minus, (_ARG, 1.0, 0.1), _PROBLEM),
    (threshold_diffusion.g_plus, (_ARG, 1.0, 0.1), _PROBLEM),
    (threshold_diffusion.one_sided_down, (_ARG, 1.0, 0.1, -0.5), _PROBLEM),
    (threshold_diffusion.one_sided_up, (_ARG, 1.0, 0.1, 0.5), _PROBLEM),
    (threshold_diffusion.stationary_density, (_ARG, 0.1), _PROBLEM),
    (threshold_diffusion.density_jump_at_threshold, (_ARG, 1.0, 0.1), _PROBLEM),
    (threshold_diffusion.is_time_reversible, (_ARG,), _PROBLEM),
    (potential_grid, (_ARG, 1.0, 0.1, np.array([0.2])), _PROBLEM),
    (two_sided_exit_grid, (_ARG, np.array([1.0]), 0.0, -1.0, 1.0), _PROBLEM),
    (threshold_diffusion.value_function, (_ARG, 0.1), _PARAMS),
    (threshold_diffusion.alpha, (_ARG,), _PARAMS),
    (threshold_diffusion.optimal_threshold, (_ARG, 0.5), _PARAMS),
    (threshold_diffusion.optimal_policy, (_ARG,), _PARAMS),
    (threshold_diffusion.constant_bar_policy, (_ARG,), _PARAMS),
    (threshold_diffusion.constant_low_policy, (_ARG,), _PARAMS),
    (threshold_diffusion.reversed_threshold_policy, (_ARG,), _PARAMS),
    (threshold_diffusion.invert, (_ARG, 1.0), _PARAMS),
    (threshold_diffusion.integrate_finite, (_ARG, 0.0, 1.0), _PARAMS),
    (threshold_diffusion.integrate_semi_infinite, (_ARG, 0.0, 1.0), _PARAMS),
    (threshold_diffusion.SimConfig, (_ARG, 0.0, 1.0, 0.01, 4, 7), _PROBLEM),
    (threshold_diffusion.simulate_paths, (_ARG,), _PARAMS),
    (threshold_diffusion.simulate_policy, (_ARG, lambda s, t: s, 0.01, 4, 7), _PARAMS),
    (threshold_diffusion.empirical_hitting_transform, (_ARG, 0.5, 1.0), _PARAMS),
]


@pytest.mark.parametrize("bad", [None, (), "p", {}, _LIBRARY],
                         ids=["None", "tuple", "str", "dict", "library"])
@pytest.mark.parametrize("fn, args, wrong",
                         [pytest.param(*row, id=row[0].__name__) for row in _TYPED])
def test_entry_points_refuse_a_wrong_object_type(fn, args, wrong, bad):
    bad = wrong if bad is _LIBRARY else bad
    with pytest.raises(threshold_diffusion.InvalidParameterError):
        fn(*(bad if arg is _ARG else arg for arg in args))


lib = threshold_diffusion
# at most 16 paths and 10 steps in every simulation below
_SHORT = lib.SimConfig(_PARAMS, 0.0, 1.0, 0.1, 4, 7)
_ENSEMBLE = lib.simulate_paths(_SHORT)


def _exp(u):
    return np.exp(-u)


def _grid(v):
    """A grid argument holding v: a 1-D array for a number, refused otherwise."""
    return np.array([v])


# (id, entry point, its arguments with _ARG in the slot under test[, how the slot
# holds a value]): every real argument of the seven dataclasses and the public
# functions that take numbers
_REAL_SLOTS = [
    *[(f"DiffusionParams.{name}", lib.DiffusionParams,
       tuple(_ARG if i == k else v for i, v in enumerate((1.0, -1.0, 1.0, 2.0, 0.0))))
      for k, name in enumerate(("mu1", "mu2", "sigma1", "sigma2", "a"))],
    *[(f"ControlProblem.{name}", lib.ControlProblem,
       tuple(_ARG if i == k else v
             for i, v in enumerate((1.0, 2.0, -1.0, 1.0, 0.0, 1.0, 0.0))))
      for k, name in enumerate(("mu_bar", "sigma_bar", "mu_low", "sigma_low", "a", "T", "x0"))],
    ("DensityQuery.t", lib.DensityQuery, (_PARAMS, _ARG, 0.1, 0.2)),
    ("DensityQuery.x", lib.DensityQuery, (_PARAMS, 1.0, _ARG, 0.2)),
    ("DensityQuery.z", lib.DensityQuery, (_PARAMS, 1.0, 0.1, _ARG)),
    ("PotentialQuery.q", lib.PotentialQuery, (_PARAMS, _ARG, 0.1, 0.2)),
    ("PotentialQuery.x", lib.PotentialQuery, (_PARAMS, 1.0, _ARG, 0.2)),
    ("PotentialQuery.z", lib.PotentialQuery, (_PARAMS, 1.0, 0.1, _ARG)),
    ("ExitQuery.q", lib.ExitQuery, (_PARAMS, _ARG, 0.0, -1.0, 1.0)),
    ("ExitQuery.x", lib.ExitQuery, (_PARAMS, 1.0, _ARG, -1.0, 1.0)),
    ("ExitQuery.y", lib.ExitQuery, (_PARAMS, 1.0, 0.0, _ARG, 1.0)),
    ("ExitQuery.z", lib.ExitQuery, (_PARAMS, 1.0, 0.0, -1.0, _ARG)),
    ("SimConfig.x0", lib.SimConfig, (_PARAMS, _ARG, 1.0, 0.1, 4, 7)),
    ("SimConfig.horizon", lib.SimConfig, (_PARAMS, 0.0, _ARG, 0.1, 4, 7)),
    ("SimConfig.dt", lib.SimConfig, (_PARAMS, 0.0, 1.0, _ARG, 4, 7)),
    ("QuadSettings.abs_tol", lib.QuadSettings, (_ARG, 1e-7)),
    ("QuadSettings.rel_tol", lib.QuadSettings, (1e-9, _ARG)),
    ("g_minus.q", lib.g_minus, (_PARAMS, _ARG, 0.1)),
    ("g_minus.x", lib.g_minus, (_PARAMS, 1.0, _ARG)),
    ("g_plus.q", lib.g_plus, (_PARAMS, _ARG, 0.1)),
    ("g_plus.x", lib.g_plus, (_PARAMS, 1.0, _ARG)),
    ("one_sided_down.q", lib.one_sided_down, (_PARAMS, _ARG, 0.1, -0.5)),
    ("one_sided_down.x", lib.one_sided_down, (_PARAMS, 1.0, _ARG, -0.5)),
    ("one_sided_down.y", lib.one_sided_down, (_PARAMS, 1.0, 2.0, _ARG)),
    ("one_sided_up.q", lib.one_sided_up, (_PARAMS, _ARG, 0.1, 0.5)),
    ("one_sided_up.x", lib.one_sided_up, (_PARAMS, 1.0, _ARG, 2.0)),
    ("one_sided_up.z", lib.one_sided_up, (_PARAMS, 1.0, -0.5, _ARG)),
    ("two_sided_exit_grid.q", two_sided_exit_grid, (_PARAMS, _ARG, 0.0, -1.0, 1.0), _grid),
    ("two_sided_exit_grid.x", two_sided_exit_grid, (_PARAMS, np.array([1.0]), _ARG, -1.0, 2.0)),
    ("two_sided_exit_grid.y", two_sided_exit_grid, (_PARAMS, np.array([1.0]), 1.0, _ARG, 2.0)),
    ("two_sided_exit_grid.z", two_sided_exit_grid, (_PARAMS, np.array([1.0]), 0.0, -1.0, _ARG)),
    ("potential_grid.q", potential_grid, (_PARAMS, _ARG, 0.1, np.array([0.2]))),
    ("potential_grid.x", potential_grid, (_PARAMS, 1.0, _ARG, np.array([0.2]))),
    ("potential_grid.z", potential_grid, (_PARAMS, 1.0, 0.1, _ARG), _grid),
    ("stationary_density.z", lib.stationary_density, (_PARAMS, _ARG)),
    ("density_jump_at_threshold.t", lib.density_jump_at_threshold, (_PARAMS, _ARG, 0.1)),
    ("density_jump_at_threshold.x", lib.density_jump_at_threshold, (_PARAMS, 1.0, _ARG)),
    *[(f"oscillating_bm_density.{name}", lib.oscillating_bm_density,
       tuple(_ARG if i == k else v for i, v in enumerate((1.0, 2.0, 0.0, 1.0, 0.3, 0.2))))
      for k, name in enumerate(("sigma1", "sigma2", "a", "t", "x", "z"))],
    ("value_function.x", lib.value_function, (_PROBLEM, _ARG)),
    ("optimal_threshold.t", lib.optimal_threshold, (_PROBLEM, _ARG)),
    ("integrate_finite.lo", lib.integrate_finite, (_exp, _ARG, 1.0)),
    ("integrate_finite.hi", lib.integrate_finite, (_exp, 0.0, _ARG)),
    ("integrate_finite.seed_points", lib.integrate_finite,
     (_exp, 0.0, 1.0, None, [0.25, _ARG])),
    ("integrate_semi_infinite.lo", lib.integrate_semi_infinite, (_exp, _ARG, 1.0)),
    ("integrate_semi_infinite.decay_rate_hint", lib.integrate_semi_infinite, (_exp, 0.0, _ARG)),
    ("invert.t", lib.invert, (lambda q: 1.0 / (q + 1.0), _ARG)),
    ("simulate_policy.dt", lib.simulate_policy,
     (_PROBLEM, lib.optimal_policy(_PROBLEM), _ARG, 4, 7)),
    ("empirical_hitting_transform.level", lib.empirical_hitting_transform, (_SHORT, _ARG, 1.0)),
    ("empirical_hitting_transform.q", lib.empirical_hitting_transform, (_SHORT, -0.5, _ARG)),
    ("PathEnsemble.survival_frequency", _ENSEMBLE.survival_frequency, (_ARG,)),
    ("PathEnsemble.histogram.lo", _ENSEMBLE.histogram, (4, _ARG, 2.0)),
    ("PathEnsemble.histogram.hi", _ENSEMBLE.histogram, (4, -2.0, _ARG)),
]

# numbers of other widths and types, each of which must act as the float it equals
_NUMBERS = {"float16": np.float16(0.5), "float32": np.float32(0.7),
            "float32_big": np.float32(3e38), "int64": np.int64(1), "0d": np.array(0.5),
            "nan": math.nan, "inf": math.inf, "subnormal": 1e-310,
            "tiny_subnormal": 1e-320, "least_subnormal": 5e-324}
# values that are no real number, each of which must be refused with a library error
_NOT_NUMBERS = {"big_int": 10 ** 400, "big_negative_int": -10 ** 400, "None": None,
                "str": "0.5", "list": [0.5], "pair": np.array([0.5, 0.5])}
# slots that take a 1-D array of values as well as one value
_ARRAYS_TOO = {"invert.t"}
# numbers a slot must refuse, and the error: a decay hint with no finite reciprocal
# (every probe at a multiple of 1 / hint would read f(inf) = 0), and a time whose
# Talbot rates overflow, which must not warn first
_REFUSED = {"integrate_semi_infinite.decay_rate_hint": ("DomainError", (1e-310, 1e-320, 5e-324)),
            "invert.t": ("AccuracyError", (1e-310, 1e-320, 5e-324))}


def _plain(out):
    """out with arrays as lists and dataclasses as their fields, for repr."""
    if isinstance(out, np.ndarray):
        return out.tolist()
    if dataclasses.is_dataclass(out):
        return (type(out).__name__,
                *(_plain(getattr(out, f.name)) for f in dataclasses.fields(out)))
    if isinstance(out, tuple):
        return tuple(_plain(o) for o in out)
    return out


def _outcome(fn, args, value):
    """("returned", repr of the output) of fn with value in the _ARG slot (in a list
    too), or ("raised", name of the library error)."""
    def fill(arg):
        return value if arg is _ARG else [fill(a) for a in arg] if isinstance(arg, list) else arg
    try:
        return "returned", repr(_plain(fn(*map(fill, args))))
    except lib.ThresholdDiffusionError as exc:
        return "raised", type(exc).__name__


@pytest.mark.parametrize("kind, value", [*_NUMBERS.items(), *_NOT_NUMBERS.items()],
                         ids=[*_NUMBERS, *_NOT_NUMBERS])
@pytest.mark.parametrize("slot", _REAL_SLOTS, ids=[row[0] for row in _REAL_SLOTS])
def test_every_real_argument_takes_numbers_as_floats_and_refuses_the_rest(slot, kind, value):
    # warnings are errors here, so a numpy warning on the way fails too
    name, fn, args, *wrap = slot
    hold = wrap[0] if wrap else (lambda v: v)
    got = _outcome(fn, args, hold(value))
    if kind in _NUMBERS:
        want = _outcome(fn, args, hold(float(value)))
        assert got == want
        error, refused = _REFUSED.get(name, (None, ()))
        if float(value) in refused:
            assert got == ("raised", error)
    else:
        assert got[0] == ("returned" if name in _ARRAYS_TOO and kind == "pair" else "raised")
