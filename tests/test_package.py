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
    # bench/test_bench.py runs the workloads, and reports a missing hook without
    # failing on it; this check names every library attribute the bench hooks or
    # calls, so one that goes missing fails here, under its own name
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


def test_no_public_name_only_renames_another_and_no_engine_is_public():
    # make_params stays DiffusionParams' older name, because bench/workloads.py calls it
    objects = [getattr(threshold_diffusion, name) for name in threshold_diffusion.__all__
               if name != "make_params"]
    assert len({id(obj) for obj in objects}) == len(objects)
    # the quadrature and inversion engines are internal: their modules keep them
    for module, name in (("quadrature", "QuadSettings"), ("quadrature", "integrate_finite"),
                         ("quadrature", "integrate_semi_infinite"), ("inversion", "invert")):
        assert not hasattr(threshold_diffusion, name)
        assert callable(getattr(getattr(threshold_diffusion, module), name))


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
# eight terminal values for the PathEnsemble rows below
_EIGHT = np.linspace(-1.0, 1.0, 8)


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
    ("simulate_policy.dt", lib.simulate_policy,
     (_PROBLEM, lib.optimal_policy(_PROBLEM), _ARG, 4, 7)),
    ("empirical_hitting_transform.level", lib.empirical_hitting_transform, (_SHORT, _ARG, 1.0)),
    ("empirical_hitting_transform.q", lib.empirical_hitting_transform, (_SHORT, -0.5, _ARG)),
    ("PathEnsemble.terminal_values", lib.PathEnsemble, (_ARG, 1, 7, 0.1, 0.0, 1.0), _grid),
    ("PathEnsemble.dt", lib.PathEnsemble, (_EIGHT, 8, 7, _ARG, 0.0, 1.0)),
    ("PathEnsemble.x0", lib.PathEnsemble, (_EIGHT, 8, 7, 0.1, _ARG, 1.0)),
    ("PathEnsemble.horizon", lib.PathEnsemble,
     (_EIGHT, 8, 7, 0.1, 0.0, _ARG)),
    ("PathEnsemble.survival_frequency", _ENSEMBLE.survival_frequency, (_ARG,)),
    ("PathEnsemble.histogram.lo", _ENSEMBLE.histogram, (4, _ARG, 2.0)),
    ("PathEnsemble.histogram.hi", _ENSEMBLE.histogram, (4, -2.0, _ARG)),
]

# numbers of other widths and types, each of which must act as the float it equals
# (a numpy float64, as indexing an array gives, and a longdouble that rounds to its float)
_NUMBERS = {"float16": np.float16(0.5), "float32": np.float32(0.7),
            "float32_big": np.float32(3e38), "float64": np.float64(0.3),
            "longdouble": np.longdouble(1) / 3, "int": 1, "int64": np.int64(1),
            "0d": np.array(0.5),
            "nan": math.nan, "inf": math.inf, "subnormal": 1e-310,
            "tiny_subnormal": 1e-320, "least_subnormal": 5e-324}
# values that are no real number, each of which must be refused with a library error
_NOT_NUMBERS = {"big_int": 10 ** 400, "big_negative_int": -10 ** 400, "None": None,
                "str": "0.5", "list": [0.5], "pair": np.array([0.5, 0.5])}


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
    """("returned", repr of the output) of fn with value in the _ARG slot, or
    ("raised", name of the library error)."""
    try:
        return "returned", repr(_plain(fn(*(value if arg is _ARG else arg for arg in args))))
    except lib.ThresholdDiffusionError as exc:
        return "raised", type(exc).__name__


@pytest.mark.parametrize("kind, value", [*_NUMBERS.items(), *_NOT_NUMBERS.items()],
                         ids=[*_NUMBERS, *_NOT_NUMBERS])
@pytest.mark.parametrize("slot", _REAL_SLOTS, ids=[row[0] for row in _REAL_SLOTS])
def test_every_real_argument_takes_numbers_as_floats_and_refuses_the_rest(slot, kind, value):
    # warnings are errors here, so a numpy warning on the way fails too
    _, fn, args, *wrap = slot
    hold = wrap[0] if wrap else (lambda v: v)
    got = _outcome(fn, args, hold(value))
    if kind in _NUMBERS:
        assert got == _outcome(fn, args, hold(float(value)))
    else:
        assert got[0] == "raised"


# a policy for the simulate_policy rows below
_OPTIMAL = lib.optimal_policy(_PROBLEM)
# (id, entry point, its arguments with _ARG in the slot under test): every integer
# count of the library; thread counts stay small, as the gate clamps them to the CPUs
_COUNT_SLOTS = [
    ("SimConfig.n_paths", lib.SimConfig, (_PARAMS, 0.0, 1.0, 0.1, _ARG, 7)),
    ("SimConfig.seed", lib.SimConfig, (_PARAMS, 0.0, 1.0, 0.1, 4, _ARG)),
    ("simulate_paths.threads", lib.simulate_paths, (_SHORT, _ARG)),
    ("simulate_policy.n_paths", lib.simulate_policy, (_PROBLEM, _OPTIMAL, 0.1, _ARG, 7)),
    ("simulate_policy.seed", lib.simulate_policy, (_PROBLEM, _OPTIMAL, 0.1, 4, _ARG)),
    ("simulate_policy.threads", lib.simulate_policy, (_PROBLEM, _OPTIMAL, 0.1, 4, 7, _ARG)),
    ("empirical_hitting_transform.threads", lib.empirical_hitting_transform,
     (_SHORT, -0.5, 1.0, _ARG)),
    ("PathEnsemble.n_paths", lib.PathEnsemble, (_EIGHT, _ARG, 7, 0.1, 0.0, 1.0)),
    ("PathEnsemble.seed", lib.PathEnsemble, (_EIGHT, 8, _ARG, 0.1, 0.0, 1.0)),
    ("PathEnsemble.histogram.n_bins", _ENSEMBLE.histogram, (_ARG, -2.0, 2.0)),
    ("cli._resolve_threads", threshold_diffusion.cli._resolve_threads, (_ARG,)),
]

# integers of other widths, each of which must act as the int it equals
_INTEGERS = {"int8": np.int8(8), "int32": np.int32(8), "int64": np.int64(8),
             "uint64": np.uint64(8), "0d": np.array(8), "negative": np.int8(-1),
             "uint64_max": np.uint64(2 ** 64 - 1)}
# values that are no integer, or none Python can print, each of which must be refused
_NOT_INTEGERS = {"True": True, "False": False, "numpy_True": np.True_, "float": 4.0,
                 "fraction": 4.5, "str": "4", "None": None, "list": [4],
                 "huge": 10 ** 5000, "huge_negative": -(10 ** 5000)}
# slots where None asks for the default
_NONE_DEFAULTS = {"cli._resolve_threads"}


@pytest.mark.parametrize("kind, value", [*_INTEGERS.items(), *_NOT_INTEGERS.items()],
                         ids=[*_INTEGERS, *_NOT_INTEGERS])
@pytest.mark.parametrize("slot", _COUNT_SLOTS, ids=[row[0] for row in _COUNT_SLOTS])
def test_every_count_takes_integers_as_ints_and_refuses_the_rest(slot, kind, value):
    # warnings are errors here too; a stored numpy integer shows in the repr
    name, fn, args = slot
    got = _outcome(fn, args, value)
    if kind in _INTEGERS:
        assert got == _outcome(fn, args, int(value))
    else:
        assert got[0] == ("returned" if kind == "None" and name in _NONE_DEFAULTS else "raised")
