"""The package's public surface."""

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
