"""The package's public surface."""

import importlib
import importlib.util
import math
import pathlib
import re
import types

import pytest

import threshold_diffusion
import threshold_diffusion.cli  # noqa: F401  the bench calls lib.cli.main

# a numpy warning that escapes the library fails the test; Hypothesis's own report
# hook warns about a deprecated mypy_extensions name, which is not the test's fault
pytestmark = [pytest.mark.filterwarnings("error"),
              pytest.mark.filterwarnings(
                  "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")]


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
