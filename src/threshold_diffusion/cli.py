"""Command-line surface: grid evaluation of the library's quantities.

Subcommands: density, potential, stationary, value, simulate, exit-lt,
validate. Output is CSV (default) or JSON with 17 significant digits, '.'
decimal separator and '\\n' line endings regardless of locale. Everything
is computed before the output file is opened, so accuracy failures leave
no partial file behind.

Exit codes: 0 success; 2 invalid arguments or domain errors; 3 accuracy
failures; 4 I/O failures. The validate subcommand instead exits 1 when
any check fails.
"""

import argparse
import json
import os
import sys
import traceback

import numpy as np

from . import validate as _validate
from .control import ControlProblem, value_function
from .density import DensityQuery, stationary_density, transition_density
from .errors import (AccuracyError, DomainError, InvalidParameterError, PolicyError,
                     ThresholdDiffusionError)
from .exit import ExitQuery, two_sided_exit
from .params import make_params
from .potential import PotentialQuery, potential_density
from .simulate import SimConfig, simulate_paths

_THREADS_ENV = "THRESHOLD_DIFFUSION_THREADS"

# every value-taking flag; used to fuse "--flag value" into "--flag=value"
# so grids like "-4:4:201" and lists like "-1,0,1" survive argparse
_VALUE_FLAGS = frozenset((
    "--mu1", "--mu2", "--sigma1", "--sigma2", "--a",
    "--mu-bar", "--sigma-bar", "--mu-low", "--sigma-low", "--T",
    "--t", "--x", "--z", "--y", "--q",
    "--z-grid", "--x-grid", "--q-grid",
    "--x0", "--horizon", "--dt", "--n-paths", "--seed",
    "--threads", "--tol", "--out", "--format", "--config",
))


def _fuse(tokens):
    out, i = [], 0
    while i < len(tokens):
        tok = tokens[i]
        if tok in _VALUE_FLAGS and i + 1 < len(tokens):
            out.append(tok + "=" + tokens[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _config_tokens(tokens):
    """Extract --config from raw tokens and expand the file into flag tokens.

    The expansion is inserted before the user's own flags, so explicit
    flags win under argparse's last-occurrence rule.
    """
    path = None
    for tok in tokens:
        if tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None:
        return []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    expanded = []
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParameterError(f"{path}:{ln}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        key = key.replace("_", "-").lstrip("-")
        value = value.strip("\"'")
        if not key or not value:
            raise InvalidParameterError(f"{path}:{ln}: expected key=value, got {raw!r}")
        expanded.append(f"--{key}={value}")
    return expanded


def _float_list(text):
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError(f"expected at least one number, got {text!r}")
    return vals


def _grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi:n, got {text!r}")
    if n < 2:
        raise argparse.ArgumentTypeError(f"grid needs n >= 2 points, got {n}")
    if not lo < hi:
        raise argparse.ArgumentTypeError(f"grid needs lo < hi, got {lo!r} >= {hi!r}")
    return np.linspace(lo, hi, n)


def _seed(text):
    try:
        val = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer seed, got {text!r}")
    return val


def _resolve_threads(value):
    if value is None:
        env = os.environ.get(_THREADS_ENV, "").strip()
        if env:
            try:
                value = int(env)
            except ValueError:
                raise InvalidParameterError(
                    f"{_THREADS_ENV} must be an integer, got {env!r}")
        else:
            value = os.cpu_count() or 1
    if value < 1:
        raise InvalidParameterError(f"thread count must be >= 1, got {value}")
    return value


def _fmt(v):
    return f"{float(v):.17g}"


def _emit(text, path):
    """Write fully-rendered output; stdout for '-', else the named file.

    A failed file write removes whatever was partially written.
    """
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError:
        try:
            os.remove(path)
        except OSError:
            pass
        raise


def _add_diffusion_flags(p):
    p.add_argument("--mu1", type=float, required=True, help="drift at or below the threshold")
    p.add_argument("--mu2", type=float, required=True, help="drift above the threshold")
    p.add_argument("--sigma1", type=float, required=True, help="volatility at or below")
    p.add_argument("--sigma2", type=float, required=True, help="volatility above")
    p.add_argument("--a", type=float, required=True, help="threshold level")


def _add_control_flags(p):
    p.add_argument("--mu-bar", type=float, required=True, help="drift paired with sigma-bar")
    p.add_argument("--sigma-bar", type=float, required=True, help="larger volatility")
    p.add_argument("--mu-low", type=float, required=True, help="drift paired with sigma-low")
    p.add_argument("--sigma-low", type=float, required=True, help="smaller volatility")
    p.add_argument("--a", type=float, required=True, help="survival threshold")
    p.add_argument("--T", type=float, required=True, help="horizon")


def _add_common_flags(p):
    p.add_argument("--out", default="-", help="output path, '-' for stdout (default)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--config", help="key=value file merged under explicit flags")
    p.add_argument("--threads", type=int, default=None,
                   help=f"worker threads for simulation (default: {_THREADS_ENV} "
                        "or machine parallelism)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="threshold-diffusion",
        description="Densities, exit transforms and control values for a "
                    "two-regime threshold diffusion.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="transition density over a z grid")
    _add_diffusion_flags(p)
    p.add_argument("--t", type=_float_list, required=True, help="times, comma-separated")
    p.add_argument("--x", type=_float_list, required=True,
                   help="start states, comma-separated")
    p.add_argument("--z-grid", type=_grid, required=True, help="end-state grid lo:hi:n")
    _add_common_flags(p)

    p = sub.add_parser("potential", help="q-potential density over a z grid")
    _add_diffusion_flags(p)
    p.add_argument("--q", type=float, required=True, help="exponential clock rate")
    p.add_argument("--x", type=float, required=True, help="start state")
    p.add_argument("--z-grid", type=_grid, required=True, help="end-state grid lo:hi:n")
    _add_common_flags(p)

    p = sub.add_parser("stationary", help="stationary density at points")
    _add_diffusion_flags(p)
    p.add_argument("--z", type=float, help="single evaluation point")
    p.add_argument("--z-grid", type=_grid, help="evaluation grid lo:hi:n")
    _add_common_flags(p)

    p = sub.add_parser("value", help="optimal survival probability over start states")
    _add_control_flags(p)
    p.add_argument("--x", type=_float_list, help="start states, comma-separated")
    p.add_argument("--x-grid", type=_grid, help="start-state grid lo:hi:n")
    _add_common_flags(p)

    p = sub.add_parser("simulate", help="Euler path ensemble, terminal values as CSV")
    _add_diffusion_flags(p)
    p.add_argument("--x0", type=float, required=True, help="start state")
    p.add_argument("--horizon", type=float, required=True, help="terminal time")
    p.add_argument("--dt", type=float, required=True, help="step size")
    p.add_argument("--n-paths", type=int, required=True, help="ensemble size")
    p.add_argument("--seed", type=_seed, required=True, help="stream key, 0 <= seed < 2^64")
    _add_common_flags(p)

    p = sub.add_parser("exit-lt", help="two-sided exit transforms over a q grid")
    _add_diffusion_flags(p)
    p.add_argument("--x", type=float, required=True, help="start state")
    p.add_argument("--y", type=float, required=True, help="lower level")
    p.add_argument("--z", type=float, required=True, help="upper level")
    p.add_argument("--q-grid", type=_grid, required=True, help="rate grid lo:hi:n")
    _add_common_flags(p)

    p = sub.add_parser("validate", help="run the cross-oracle check battery")
    p.add_argument("--tol", type=float, default=None,
                   help="override analytic tolerances (statistical margins unchanged)")
    _add_common_flags(p)

    return parser


def cmd_density(args):
    params = make_params(args.mu1, args.mu2, args.sigma1, args.sigma2, args.a)
    blocks = []
    for t in args.t:
        for x in args.x:
            vals = [transition_density(DensityQuery(params, t, x, float(z)))
                    for z in args.z_grid]
            blocks.append((t, x, vals))
    if args.format == "json":
        rows = [{"t": t, "x": x, "z": float(z), "p": p}
                for t, x, vals in blocks for z, p in zip(args.z_grid, vals)]
        text = json.dumps(rows, indent=2) + "\n"
    else:
        parts = []
        for t, x, vals in blocks:
            parts.append(f"# t={_fmt(t)} x={_fmt(x)}\n")
            parts.append("z,p\n")
            parts.extend(f"{_fmt(z)},{_fmt(p)}\n" for z, p in zip(args.z_grid, vals))
        text = "".join(parts)
    _emit(text, args.out)
    return 0


def cmd_potential(args):
    params = make_params(args.mu1, args.mu2, args.sigma1, args.sigma2, args.a)
    vals = [potential_density(PotentialQuery(params, args.q, args.x, float(z)))
            for z in args.z_grid]
    if args.format == "json":
        rows = [{"q": args.q, "x": args.x, "z": float(z), "u": u}
                for z, u in zip(args.z_grid, vals)]
        text = json.dumps(rows, indent=2) + "\n"
    else:
        text = "z,u\n" + "".join(f"{_fmt(z)},{_fmt(u)}\n"
                                 for z, u in zip(args.z_grid, vals))
    _emit(text, args.out)
    return 0


def cmd_stationary(args):
    params = make_params(args.mu1, args.mu2, args.sigma1, args.sigma2, args.a)
    if (args.z is None) == (args.z_grid is None):
        raise InvalidParameterError("stationary needs exactly one of --z or --z-grid")
    zs = [args.z] if args.z is not None else [float(z) for z in args.z_grid]
    vals = [stationary_density(params, z) for z in zs]
    if args.format == "json":
        text = json.dumps([{"z": z, "pi": v} for z, v in zip(zs, vals)], indent=2) + "\n"
    else:
        text = "z,pi\n" + "".join(f"{_fmt(z)},{_fmt(v)}\n" for z, v in zip(zs, vals))
    _emit(text, args.out)
    return 0


def cmd_value(args):
    problem = ControlProblem(args.mu_bar, args.sigma_bar, args.mu_low, args.sigma_low,
                             args.a, args.T)
    if (args.x is None) == (args.x_grid is None):
        raise InvalidParameterError("value needs exactly one of --x or --x-grid")
    xs = args.x if args.x is not None else [float(v) for v in args.x_grid]
    vals = [value_function(problem, x) for x in xs]
    if args.format == "json":
        text = json.dumps([{"x": x, "V": v} for x, v in zip(xs, vals)], indent=2) + "\n"
    else:
        text = "x,V\n" + "".join(f"{_fmt(x)},{_fmt(v)}\n" for x, v in zip(xs, vals))
    _emit(text, args.out)
    return 0


def cmd_simulate(args):
    params = make_params(args.mu1, args.mu2, args.sigma1, args.sigma2, args.a)
    config = SimConfig(params, args.x0, args.horizon, args.dt, args.n_paths, args.seed)
    ens = simulate_paths(config, threads=args.threads)
    survival, se = ens.survival_frequency(params.a)
    summary = json.dumps({"survival": survival, "se": se, "n": args.n_paths,
                          "dt": args.dt, "seed": args.seed})
    if args.format == "json":
        doc = {"summary": {"survival": survival, "se": se, "n": args.n_paths,
                           "dt": args.dt, "seed": args.seed},
               "paths": [{"path_index": i, "terminal_value": float(v)}
                         for i, v in enumerate(ens.terminal_values)]}
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
        return 0
    text = "path_index,terminal_value\n" + "".join(
        f"{i},{_fmt(v)}\n" for i, v in enumerate(ens.terminal_values))
    _emit(text, args.out)
    # keep the data stream clean: summary goes to the channel the CSV is not on
    print(summary, file=sys.stderr if args.out == "-" else sys.stdout)
    return 0


def cmd_exit_lt(args):
    params = make_params(args.mu1, args.mu2, args.sigma1, args.sigma2, args.a)
    rows = []
    for q in args.q_grid:
        down, up = two_sided_exit(ExitQuery(params, float(q), args.x, args.y, args.z))
        rows.append((float(q), down, up))
    if args.format == "json":
        text = json.dumps([{"q": q, "down": d, "up": u} for q, d, u in rows],
                          indent=2) + "\n"
    else:
        text = "q,down,up\n" + "".join(f"{_fmt(q)},{_fmt(d)},{_fmt(u)}\n"
                                       for q, d, u in rows)
    _emit(text, args.out)
    return 0


def cmd_validate(args):
    threads = args.threads
    entries = []
    all_passed = True
    for check in _validate.ALL_CRITERIA:
        try:
            r = check(tol=args.tol, threads=threads)
            entry = {"criterion": r.criterion, "name": r.name, "passed": r.passed,
                     "detail": r.detail, "seconds": r.seconds}
        except Exception as exc:
            # one broken check must not end the report; an error that is not
            # the library's own also leaves its traceback on stderr
            if not isinstance(exc, ThresholdDiffusionError):
                traceback.print_exc(file=sys.stderr)
            number = check.__name__.rpartition("_")[2]  # criterion_N
            entry = {"criterion": int(number) if number.isdigit() else None,
                     "name": check.__name__,
                     "passed": False, "detail": f"{type(exc).__name__}: {exc}",
                     "seconds": 0.0}
        all_passed = all_passed and entry["passed"]
        entries.append(entry)
    _emit(json.dumps(entries, indent=2) + "\n", args.out)
    return 0 if all_passed else 1


_HANDLERS = {
    "density": cmd_density,
    "potential": cmd_potential,
    "stationary": cmd_stationary,
    "value": cmd_value,
    "simulate": cmd_simulate,
    "exit-lt": cmd_exit_lt,
    "validate": cmd_validate,
}


def main(argv=None):
    tokens = _fuse(list(sys.argv[1:] if argv is None else argv))
    parser = _build_parser()
    try:
        try:
            cfg = _config_tokens(tokens)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 4
        if cfg:
            # config tokens go right after the subcommand so flags still win
            tokens = tokens[:1] + cfg + tokens[1:]
        try:
            args = parser.parse_args(tokens)
        except SystemExit as exc:
            return int(exc.code or 0)
        if hasattr(args, "threads"):
            args.threads = _resolve_threads(args.threads)
        return _HANDLERS[args.command](args)
    except (InvalidParameterError, PolicyError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"error: accuracy target not met: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
