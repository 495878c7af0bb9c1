"""Command-line surface: grid evaluation of the library's quantities.

Subcommands: density, potential, stationary, value, simulate, exit-lt,
validate. The six table commands build columns over their grid (potential
and exit-lt in one numpy pass over it) and hand them to one writer,
_write_table, which renders CSV (default) or JSON with 17 significant
digits, '.' decimal separator and '\\n' line endings regardless of locale.
Everything is computed before the output file is opened, so accuracy
failures and non-finite values leave no partial file behind. --threads (or
THRESHOLD_DIFFUSION_THREADS) exists on simulate and validate only, the two
commands that simulate.

Exit codes: 0 success; 2 invalid arguments or domain errors; 3 accuracy
failures; 4 I/O failures. The validate subcommand instead exits 1 when
any check fails.
"""

import argparse
import functools
import json
import math
import os
import sys
import traceback

import numpy as np

from . import validate as _validate
from .control import ControlProblem, value_function
from .density import DensityQuery, stationary_density, transition_density
from .errors import (AccuracyError, DomainError, InvalidParameterError, PolicyError,
                     ThresholdDiffusionError)
from .exit import two_sided_exit_grid
from .params import DiffusionParams, _count
from .potential import potential_grid
from .simulate import SimConfig, simulate_paths

_THREADS_ENV = "THRESHOLD_DIFFUSION_THREADS"


def _fuse(tokens, value_flags):
    """Fuse "--flag value" into "--flag=value" for every flag in value_flags,
    so grids like "-4:4:201" and lists like "-1,0,1" survive argparse."""
    out, i = [], 0
    while i < len(tokens):
        tok = tokens[i]
        if tok in value_flags and i + 1 < len(tokens):
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
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(hi - lo)):
        raise argparse.ArgumentTypeError(f"grid needs finite lo, hi and hi - lo, got {text!r}")
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
    return _count(value, "thread count")


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


def _add_common_flags(p, threads=False, table=True):
    p.add_argument("--out", default="-", help="output path, '-' for stdout (default)")
    if table:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--config", help="key=value file merged under explicit flags")
    if threads:
        p.add_argument("--threads", type=int, default=None,
                       help=f"worker threads for simulation (default: {_THREADS_ENV} "
                            "or machine parallelism)")


# built once with its value-taking flags: parsing never changes it, and a parser
# built per call left enough cyclic garbage to raise the peak memory of
# repeated in-process calls
@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="threshold-diffusion",
        description="Densities, exit transforms and control values for a "
                    "two-regime threshold diffusion.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="transition density over a z grid")
    p.set_defaults(handler=cmd_density)
    _add_diffusion_flags(p)
    p.add_argument("--t", type=_float_list, required=True, help="times, comma-separated")
    p.add_argument("--x", type=_float_list, required=True,
                   help="start states, comma-separated")
    p.add_argument("--z-grid", type=_grid, required=True, help="end-state grid lo:hi:n")
    _add_common_flags(p)

    p = sub.add_parser("potential", help="q-potential density over a z grid")
    p.set_defaults(handler=cmd_potential)
    _add_diffusion_flags(p)
    p.add_argument("--q", type=float, required=True, help="exponential clock rate")
    p.add_argument("--x", type=float, required=True, help="start state")
    p.add_argument("--z-grid", type=_grid, required=True, help="end-state grid lo:hi:n")
    _add_common_flags(p)

    p = sub.add_parser("stationary", help="stationary density at points")
    p.set_defaults(handler=cmd_stationary)
    _add_diffusion_flags(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--z", type=float, help="single evaluation point")
    g.add_argument("--z-grid", type=_grid, help="evaluation grid lo:hi:n")
    _add_common_flags(p)

    p = sub.add_parser("value", help="optimal survival probability over start states")
    p.set_defaults(handler=cmd_value)
    _add_control_flags(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--x", type=_float_list, help="start states, comma-separated")
    g.add_argument("--x-grid", type=_grid, help="start-state grid lo:hi:n")
    _add_common_flags(p)

    p = sub.add_parser("simulate", help="Euler path ensemble, terminal values as CSV")
    p.set_defaults(handler=cmd_simulate)
    _add_diffusion_flags(p)
    p.add_argument("--x0", type=float, required=True, help="start state")
    p.add_argument("--horizon", type=float, required=True, help="terminal time")
    p.add_argument("--dt", type=float, required=True, help="step size")
    p.add_argument("--n-paths", type=int, required=True, help="ensemble size")
    p.add_argument("--seed", type=_seed, required=True, help="stream key, 0 <= seed < 2^64")
    _add_common_flags(p, threads=True)

    p = sub.add_parser("exit-lt", help="two-sided exit transforms over a q grid")
    p.set_defaults(handler=cmd_exit_lt)
    _add_diffusion_flags(p)
    p.add_argument("--x", type=float, required=True, help="start state")
    p.add_argument("--y", type=float, required=True, help="lower level")
    p.add_argument("--z", type=float, required=True, help="upper level")
    p.add_argument("--q-grid", type=_grid, required=True, help="rate grid lo:hi:n")
    _add_common_flags(p)

    p = sub.add_parser("validate", help="run the cross-oracle check battery")
    p.set_defaults(handler=cmd_validate)
    _add_common_flags(p, threads=True, table=False)

    # the flags that take a value, for _fuse
    value_flags = frozenset(opt for sp in sub.choices.values() for a in sp._actions
                            if a.nargs != 0 for opt in a.option_strings)
    return parser, value_flags


def _params(args):
    return DiffusionParams(args.mu1, args.mu2, args.sigma1, args.sigma2, args.a)


def _json_rows(columns, rows, depth):
    """The rows as json.dumps(list of dicts, indent=2) renders them at nesting
    depth `depth`, with one % call per row; values are Python ints and finite
    floats, whose %r is the repr json.dumps writes."""
    if not rows:
        return "[]"
    pad = "  " * depth
    fields = ",\n".join(f"{pad}  {json.dumps(c).replace('%', '%%')}: %r" for c in columns)
    template = f"{pad}{{\n{fields}\n{pad}}}"
    return ("[\n" + ",\n".join(template % row for row in rows)
            + "\n" + "  " * (depth - 1) + "]")


def _write_table(args, columns, data, skip=0, headings=None, summary=None):
    """Render a table as CSV or JSON and write it to --out.

    data holds one 1-D array or list per column, all of one length; the
    values are numbers. JSON is one list of objects over every column, as
    json.dumps(..., indent=2) writes it. CSV leaves out the first `skip`
    columns, which the command line or the headings already carry, writes
    each value with 17 significant digits and prints the header once per
    block: with headings, the rows split into len(headings) equal blocks,
    each under a "# heading" line. A summary dict wraps the JSON rows as
    {"summary", "paths"}; with CSV it is printed as one JSON line on the
    stream the table is not on. A value that is not finite raises
    DomainError before anything is written: strict parsers reject JSON's
    Infinity and NaN, and CSV's inf would not round-trip either.
    """
    data = [np.asarray(col) for col in data]
    for name, col in zip(columns, data):
        if not np.isfinite(col).all():
            raise DomainError(f"column {name!r} has a non-finite value; the table is not written")
    if summary is not None and not all(math.isfinite(v) for v in summary.values()):
        raise DomainError(f"summary {summary!r} has a non-finite value; the table is not written")
    rows = list(zip(*(col.tolist() for col in data)))
    if args.format == "json":
        if summary is None:
            text = _json_rows(columns, rows, 1)
        else:
            text = ('{\n  "summary": ' + json.dumps(summary, indent=2).replace("\n", "\n  ")
                    + ',\n  "paths": ' + _json_rows(columns, rows, 2) + "\n}")
        _emit(text + "\n", args.out)
        return
    header = ",".join(columns[skip:]) + "\n"
    template = ",".join(["%.17g"] * (len(columns) - skip)) + "\n"
    size = len(rows) // len(headings) if headings else len(rows)
    parts = []
    for k, heading in enumerate(headings or [None]):
        if heading is not None:
            parts.append(f"# {heading}\n")
        parts.append(header)
        parts.extend(template % row[skip:] for row in rows[k * size:(k + 1) * size])
    _emit("".join(parts), args.out)
    if summary is not None:
        print(json.dumps(summary), file=sys.stderr if args.out == "-" else sys.stdout)


def cmd_density(args):
    params = _params(args)
    rows, headings = [], []
    for t in args.t:
        for x in args.x:
            headings.append("t=%.17g x=%.17g" % (t, x))
            rows.extend((t, x, z, transition_density(DensityQuery(params, t, x, z)))
                        for z in map(float, args.z_grid))
    _write_table(args, ("t", "x", "z", "p"), list(zip(*rows)), skip=2, headings=headings)
    return 0


def cmd_potential(args):
    zs = args.z_grid
    u = potential_grid(_params(args), args.q, args.x, zs)
    _write_table(args, ("q", "x", "z", "u"),
                 (np.full(zs.size, args.q), np.full(zs.size, args.x), zs, u), skip=2)
    return 0


def cmd_stationary(args):
    params = _params(args)
    zs = [args.z] if args.z is not None else args.z_grid.tolist()
    _write_table(args, ("z", "pi"), (zs, [stationary_density(params, z) for z in zs]))
    return 0


def cmd_value(args):
    problem = ControlProblem(args.mu_bar, args.sigma_bar, args.mu_low, args.sigma_low,
                             args.a, args.T)
    xs = args.x if args.x is not None else args.x_grid.tolist()
    _write_table(args, ("x", "V"), (xs, [value_function(problem, x) for x in xs]))
    return 0


def cmd_simulate(args):
    params = _params(args)
    config = SimConfig(params, args.x0, args.horizon, args.dt, args.n_paths, args.seed)
    ens = simulate_paths(config, threads=args.threads)
    survival, se = ens.survival_frequency(params.a)
    _write_table(args, ("path_index", "terminal_value"),
                 (np.arange(args.n_paths), ens.terminal_values),
                 summary={"survival": survival, "se": se, "n": args.n_paths,
                          "dt": args.dt, "seed": args.seed})
    return 0


def cmd_exit_lt(args):
    qs = args.q_grid
    down, up = two_sided_exit_grid(_params(args), qs, args.x, args.y, args.z)
    _write_table(args, ("q", "down", "up"), (qs, down, up))
    return 0


def cmd_validate(args):
    threads = args.threads
    entries = []
    all_passed = True
    for check in _validate.ALL_CRITERIA:
        try:
            r = check(threads=threads)
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


def main(argv=None):
    parser, value_flags = _build_parser()
    tokens = _fuse(list(sys.argv[1:] if argv is None else argv), value_flags)
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
        return args.handler(args)
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
