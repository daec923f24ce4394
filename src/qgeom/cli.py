"""Command-line front end.

Subcommands: eval (QGT at points), sweep (grids -> CSV/JSON), check (the
acceptance suite), curvature (FD Riemannian geometry of a model metric),
entangle (covariance-based measures).

Configuration may come from an INI file (sections [job], [gaussian]) with
command-line flags taking precedence. Exit codes: 0 success, 1 check failure,
2 usage/domain error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__, acceptance, gauss, geometry, qgt
from .errors import DomainError, NumericalError
from .exprs import ExpressionError, compile_expression
from .models import MODEL_NAMES, get_model
from .models.gaussian import GaussianModel

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

MIN_CUTOFF = 8


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# config plumbing

@dataclass
class JobConfig:
    model: str = ""
    point: tuple[float, ...] = ()
    quantum_numbers: tuple[int, ...] | None = None  # None -> the model's ground state
    methods: tuple[str, ...] = tuple(qgt.PATHWAYS)[:1]  # the spectral sum
    cutoff: int = 0  # 0 -> per-model default
    out: str = "-"
    fmt: str = "csv"
    timestamp: bool = True
    fd_step: float | None = None
    quantities: tuple[str, ...] = ()
    axes: tuple[tuple[str, float, float, int], ...] = ()
    fixed: dict[str, float] = field(default_factory=dict)
    sigma: str = ""
    mu: str = ""
    param_names: tuple[str, ...] = ()
    which: str = "metric"

    def validate(self):
        if self.cutoff and self.cutoff < MIN_CUTOFF:
            raise UsageError(f"cutoff must be >= {MIN_CUTOFF}")
        if any(count < 1 for *_rest, count in self.axes):
            raise UsageError("grid counts must be >= 1")
        if self.fmt not in ("csv", "json"):
            raise UsageError(f"unknown format {self.fmt!r}")


def _list_of(kind, what: str):
    """Parser of a comma-separated list of `kind` values, blanks skipped."""
    def parse(text) -> tuple:
        try:
            return tuple(kind(v.strip()) for v in str(text).split(",") if v.strip())
        except ValueError:
            raise UsageError(f"cannot parse {what} from {text!r}") from None
    return parse


def _parse_axis(text: str) -> tuple[str, float, float, int]:
    # name=start:stop:count
    try:
        name, spec = text.split("=", 1)
        start, stop, count = spec.split(":")
        return name.strip(), float(start), float(stop), int(count)
    except ValueError:
        raise UsageError(
            f"bad axis {text!r}; expected name=start:stop:count") from None


def _parse_assign(text: str) -> tuple[str, float]:
    try:
        name, value = text.split("=", 1)
        return name.strip(), float(value)
    except ValueError:
        raise UsageError(f"bad assignment {text!r}; expected name=value") from None


def load_config(path: str) -> dict:
    """Flatten an INI config; [job] holds the main keys, [gaussian] sigma/mu."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise UsageError(f"config file {path!r} not found")
    flat: dict = {}
    if parser.has_section("job"):
        flat.update(dict(parser.items("job")))
    if parser.has_section("gaussian"):
        for key, value in parser.items("gaussian"):
            flat[f"gaussian.{key}"] = value
    return flat


def _parse_methods(text) -> tuple[str, ...]:
    """--method: PATHWAYS names, each once, or all of them for 'all'."""
    names = tuple(dict.fromkeys(_list_of(str, "names")(text)))
    unknown = [name for name in names if name not in (*qgt.PATHWAYS, "all")]
    if unknown or not names:
        raise UsageError(f"--method {text!r} names {unknown or 'no pathway'}; "
                         f"choose from {', '.join(qgt.PATHWAYS)} or all")
    return tuple(qgt.PATHWAYS) if "all" in names else names


#: JobConfig field -> (flag attribute, config file key, parser). A given
#: flag replaces the file's value; a blank value leaves the default.
CONFIG_KEYS = {
    "model": ("model", "model", str),
    "point": ("point", "point", _list_of(float, "numbers")),
    "quantum_numbers": ("n", "n", _list_of(int, "integers")),
    "methods": ("method", "method", _parse_methods),
    "cutoff": ("cutoff", "cutoff", int),
    "out": ("out", "out", str),
    "fmt": ("format", "format", str),
    "fd_step": ("fd_step", "fd_step", float),
    "quantities": ("quantities", "quantities", _list_of(str, "names")),
    "sigma": ("sigma", "gaussian.sigma", str),
    "mu": ("mu", "gaussian.mu", str),
    "param_names": ("params", "gaussian.params", _list_of(str, "names")),
    "which": ("which", "which", str),
}


def build_config(args: argparse.Namespace) -> JobConfig:
    cfg = JobConfig()
    file_values = load_config(args.config) if getattr(args, "config", None) else {}
    for name, (flag, key, parse) in CONFIG_KEYS.items():
        value = getattr(args, flag, None)
        if value is None:
            value = file_values.get(key)
        if value is not None and str(value).strip():
            setattr(cfg, name, parse(value))
    if getattr(args, "no_header_timestamp", False) or \
            str(file_values.get("timestamp", "true")).lower() in ("0", "false", "no"):
        cfg.timestamp = False
    file_axes = [chunk.strip() for chunk in file_values.get("axis", "").split(";")
                 if chunk.strip()]
    cfg.axes = tuple(map(_parse_axis, getattr(args, "axis", None) or file_axes))
    cfg.fixed = dict(map(_parse_assign, getattr(args, "fix", None) or []))
    for chunk in file_values.get("fix", "").split(","):  # the flags win
        if chunk.strip():
            cfg.fixed.setdefault(*_parse_assign(chunk))
    cfg.validate()
    return cfg


def resolve_model(cfg: JobConfig):
    if not cfg.model:
        raise UsageError("a model name is required (--model)")
    if cfg.model == "gaussian" and cfg.sigma:
        if not cfg.mu:
            raise UsageError("gaussian model needs both --sigma and --mu")
        names = cfg.param_names or ("l1", "l2")
        if len(names) != 2:
            raise UsageError("gaussian model uses exactly two parameter names")
        try:
            sigma = compile_expression(cfg.sigma, names)
            mu = compile_expression(cfg.mu, names)
        except ExpressionError as exc:
            raise UsageError(str(exc)) from None
        return GaussianModel(sigma, mu, param_names=names)
    try:
        return get_model(cfg.model)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def model_cutoff(cfg: JobConfig, model) -> int:
    return cfg.cutoff or acceptance.AcceptanceConfig().cutoff(model)


def quantum_numbers(cfg: JobConfig, model) -> tuple[int, ...]:
    """--n, or the model's ground state when it is omitted."""
    try:
        return model._check_qn((0,) * model.dof if cfg.quantum_numbers is None
                               else cfg.quantum_numbers)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# ---------------------------------------------------------------------------
# output

def _num(x) -> str:
    return format(float(x), ".17e")


class Writer:
    """Collects column-oriented rows and emits deterministic CSV or JSON."""

    def __init__(self, cfg: JobConfig, meta: dict):
        self.cfg = cfg
        self.meta = meta
        self.rows: list[dict] = []

    def add(self, row: dict):
        self.rows.append(row)

    def _columns(self) -> list[str]:
        """Columns in order of first appearance, but `error` always last, so
        a job's header does not depend on which point fails."""
        cols = dict.fromkeys(key for row in self.rows for key in row)
        return sorted(cols, key=lambda col: col == "error")

    def _render_csv(self) -> str:
        buf = io.StringIO()
        if self.cfg.timestamp:
            stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
            buf.write(f"# generated {stamp}\n")
        cols = self._columns()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        for row in self.rows:
            cells = []
            for col in cols:
                value = row.get(col, "")
                if isinstance(value, float):
                    value = _num(value)
                cells.append(str(value))
            writer.writerow(cells)
        return buf.getvalue()

    def _render_json(self) -> str:
        doc = {"meta": dict(self.meta), "rows": self.rows}
        if self.cfg.timestamp:
            doc["generated"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
        return json.dumps(doc, indent=2, sort_keys=True, default=float) + "\n"

    def flush(self):
        text = self._render_csv() if self.cfg.fmt == "csv" else self._render_json()
        if self.cfg.out in ("-", ""):
            sys.stdout.write(text)
        else:
            with open(self.cfg.out, "w") as fh:
                fh.write(text)


def _matrix_columns(prefix: str, labels, matrix: np.ndarray) -> dict:
    # '|' keeps index pairs out of the CSV delimiter's way
    out = {}
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            value = matrix[i, j]
            out[f"{prefix}_re[{a}|{b}]"] = float(np.real(value))
            if np.iscomplexobj(matrix):
                out[f"{prefix}_im[{a}|{b}]"] = float(np.imag(value))
    return out


# ---------------------------------------------------------------------------
# commands

def cmd_eval(cfg: JobConfig) -> int:
    model = resolve_model(cfg)
    point = model.point(*cfg.point)
    cutoff = model_cutoff(cfg, model)
    fb = model.default_basis(point, cutoff)
    sel = qgt.StateSelector(quantum_numbers(cfg, model))
    meta = {"command": "eval", "model": model.name, "point": list(point.values),
            "n": list(sel.quantum_numbers), "cutoff": cutoff,
            "methods": list(cfg.methods), "version": __version__}
    writer = Writer(cfg, meta)
    results = qgt.run_pathways(model, point, sel, fb, cfg.methods, step=cfg.fd_step)
    base = {"model": model.name, "n": ",".join(map(str, sel.quantum_numbers))}
    base.update({f"point[{name}]": value
                 for name, value in zip(point.names, point.values)})
    for method, (_, columns) in results.items():
        row = dict(base, method=method)
        for prefix, labels, matrix in columns():
            row.update(_matrix_columns(prefix, labels, matrix))
        writer.add(row)
    comparisons = qgt.compare(results)
    if comparisons:
        row = dict(base, method="agreement")
        for c in comparisons:
            row[f"dev[{c.name}]"] = c.deviation
            row[f"tol[{c.name}]"] = c.tolerance
        writer.add(row)
    writer.flush()
    failed = [c for c in comparisons if not c.passed]
    for c in failed:
        print(f"comparison failed: {c.name} deviates by {c.deviation:.3g}, tolerance "
              f"{c.tolerance:g}; a --cutoff above {cutoff} may resolve it", file=sys.stderr)
    return EXIT_NUMERICAL if failed else EXIT_OK


def _grid_points(cfg: JobConfig, model):
    """Lexicographic grid over 1-2 axes with the rest pinned by --fix."""
    if not cfg.axes:
        raise UsageError("sweep needs at least one --axis name=start:stop:count")
    if len(cfg.axes) > 2:
        raise UsageError("sweep supports at most two axes")
    names = [axis[0] for axis in cfg.axes]
    for name in names:
        if name not in model.param_names:
            raise UsageError(f"axis {name!r} is not a parameter of {model.name}")
    grids = [np.linspace(start, stop, count) for _, start, stop, count in cfg.axes]
    fixed = dict(cfg.fixed)
    missing = [p for p in model.param_names if p not in names and p not in fixed]
    if missing:
        raise UsageError(f"fix the non-axis parameters: {missing}")
    shape = [len(g) for g in grids]
    for flat in range(int(np.prod(shape))):
        idx = np.unravel_index(flat, shape)
        values = dict(fixed)
        for axis_i, name in enumerate(names):
            values[name] = float(grids[axis_i][idx[axis_i]])
        yield values


def _default_quantities(model) -> tuple[str, ...]:
    """sweep without --quantities: the scalar curvature where the catalog
    has it, the reduced-state purity and entropy for two modes."""
    scalar = ("scalar",) if "scalar:param" in model.closed_quantities() else ()
    pair = ("purity", "entropy") if model.dof == 2 else ()
    return ("det_metric", *scalar, *pair, "nu")


def _sweep_one(model, values: dict, qn: tuple[int, ...], cfg: JobConfig):
    point = model.point(**values)
    row: dict = {f"point[{name}]": value for name, value in zip(point.names, point.values)}
    quantities = cfg.quantities or _default_quantities(model)
    cutoff = model_cutoff(cfg, model)
    need_state = any(q in ("purity", "entropy", "nu") for q in quantities) \
        and model.dof == 2
    red = None
    if need_state:
        fb = model.default_basis(point, cutoff)
        cov = qgt.covariance_from_state(model, point, qgt.StateSelector(qn), fb)
        red = gauss.reduce(cov, [0])
    for quantity in quantities:
        if quantity == "det_metric":
            if "metric_det" in model.closed_quantities():
                row["det_metric"] = float(model.closed_form("metric_det", point, qn))
            else:
                row["det_metric"] = float(np.linalg.det(
                    np.asarray(model.closed_form("metric", point, qn))))
        elif quantity == "scalar":
            row["scalar"] = float(model.closed_form("scalar:param", point, qn))
        elif quantity.startswith("scalar:"):
            row[quantity] = float(model.closed_form(quantity, point, qn))
        elif quantity == "purity":
            row["purity"] = gauss.purity(red) if red is not None else \
                float(model.closed_form("purity", point, qn))
        elif quantity == "entropy":
            row["entropy"] = gauss.von_neumann_entropy(red) if red is not None \
                else float(model.closed_form("entropy", point, qn))
        elif quantity == "nu":  # one mode: the closed covariance, no eigensolve
            cov = red if red is not None else gauss.CovarianceMatrix(
                1, model.closed_form("covariance", point, qn))
            row["nu"] = float(gauss.symplectic_eigenvalues(cov)[0])
        else:
            row[quantity] = float(model.closed_form(quantity, point, qn))
    return row


def cmd_sweep(cfg: JobConfig) -> int:
    model = resolve_model(cfg)
    qn = quantum_numbers(cfg, model)
    meta = {"command": "sweep", "model": model.name,
            "axes": [list(a) for a in cfg.axes], "fixed": cfg.fixed,
            "n": list(qn), "quantities": list(cfg.quantities),
            "version": __version__}
    writer = Writer(cfg, meta)
    for values in _grid_points(cfg, model):
        try:
            row = _sweep_one(model, values, qn, cfg)
        except (DomainError, NumericalError, ValueError) as exc:
            row = {f"point[{name}]": values[name] for name in model.param_names}
            row["error"] = f"{type(exc).__name__}: {exc}"
        writer.add(row)
    writer.flush()
    return EXIT_OK


def cmd_check(cfg: JobConfig) -> int:
    config = acceptance.AcceptanceConfig()
    if cfg.cutoff:
        config = acceptance.AcceptanceConfig(cutoff_1mode=cfg.cutoff,
                                             cutoff_2mode=cfg.cutoff)
    results = acceptance.run_checks(config, printer=print)
    failed = [r for r in results if not r.passed]
    print(f"\n{len(results) - len(failed)}/{len(results)} checks passed")
    for r in failed:
        print(f"  FAILED: {r.name}")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_curvature(cfg: JobConfig) -> int:
    model = resolve_model(cfg)
    point = model.point(*cfg.point)
    qn = quantum_numbers(cfg, model)
    which = cfg.which
    mapping = {
        "param": ("metric", None),
        "param-z1": ("metric_z1", ("W", "X", "Y")),
        "phase-reduced": ("phase_metric_reduced", None),
    }
    coords = None
    if which in mapping:
        quantity, coords = mapping[which]
    elif which.startswith("phase:"):
        quantity = "phase_metric"
        coords = tuple(which.split(":", 1)[1])
    elif which.startswith("metric_sub:"):  # the parameters without K, K pinned
        quantity = which
        coords = tuple(name for name in model.param_names
                       if name != which.split(":", 1)[1])
    else:
        quantity = which
    fixed = {name: point[name] for name in model.param_names
             if coords is not None and name not in coords}
    field_coords = coords if coords is not None else model.param_names
    f = geometry.metric_field(model, quantity, qn, coords=field_coords, fixed=fixed)
    x = np.array([point[name] for name in field_coords])
    try:
        report = geometry.curvature_report(f, x)
    except ValueError as exc:
        if quantity != "phase_metric":
            raise
        raise UsageError(f"{exc}; use --which phase:XY to read the phase metric "
                         "on two one-letter parameters, or --which phase-reduced "
                         "for a two-mode model") from None
    meta = {"command": "curvature", "model": model.name, "which": which,
            "point": list(point.values), "n": list(qn), "version": __version__}
    writer = Writer(cfg, meta)
    row = {f"point[{name}]": point[name] for name in field_coords}
    row["scalar"] = report.scalar
    row["flat"] = report.flat
    row["max_riemann"] = float(np.abs(report.riemann).max())
    row["flat_threshold"] = report.flat_threshold
    if f.dim == 2:
        row["scalar_2d_direct"] = geometry.scalar_2d_direct(f, x)
    for i in range(f.dim):
        for j in range(f.dim):
            for k in range(j, f.dim):
                row[f"christoffel[{i}|{j}|{k}]"] = float(report.christoffel[i, j, k])
    writer.add(row)
    writer.flush()
    return EXIT_OK


def cmd_entangle(cfg: JobConfig) -> int:
    model = resolve_model(cfg)
    if model.dof != 2:
        raise UsageError("entangle needs a two-mode model (sym-coupled, lin-coupled)")
    point = model.point(*cfg.point)
    qn = quantum_numbers(cfg, model)
    cutoff = model_cutoff(cfg, model)
    fb = model.default_basis(point, cutoff)
    cov = qgt.covariance_from_state(model, point, qgt.StateSelector(qn), fb)
    red = gauss.reduce(cov, [0])
    meta = {"command": "entangle", "model": model.name, "point": list(point.values),
            "n": list(qn), "cutoff": cutoff, "version": __version__}
    writer = Writer(cfg, meta)
    row = {f"point[{name}]": value for name, value in zip(point.names, point.values)}
    row["nu"] = float(gauss.symplectic_eigenvalues(red)[0])
    row["purity"] = gauss.purity(red)
    row["entropy"] = gauss.von_neumann_entropy(red)
    row.update(_matrix_columns("sigma_reduced", ("q1", "p1"), red.entries))
    if qn == (0, 0):
        row["purity_closed"] = float(model.closed_form("purity", point, qn))
        row["entropy_closed"] = float(model.closed_form("entropy", point, qn))
    writer.add(row)
    writer.flush()
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

_FLAGS = {
    "--config": dict(help="INI config file; flags override it"),
    "--model": dict(choices=list(MODEL_NAMES)),
    "--point": dict(help="comma-separated parameter values"),
    "--n": dict(help="quantum numbers, comma-separated, one per mode "
                     "(default: the ground state)"),
    "--cutoff": dict(type=int, help="Fock cutoff per mode"),
    "--method": dict(help=f"{','.join(qgt.PATHWAYS)}|all"),
    "--out": dict(help="output path ('-' for stdout)"),
    "--format": dict(choices=["csv", "json"], dest="format"),
    "--no-header-timestamp": dict(action="store_true",
                                  help="suppress the timestamp header line"),
    "--fd-step": dict(type=float, dest="fd_step"),
    "--sigma": dict(help="gaussian model: sigma(lambda) expression"),
    "--mu": dict(help="gaussian model: mu(lambda) expression"),
    "--params": dict(help="gaussian model: parameter names"),
    "--axis": dict(action="append",
                   help="grid axis name=start:stop:count (repeatable, max 2)"),
    "--fix": dict(action="append", help="pin a parameter name=value"),
    "--quantities": dict(help="comma list: det_metric,scalar,purity,entropy,nu,..."),
    "--which": dict(help="param | param-z1 | phase:XY | phase-reduced "
                         "| any closed-form metric name"),
}

# --config plus what resolve_model and quantum_numbers read
_MODEL = ("--config", "--model", "--n", "--sigma", "--mu", "--params")
# what Writer reads
_OUTPUT = ("--out", "--format", "--no-header-timestamp")

#: subcommand -> (help, handler, the flags it reads)
SUBCOMMANDS = {
    "eval": ("QGT blocks at a parameter point", cmd_eval,
             _MODEL + ("--point", "--cutoff", "--method", "--fd-step") + _OUTPUT),
    "sweep": ("quantities over a parameter grid", cmd_sweep,
              _MODEL + ("--cutoff", "--axis", "--fix", "--quantities") + _OUTPUT),
    "check": ("run the acceptance suite", cmd_check, ("--cutoff",)),
    "curvature": ("FD curvature of a model metric", cmd_curvature,
                  _MODEL + ("--point", "--which") + _OUTPUT),
    "entangle": ("reduced-state entanglement measures", cmd_entangle,
                 _MODEL + ("--point", "--cutoff") + _OUTPUT),
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgeom",
        description="quantum geometric tensor, curvature and entanglement "
                    "for oscillator models")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag, spec in _FLAGS.items():  # in _FLAGS order, for stable --help
            if flag in flags:
                p.add_argument(flag, **spec)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        return SUBCOMMANDS[args.command][1](cfg)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
