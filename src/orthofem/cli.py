"""Batch convergence-study runner.

A study is a refinement sweep over one mesh family and one growth law:
per level the mesh is built, the gradient flow solved from the previous
level's solution, and the error functionals appended to a convergence
table, which is emitted as CSV or as an aligned markdown table
(scientific notation with four decimal digits, rates with two).

Reference tables from the original experiments are shipped as CSV
assets in the same schema; ``--diff-paper <name>`` reports the
per-cell relative deviation of a fresh run from the stored rows at
matching dimensions.

Flags override the optional ``key = value`` config file.  The emitted
bytes are a pure function of the configuration: the metadata header
records parameters and the pseudo-time-step schedule, never clocks.
"""

import argparse
import os
import sys
import typing
from dataclasses import MISSING, dataclass, fields
from importlib import resources
from pathlib import Path

from .analysis import ERROR_COLUMNS, ConvergenceTable, ManufacturedSolution, error_norms
from .fespace import MAX_DEGREE, FeSpace
from .mesh import TRIANGLE_PATTERNS, build_quad, build_tri
from .linalg import CgConfig, IterativeSolveError
from .nfunc import GrowthLaw
from .solver import FlowConfig, ProblemSpec, solve

__all__ = [
    "StudyConfig",
    "parse_config",
    "run_study",
    "emit_table",
    "load_table",
    "diff_paper",
    "main",
]

CSV_HEADER = "dim,e_p1,rate_p1,e_p2,rate_p2,e_V,rate_V,e_comb,rate_comb"
PAPER_TABLES = ("table1", "table2", "table3", "table4", "table5", "table6")
# allowed values of the settings that take one of a fixed set
CHOICES = {
    "mesh": ("quad",) + TRIANGLE_PATTERNS,
    "domain": ("unit", "symmetric"),
    "format": ("csv", "markdown"),
    "diff_paper": PAPER_TABLES,
}


class UsageError(ValueError):
    """Malformed configuration input."""


def _n_list(text):
    """Comma separated level sizes as a tuple of ints."""
    sizes = tuple(int(part) for part in text.split(",") if part.strip())
    if not sizes:
        raise ValueError("empty N list")
    return sizes


@dataclass(kw_only=True, frozen=True)
class StudyConfig:
    """One refinement study.  Each field is also a flag (``--max-iter``
    for ``max_iter``) and a config-file key, except for the spellings
    listed in FLAG_SPELLINGS and FILE_KEY_SPELLINGS, and a key of the CSV
    header (see ``_metadata_header``).  ``law`` and ``flow`` are built
    once and check the ranges of their settings; the fields are frozen,
    so they cannot go stale."""

    mesh: str
    domain: str = "symmetric"     # experiments ran on (-1,1)^2
    p1: float
    p2: float
    delta: float = 0.0
    tau: float = FlowConfig.tau   # the flow's defaults are declared there
    tol: float = FlowConfig.tol
    max_iter: int = FlowConfig.max_iter
    clamp: float = FlowConfig.clamp
    quad_degree: int = 5
    n0: int | None = None
    levels: int | None = None
    n_list: tuple | None = None
    residual_target: float | None = None
    cg_tol: float = CgConfig.tol
    out: str | None = None
    format: str = "csv"
    diff_paper: str | None = None

    def __post_init__(self):
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value is not None and value not in allowed:
                raise UsageError(f"unknown {name} {value!r}")
        if self.n_list is None and (self.n0 is None or self.levels is None):
            raise UsageError("need either an N list or N0 plus a level count")
        if self.n_list is None and self.levels < 1:
            raise UsageError(f"levels must be at least 1, got {self.levels}")
        sizes = self.level_sizes()
        if sizes[0] < 2 or any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise UsageError(f"level sizes {sizes} must be at least 2 and "
                             "strictly increasing")
        if not 1 <= self.quad_degree <= MAX_DEGREE:
            raise UsageError(f"quad_degree must lie in 1..{MAX_DEGREE}")
        if not 0 < self.cg_tol < 1:  # NaN fails too
            raise UsageError(f"cg_tol must lie in (0, 1), got {self.cg_tol}")
        try:
            law = GrowthLaw((self.p1, self.p2), (self.delta, self.delta))
            flow = FlowConfig(tau=self.tau, tol=self.tol, max_iter=self.max_iter,
                              clamp=self.clamp, residual_target=self.residual_target,
                              cg=CgConfig(tol=self.cg_tol))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        object.__setattr__(self, "law", law)
        object.__setattr__(self, "flow", flow)

    def level_sizes(self):
        if self.n_list is not None:
            return list(self.n_list)
        return [self.n0 * 2 ** j for j in range(self.levels)]

    def bounds(self):
        return (0.0, 1.0) if self.domain == "unit" else (-1.0, 1.0)


# spellings that differ from the field name
FLAG_SPELLINGS = {"n0": "--N0", "n_list": "--N"}
FILE_KEY_SPELLINGS = {"n_list": ("n",), "mesh": ("mesh", "pattern")}


def _cast(f):
    """Parser of a field's text values: its type, or the N-list parser."""
    kind = next(t for t in typing.get_args(f.type) or (f.type,) if t is not type(None))
    return _n_list if kind is tuple else kind


def _read_config_file(path):
    """Field values from a 'key = value' file; all spellings of one
    field must agree, and a repeated key keeps its last value."""
    keys = {key: f for f in fields(StudyConfig)
            for key in FILE_KEY_SPELLINGS.get(f.name, (f.name,))}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    by_key = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        key = key.lower().replace("-", "_")
        if key not in keys:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            by_key[key] = (keys[key].name, _cast(keys[key])(val))
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: malformed value {val!r}") from exc
    values = {}
    for name, value in by_key.values():
        if values.setdefault(name, value) != value:
            raise UsageError(f"{path}: contradictory values for {name}: "
                             f"{values[name]!r} vs {value!r}")
    return values


def _build_argparser():
    parser = argparse.ArgumentParser(
        prog="orthofem",
        description="Convergence studies for the orthotropic p-Laplacian.",
    )
    for f in fields(StudyConfig):
        flag = FLAG_SPELLINGS.get(f.name, "--" + f.name.replace("_", "-"))
        parser.add_argument(flag, dest=f.name, type=_cast(f),
                            choices=CHOICES.get(f.name))
    parser.add_argument("--config")
    return parser


def parse_config(argv):
    """StudyConfig from flags plus an optional config file (flags win)."""
    args = _build_argparser().parse_args(argv)
    values = _read_config_file(args.config) if args.config else {}
    for f in fields(StudyConfig):
        if getattr(args, f.name) is not None:
            values[f.name] = getattr(args, f.name)
    missing = [f.name for f in fields(StudyConfig)
               if f.default is MISSING and f.name not in values]
    if missing:
        raise UsageError(f"{', '.join(missing)} required")
    cfg = StudyConfig(**values)
    if cfg.out is not None:
        folder = os.path.dirname(cfg.out) or "."
        if not os.path.isdir(folder):
            raise UsageError(f"no directory for the output file {cfg.out}")
        exists = os.path.lexists(cfg.out)
        if os.path.isdir(cfg.out) or not os.access(cfg.out if exists else folder, os.W_OK):
            raise UsageError(f"cannot write the output file {cfg.out}")
    return cfg


def run_study(cfg):
    """Run a refinement sweep; returns (ConvergenceTable, solve reports).

    Nested iteration: every level after the first starts its flow from
    the previous level's solution, interpolated at the new mesh's nodes
    (the Dirichlet data replaces it on the boundary).  The level list
    need not be nested; the interpolation is pointwise.

    A level whose flow does not converge, or whose solve fails with an
    IterativeSolveError or a FloatingPointError, flags the table as
    incomplete and stops the sweep; already computed rows are kept.  A
    failed solve leaves no report.
    """
    law, flow = cfg.law, cfg.flow
    ms = ManufacturedSolution(law)
    table = ConvergenceTable()
    reports = []
    solution = None
    for n in cfg.level_sizes():
        if cfg.mesh == "quad":
            mesh = build_quad(n, cfg.bounds())
        else:
            mesh = build_tri(n, cfg.mesh, cfg.bounds())
        space = FeSpace(mesh)
        spec = ProblemSpec(law=law, space=space, dirichlet=ms.value)
        start = None if solution is None else solution.evaluate(mesh.nodes)
        solution = None  # frees the previous level's space during this solve
        try:
            solution, report = solve(spec, flow, start)
        except (IterativeSolveError, FloatingPointError):
            table.complete = False
            break
        reports.append(report)
        if not report.converged:
            table.complete = False
            break
        table.add_report(space.ndofs, error_norms(solution, ms, law, cfg.quad_degree))
    return table, reports


def _fmt_error(val):
    return "" if val is None else "%.4E" % val


def _fmt_rate(val):
    return "" if val is None else "%.2f" % val


def emit_table(table, fmt="csv"):
    """Serialize a convergence table (no metadata, deterministic bytes)."""
    if not table.rows:
        raise ValueError("cannot emit an empty table")
    if fmt == "csv":
        lines = [CSV_HEADER]
        for row in table.rows:
            cells = [str(row.dim)]
            for name in ERROR_COLUMNS:
                cells.append(_fmt_error(row.errors.get(name)))
                cells.append(_fmt_rate(row.rates.get(name)))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
    if fmt != "markdown":
        raise ValueError(f"unknown output format {fmt!r}")
    present = [name for name in ERROR_COLUMNS
               if any(name in row.errors for row in table.rows)]
    header = ["dim V_h"]
    for name in present:
        header.extend([name, "rate"])
    body = []
    for row in table.rows:
        cells = [str(row.dim)]
        for name in present:
            cells.append(_fmt_error(row.errors.get(name)) or "---")
            cells.append(_fmt_rate(row.rates.get(name)) or "---")
        body.append(cells)
    widths = [max(len(line[i]) for line in [header] + body) for i in range(len(header))]
    def fmt_line(cells):
        return "| " + " | ".join(c.rjust(w) for c, w in zip(cells, widths)) + " |"
    rule = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    return "\n".join([fmt_line(header), rule] + [fmt_line(c) for c in body]) + "\n"


def load_table(text):
    """Parse a CSV convergence table (inverse of emit_table)."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized table header")
    table = ConvergenceTable()
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 9:
            raise ValueError(f"malformed table row {line!r}")
        errors, rates = {}, {}
        for i, name in enumerate(ERROR_COLUMNS):
            err, rate = cells[1 + 2 * i], cells[2 + 2 * i]
            if err:
                errors[name] = float(err)
            if rate:
                rates[name] = float(rate)
        table.add_row(int(cells[0]), errors, rates)
    return table


def load_paper_table(name):
    """Packaged reference table by name ('table1' .. 'table6')."""
    if name not in PAPER_TABLES:
        raise ValueError(f"unknown reference table {name!r}")
    text = resources.files("orthofem").joinpath(
        f"data/paper_tables/{name}.csv").read_text(encoding="utf-8")
    return load_table(text)


def diff_paper(table, name):
    """Per-cell relative deviation against a stored reference table."""
    reference = load_paper_table(name)
    ref_rows = {row.dim: row for row in reference.rows}
    lines = []
    for row in table.rows:
        ref = ref_rows.get(row.dim)
        if ref is None:
            continue
        for col in ERROR_COLUMNS:
            if col in row.errors and col in ref.errors:
                rel = abs(row.errors[col] - ref.errors[col]) / ref.errors[col]
                lines.append(f"dim {row.dim} {col}: run={row.errors[col]:.4E} "
                             f"paper={ref.errors[col]:.4E} rel={rel:.4%}")
    return lines


def _metadata_header(cfg, reports):
    """The settings that shape the table's cells, in field order (None
    omitted, floats as ``:g``, the N list comma separated), then the
    pseudo-time-step schedule of every level."""
    keys = []
    for f in fields(StudyConfig):
        value = getattr(cfg, f.name)
        if value is None or f.name in ("out", "format", "diff_paper"):
            continue
        if isinstance(value, float):
            value = f"{value:g}"
        elif isinstance(value, (tuple, list)):
            value = ",".join(map(str, value))
        keys.append(f"{f.name}={value}")
    schedule = (";".join(f"{k}:{tau:g}" for k, tau in report.tau_schedule)
                for report in reports)
    keys.append("tau_schedule=" + "|".join(schedule))
    return "# " + " ".join(keys) + "\n"


def main(argv=None):
    try:
        cfg = parse_config(argv if argv is not None else sys.argv[1:])
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    table, reports = run_study(cfg)
    if table.rows:
        text = emit_table(table, cfg.format)
        if cfg.format == "csv":
            text = _metadata_header(cfg, reports) + text
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        if cfg.diff_paper:
            for line in diff_paper(table, cfg.diff_paper):
                print(line)
    if not table.complete:
        print("error: flow did not converge at some level; table is partial",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
