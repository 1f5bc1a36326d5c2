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
import sys
from dataclasses import dataclass, fields
from importlib import resources

from .analysis import ConvergenceTable, ManufacturedSolution, error_norms
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

MESH_CHOICES = ("quad",) + TRIANGLE_PATTERNS
CSV_HEADER = "dim,e_p1,rate_p1,e_p2,rate_p2,e_V,rate_V,e_comb,rate_comb"
_COLUMNS = ("e_p1", "e_p2", "e_V", "e_comb")
PAPER_TABLES = ("table1", "table2", "table3", "table4", "table5", "table6")


class UsageError(ValueError):
    """Malformed configuration input."""


@dataclass
class StudyConfig:
    mesh: str
    p1: float
    p2: float
    n0: int | None = None
    levels: int | None = None
    n_list: tuple | None = None
    delta: float = 0.0
    tau: float = 1.0
    tol: float = 1e-10
    max_iter: int = 5000
    clamp: float = 1e-10
    quad_degree: int = 5
    domain: str = "symmetric"     # experiments ran on (-1,1)^2
    residual_target: float | None = None
    cg_tol: float = 1e-12
    out: str | None = None
    format: str = "csv"
    diff_paper: str | None = None

    def __post_init__(self):
        if self.mesh not in MESH_CHOICES:
            raise UsageError(f"unknown mesh {self.mesh!r}")
        if not (self.p1 > 1 and self.p2 > 1):
            raise UsageError("growth exponents must exceed 1")
        if self.n_list is None and (self.n0 is None or self.levels is None):
            raise UsageError("need either an N list or N0 plus a level count")
        if self.n_list is None and self.levels < 1:
            raise UsageError("need at least one refinement level")
        sizes = self.level_sizes()
        if sizes[0] < 2 or any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise UsageError(f"level sizes {sizes} must be at least 2 and "
                             "strictly increasing")
        for name in ("tau", "tol", "clamp", "residual_target"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise UsageError(f"{name} must be positive")
        if not self.max_iter >= 1:
            raise UsageError("max_iter must be at least 1")
        if not 0 < self.cg_tol < 1:
            raise UsageError("cg_tol must lie in (0, 1)")
        if not 1 <= self.quad_degree <= MAX_DEGREE:
            raise UsageError(f"quad_degree must lie in 1..{MAX_DEGREE}")
        if not self.delta >= 0:
            raise UsageError("delta must be non-negative")
        if self.domain not in ("unit", "symmetric"):
            raise UsageError(f"unknown domain {self.domain!r}")
        if self.format not in ("csv", "markdown"):
            raise UsageError(f"unknown output format {self.format!r}")
        if self.diff_paper is not None and self.diff_paper not in PAPER_TABLES:
            raise UsageError(f"unknown reference table {self.diff_paper!r}")

    def level_sizes(self):
        if self.n_list is not None:
            return list(self.n_list)
        return [self.n0 * 2 ** j for j in range(self.levels)]

    def bounds(self):
        return (0.0, 1.0) if self.domain == "unit" else (-1.0, 1.0)


_FILE_KEYS = {
    "mesh": str, "pattern": str, "n0": int, "levels": int, "n": str,
    "p1": float, "p2": float, "delta": float, "tau": float, "tol": float,
    "max_iter": int, "clamp": float, "quad_degree": int, "domain": str,
    "residual_target": float, "cg_tol": float, "out": str, "format": str,
    "diff_paper": str,
}


def _read_config_file(path):
    values = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            key = key.lower().replace("-", "_")
            if key not in _FILE_KEYS:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            caster = _FILE_KEYS[key]
            try:
                values[key] = caster(val)
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: malformed value {val!r}") from exc
    return values


def _parse_n_list(text):
    try:
        sizes = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise UsageError(f"malformed N list {text!r}") from exc
    if not sizes:
        raise UsageError("empty N list")
    return sizes


def _build_argparser():
    parser = argparse.ArgumentParser(
        prog="orthofem",
        description="Convergence studies for the orthotropic p-Laplacian.",
    )
    parser.add_argument("--mesh", choices=MESH_CHOICES)
    parser.add_argument("--N0", type=int, dest="n0")
    parser.add_argument("--levels", type=int)
    parser.add_argument("--N", dest="n_list", help="comma separated level sizes")
    parser.add_argument("--p1", type=float)
    parser.add_argument("--p2", type=float)
    parser.add_argument("--delta", type=float)
    parser.add_argument("--tau", type=float)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--max-iter", type=int, dest="max_iter")
    parser.add_argument("--clamp", type=float)
    parser.add_argument("--quad-degree", type=int, dest="quad_degree")
    parser.add_argument("--domain", choices=("unit", "symmetric"))
    parser.add_argument("--residual-target", type=float, dest="residual_target")
    parser.add_argument("--cg-tol", type=float, dest="cg_tol")
    parser.add_argument("--out")
    parser.add_argument("--format", choices=("csv", "markdown"))
    parser.add_argument("--config")
    parser.add_argument("--diff-paper", dest="diff_paper", choices=PAPER_TABLES)
    return parser


def parse_config(argv):
    """StudyConfig from flags plus an optional config file (flags win)."""
    args = _build_argparser().parse_args(argv)
    values = _read_config_file(args.config) if args.config else {}
    if "pattern" in values:
        pattern = values.pop("pattern")
        if values.get("mesh", pattern) != pattern:
            raise UsageError(
                f"contradictory mesh/pattern pair: {values['mesh']!r} vs {pattern!r}")
        values["mesh"] = pattern
    if "n" in values:
        values["n_list"] = _parse_n_list(str(values.pop("n")))
    for spec_field in fields(StudyConfig):
        flag_value = getattr(args, spec_field.name, None)
        if flag_value is not None:
            values[spec_field.name] = flag_value
    if isinstance(values.get("n_list"), str):
        values["n_list"] = _parse_n_list(values["n_list"])
    unknown = set(values) - {f.name for f in fields(StudyConfig)}
    if unknown:
        raise UsageError(f"unknown keys {sorted(unknown)}")
    if "mesh" not in values or "p1" not in values or "p2" not in values:
        raise UsageError("mesh, p1, and p2 are required")
    return StudyConfig(**values)


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
    law = GrowthLaw((cfg.p1, cfg.p2), (cfg.delta, cfg.delta))
    ms = ManufacturedSolution(law)
    table = ConvergenceTable(cfg.mesh, cfg.p1, cfg.p2)
    reports = []
    solution = None
    for n in cfg.level_sizes():
        if cfg.mesh == "quad":
            mesh = build_quad(n, cfg.bounds())
        else:
            mesh = build_tri(n, cfg.mesh, cfg.bounds())
        space = FeSpace(mesh)
        spec = ProblemSpec(law=law, space=space, dirichlet=ms.value)
        flow = FlowConfig(tau=cfg.tau, tol=cfg.tol, max_iter=cfg.max_iter,
                          clamp=cfg.clamp, residual_target=cfg.residual_target,
                          cg=CgConfig(tol=cfg.cg_tol))
        start = None if solution is None else solution.evaluate(mesh.nodes)
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
            for name in _COLUMNS:
                cells.append(_fmt_error(row.errors.get(name)))
                cells.append(_fmt_rate(row.rates.get(name)))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
    if fmt != "markdown":
        raise ValueError(f"unknown output format {fmt!r}")
    present = [name for name in _COLUMNS
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


def load_table(text, pattern="", p1=0.0, p2=0.0):
    """Parse a CSV convergence table (inverse of emit_table)."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized table header")
    table = ConvergenceTable(pattern, p1, p2)
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 9:
            raise ValueError(f"malformed table row {line!r}")
        errors, rates = {}, {}
        for i, name in enumerate(_COLUMNS):
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
        for col in _COLUMNS:
            if col in row.errors and col in ref.errors:
                rel = abs(row.errors[col] - ref.errors[col]) / ref.errors[col]
                lines.append(f"dim {row.dim} {col}: run={row.errors[col]:.4E} "
                             f"paper={ref.errors[col]:.4E} rel={rel:.4%}")
    return lines


def _metadata_header(cfg, reports):
    schedule = []
    for report in reports:
        schedule.append(";".join(f"{k}:{tau:g}" for k, tau in report.tau_schedule))
    keys = [
        f"mesh={cfg.mesh}", f"domain={cfg.domain}", f"p1={cfg.p1:g}",
        f"p2={cfg.p2:g}", f"delta={cfg.delta:g}", f"tau={cfg.tau:g}",
        f"tol={cfg.tol:g}", f"max_iter={cfg.max_iter}", f"clamp={cfg.clamp:g}",
        f"quad_degree={cfg.quad_degree}",
        "tau_schedule=" + "|".join(schedule),
    ]
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
