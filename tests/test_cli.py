import gc
import os
import weakref
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from orthofem import cli, solver
from orthofem.analysis import ConvergenceTable, ManufacturedSolution, error_norms
from orthofem.cli import (StudyConfig, UsageError, diff_paper, emit_table,
                          load_paper_table, load_table, main, parse_config,
                          run_study)
from orthofem.fespace import FeSpace
from orthofem.linalg import CgConfig, IterativeSolveError
from orthofem.mesh import build_quad, build_tri
from orthofem.nfunc import GrowthLaw

BASE_FLAGS = {"mesh": ["--mesh", "quad"], "p1": ["--p1", "2"], "p2": ["--p2", "2"],
              "n0": ["--N0", "4"], "levels": ["--levels", "1"]}

# per field: flag, config-file key, a value as text and as parsed, a second
# valid value, and a malformed value
FIELD_CASES = [
    ("mesh", "--mesh", "mesh", "cross", "cross", "boxslash", "hexagon"),
    ("domain", "--domain", "domain", "unit", "unit", "symmetric", "disk"),
    ("p1", "--p1", "p1", "3", 3.0, "2.5", "two"),
    ("p2", "--p2", "p2", "1.5", 1.5, "3", "1,5"),
    ("delta", "--delta", "delta", "0.1", 0.1, "0.2", "small"),
    ("tau", "--tau", "tau", "0.5", 0.5, "0.25", "fast"),
    ("tol", "--tol", "tol", "1e-9", 1e-9, "1e-8", "tight"),
    ("max_iter", "--max-iter", "max_iter", "7", 7, "9", "1e3"),
    ("clamp", "--clamp", "clamp", "1e-8", 1e-8, "1e-6", "none"),
    ("quad_degree", "--quad-degree", "quad_degree", "3", 3, "4", "3.0"),
    ("n0", "--N0", "n0", "8", 8, "2", "4.5"),
    ("levels", "--levels", "levels", "3", 3, "2", "three"),
    ("n_list", "--N", "n", "4, 8", (4, 8), "6,12", "4,x"),
    ("residual_target", "--residual-target", "residual_target", "1e-6", 1e-6,
     "1e-5", "low"),
    ("cg_tol", "--cg-tol", "cg_tol", "1e-5", 1e-5, "1e-4", "loose"),
    ("out", "--out", "out", "a.csv", "a.csv", "b.csv", "missing/a.csv"),
    ("format", "--format", "format", "markdown", "markdown", "csv", "html"),
    ("diff_paper", "--diff-paper", "diff_paper", "table3", "table3", "table1",
     "table9"),
]


def config_file(tmp_path, text):
    path = tmp_path / "study.cfg"
    path.write_text(text)
    return str(path)


def base_flags(without):
    return [arg for name, pair in BASE_FLAGS.items() if name != without
            for arg in pair]


def main_without_solving(monkeypatch, argv):
    """Exit status of main; a solved level fails the test."""
    def no_study(cfg):
        raise AssertionError("a level was solved")

    monkeypatch.setattr(cli, "run_study", no_study)
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("name, flag, key, text, value, other, malformed",
                         FIELD_CASES, ids=[case[0] for case in FIELD_CASES])
class TestEveryField:
    def test_flag_and_file_key_agree(self, tmp_path, monkeypatch, name, flag, key,
                                     text, value, other, malformed):
        monkeypatch.chdir(tmp_path)
        by_flag = parse_config(base_flags(name) + [flag, text])
        by_file = parse_config(base_flags(name) + [
            "--config", config_file(tmp_path, f"{key} = {text}\n")])
        assert getattr(by_flag, name) == value
        assert by_file == by_flag

    def test_flag_wins_over_file(self, tmp_path, monkeypatch, name, flag, key,
                                 text, value, other, malformed):
        monkeypatch.chdir(tmp_path)
        cfg = parse_config(base_flags(name) + [
            "--config", config_file(tmp_path, f"{key} = {other}\n"), flag, text])
        assert getattr(cfg, name) == value

    def test_malformed_value_exits_2(self, tmp_path, monkeypatch, capsys, name,
                                     flag, key, text, value, other, malformed):
        monkeypatch.chdir(tmp_path)
        assert main_without_solving(
            monkeypatch, base_flags(name) + [flag, malformed]) == 2
        path = config_file(tmp_path, f"{key} = {malformed}\n")
        assert main_without_solving(
            monkeypatch, base_flags(name) + ["--config", path]) == 2
        assert capsys.readouterr().out == ""


def test_field_cases_cover_every_field():
    assert [case[0] for case in FIELD_CASES] == [f.name for f in fields(StudyConfig)]


def test_metadata_header_records_every_cell_affecting_field():
    base = cli._metadata_header(parse_config(base_flags(None)), [])
    for name, flag, _, text, *_ in FIELD_CASES:
        header = cli._metadata_header(parse_config(base_flags(name) + [flag, text]), [])
        if name in ("out", "format", "diff_paper"):  # they leave the cells as they are
            assert header == base, name
        else:
            assert header != base and f" {name}=" in header, name


def test_metadata_header_keys_and_format():
    cfg = parse_config(["--mesh", "boxslash", "--p1", "3", "--p2", "1.5",
                        "--N", "10,20", "--residual-target", "5e-7",
                        "--cg-tol", "5e-14", "--diff-paper", "table3"])
    assert cli._metadata_header(cfg, []) == (
        "# mesh=boxslash domain=symmetric p1=3 p2=1.5 delta=0 tau=100 tol=1e-10 "
        "max_iter=5000 clamp=1e-10 quad_degree=5 n_list=10,20 "
        "residual_target=5e-07 cg_tol=5e-14 tau_schedule=\n")


def test_metadata_header_writes_halved_schedule():
    halved = solver.SolveReport(converged=True, iterations=91, increments=[],
                                final_residual=0.0, cg_iterations=0,
                                tau_schedule=[(0, 1.0), (7, 0.5), (9, 0.25), (11, 0.125)])
    plain = solver.SolveReport(converged=True, iterations=5, increments=[],
                               final_residual=0.0, cg_iterations=0, tau_schedule=[(0, 1.0)])
    header = cli._metadata_header(parse_config(base_flags(None)), [plain, halved])
    assert header.endswith(" tau_schedule=0:1|0:1;7:0.5;9:0.25;11:0.125\n")


class TestParseConfig:
    def test_table1_style_flags(self):
        cfg = parse_config(["--mesh", "boxslash", "--p1", "1.5", "--p2", "1.5",
                            "--N0", "10", "--levels", "5"])
        assert cfg.mesh == "boxslash"
        assert cfg.p1 == cfg.p2 == 1.5
        assert cfg.level_sizes() == [10, 20, 40, 80, 160]
        assert cfg.domain == "symmetric"

    def test_table6_style_flags(self):
        cfg = parse_config(["--mesh", "quad", "--p1", "3", "--p2", "1.5",
                            "--N", "16,32"])
        assert cfg.mesh == "quad"
        assert cfg.level_sizes() == [16, 32]

    def test_unknown_flag_exits_nonzero(self):
        with pytest.raises(SystemExit) as err:
            parse_config(["--mesh", "quad", "--p1", "2", "--p2", "2",
                          "--levels", "1", "--N0", "4", "--frobnicate"])
        assert err.value.code != 0

    def test_missing_required(self):
        with pytest.raises(UsageError):
            parse_config(["--p1", "2", "--p2", "2", "--N0", "4", "--levels", "1"])

    def test_config_file_with_flag_override(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text(
            "# table 1 setup\n"
            "mesh = boxslash\n"
            "p1 = 1.5\np2 = 1.5\n"
            "n0 = 10\nlevels = 5\n"
            "tau = 0.5   # halved step\n")
        cfg = parse_config(["--config", str(path), "--levels", "2"])
        assert cfg.tau == 0.5
        assert cfg.levels == 2

    def test_config_file_unknown_key(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text("mesh = quad\nwibble = 3\n")
        with pytest.raises(UsageError):
            parse_config(["--config", str(path), "--p1", "2", "--p2", "2",
                          "--N0", "4", "--levels", "1"])

    def test_config_file_malformed_number(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text("p1 = two\n")
        with pytest.raises(UsageError):
            parse_config(["--config", str(path), "--mesh", "quad", "--p2", "2",
                          "--N0", "4", "--levels", "1"])

    def test_contradictory_mesh_pattern(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text("mesh = quad\npattern = boxslash\n")
        with pytest.raises(UsageError):
            parse_config(["--config", str(path), "--p1", "2", "--p2", "2",
                          "--N0", "4", "--levels", "1"])

    def test_file_key_spellings(self, tmp_path):
        # keys are case-insensitive, '-' reads as '_', and pattern is
        # another spelling of mesh; flags still win over either
        path = config_file(tmp_path, "pattern = cross\nMesh = cross\nN = 4,8\n"
                                     "P1 = 3\np2 = 1.5\nmax-iter = 7\n")
        cfg = parse_config(["--config", path])
        assert (cfg.mesh, cfg.n_list, cfg.p1, cfg.max_iter) == ("cross", (4, 8), 3.0, 7)
        assert parse_config(["--config", path, "--mesh", "quad"]).mesh == "quad"
        pattern_only = config_file(tmp_path, "pattern = unionjack\np1 = 3\n"
                                             "p2 = 1.5\nn = 4\n")
        assert parse_config(["--config", pattern_only]).mesh == "unionjack"

    def test_field_names_are_not_extra_spellings(self, tmp_path):
        with pytest.raises(UsageError):
            parse_config(["--config", config_file(tmp_path, "n_list = 4,8\n"),
                          "--mesh", "quad", "--p1", "2", "--p2", "2"])
        for flag in (["--n-list", "4,8"], ["--n0", "4", "--levels", "1"]):
            with pytest.raises(SystemExit):
                parse_config(["--mesh", "quad", "--p1", "2", "--p2", "2"] + flag)

    def test_validation_errors(self):
        # every message names the setting at fault
        with pytest.raises(UsageError, match=r"\blevels\b"):
            StudyConfig(mesh="quad", p1=2.0, p2=2.0, n0=4, levels=0)
        with pytest.raises(UsageError, match="N list"):
            StudyConfig(mesh="quad", p1=2.0, p2=2.0)
        for sizes in (dict(n_list=(1,)), dict(n0=1, levels=2),
                      dict(n_list=(8, 4)), dict(n_list=(4, 4))):
            with pytest.raises(UsageError, match="level sizes"):
                StudyConfig(mesh="quad", p1=2.0, p2=2.0, **sizes)
        nan, inf = float("nan"), float("inf")
        for name, value in (("p1", 0.9), ("p2", 1.0), ("p1", nan), ("tau", 0.0),
                            ("tau", -1.0), ("tol", 0.0), ("clamp", 0.0), ("clamp", -1.0),
                            ("residual_target", -1.0), ("residual_target", 0.0),
                            ("max_iter", 0), ("cg_tol", 0.0), ("cg_tol", 1.0),
                            ("cg_tol", 2.0), ("quad_degree", 0), ("quad_degree", 9),
                            ("delta", -1.0), ("tau", nan), ("tol", nan), ("clamp", nan),
                            ("residual_target", nan), ("delta", nan), ("cg_tol", nan),
                            ("p1", inf), ("p2", inf), ("tau", inf), ("tol", inf),
                            ("clamp", inf), ("residual_target", inf), ("delta", inf),
                            ("delta", 1e200), ("cg_tol", inf)):
            settings = dict(dict(p1=1.5, p2=2.0, n0=4, levels=1), **{name: value})
            with pytest.raises(UsageError, match=rf"\b{name}\b"):
                StudyConfig(mesh="quad", **settings)

    def test_fields_are_frozen(self):
        # the growth law and flow configuration are built from them once
        cfg = StudyConfig(mesh="quad", p1=3.0, p2=1.5, n0=4, levels=1)
        with pytest.raises(FrozenInstanceError):
            cfg.tau = 0.5
        assert cfg.flow.tau == 100.0 and cfg.law.exponents == (3.0, 1.5)


class TestEmitTable:
    def test_single_row_has_empty_rate_cells(self):
        table = ConvergenceTable()
        table.add_row(121, {"e_V": 0.17311, "e_comb": 0.23505})
        text = emit_table(table)
        lines = text.splitlines()
        assert lines[0].startswith("dim,")
        assert lines[1] == "121,,,,,1.7311E-01,,2.3505E-01,"

    def test_halved_errors_give_minus_half(self):
        table = ConvergenceTable()
        table.add_row(100, {"e_V": 2e-1})
        table.add_row(400, {"e_V": 1e-1})
        assert ",-0.50," in emit_table(table).splitlines()[2] + ","

    def test_fixture_round_trip_is_byte_identical(self):
        from importlib import resources
        for name in ("table1", "table3", "table6"):
            raw = resources.files("orthofem").joinpath(
                f"data/paper_tables/{name}.csv").read_text(encoding="utf-8")
            assert emit_table(load_table(raw)) == raw

    def test_markdown_layout(self):
        table = ConvergenceTable()
        table.add_row(121, {"e_p1": 0.12032, "e_p2": 0.14809, "e_V": 0.16893})
        table.add_row(441, {"e_p1": 0.068595, "e_p2": 0.074169, "e_V": 0.085105})
        text = emit_table(table, "markdown")
        lines = text.splitlines()
        assert lines[0].count("|") == lines[2].count("|")
        assert "1.2032E-01" in text
        assert "---" in lines[2]  # first row has no rates
        assert "-0.43" in lines[3]

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            emit_table(ConvergenceTable())


class TestPaperTables:
    def test_all_fixtures_load(self):
        for name in ("table1", "table2", "table3", "table4", "table5", "table6"):
            table = load_paper_table(name)
            dims = [row.dim for row in table.rows]
            assert dims == sorted(dims)
            assert len(table.rows) >= 6

    def test_table1_known_cell(self):
        table = load_paper_table("table1")
        lookup = {row.dim: row for row in table.rows}
        assert lookup[1681].errors["e_V"] == pytest.approx(4.3299e-02)
        assert lookup[441].rates["e_V"] == pytest.approx(-0.54)

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError):
            load_paper_table("table9")


class TestRunStudy:
    def test_linear_fem_baseline_rates(self):
        # p1 = p2 = 2: e_V rates about -0.50, finite energies at each level
        cfg = StudyConfig(mesh="quad", p1=2.0, p2=2.0, n0=8, levels=3,
                          tol=1e-14, cg_tol=1e-13)
        table, reports = run_study(cfg)
        assert table.complete
        assert all(report.converged for report in reports)
        for _, rate in table.rate_column("e_V"):
            assert rate == pytest.approx(-0.5, abs=0.06)
        for _, rate in table.rate_column("e_comb"):
            assert rate == pytest.approx(-0.5, abs=0.06)

    def test_determinism(self):
        cfg = StudyConfig(mesh="boxslash", p1=1.5, p2=1.5, n0=4, levels=2,
                          tol=1e-11)
        first = emit_table(run_study(cfg)[0])
        second = emit_table(run_study(cfg)[0])
        assert first == second

    def test_previous_level_released_before_solve(self, monkeypatch):
        # the start vector is all a level needs of the one before it, so that
        # level's space, assembler and sparsity patterns are freed for the solve
        spaces = []

        def solve_checked(spec, flow, start):
            gc.collect()
            assert [space() for space in spaces] == [None] * len(spaces)
            spaces.append(weakref.ref(spec.space))
            return solver.solve(spec, flow, start)

        monkeypatch.setattr(cli, "solve", solve_checked)
        table, _ = run_study(StudyConfig(mesh="boxslash", p1=3.0, p2=1.5,
                                         n_list=(4, 6, 8), tol=1e-10))
        assert table.complete and len(spaces) == 3

    def test_incomplete_run_flagged(self):
        cfg = StudyConfig(mesh="boxslash", p1=3.0, p2=1.5, n0=8, levels=2,
                          tol=1e-16, max_iter=2)
        table, reports = run_study(cfg)
        assert not table.complete
        assert not reports[-1].converged

    @pytest.mark.parametrize("mesh, sizes", [
        ("quad", (4, 8)), ("boxslash", (4, 8)), ("alternating-kuhn", (4, 8)),
        ("unionjack", (4, 8)), ("cross", (4, 8)), ("boxslash", (6, 10)),
    ])
    def test_nested_start_matches_cold_start(self, mesh, sizes):
        # oracle: every level solved from zero interior values, given as the
        # start: with none, solve would climb its own coarser levels first
        cfg = StudyConfig(mesh=mesh, p1=3.0, p2=1.5, n_list=sizes, tol=1e-12,
                          cg_tol=5e-14, residual_target=5e-7)
        table, reports = run_study(cfg)
        assert table.complete and len(table.rows) == len(sizes)
        law = GrowthLaw((3.0, 1.5))
        ms = ManufacturedSolution(law)
        flow = solver.FlowConfig(tol=cfg.tol, residual_target=cfg.residual_target,
                                 cg=CgConfig(tol=cfg.cg_tol))
        cold_cg = []
        for n, row in zip(sizes, table.rows):
            built = (build_quad(n, cfg.bounds()) if mesh == "quad"
                     else build_tri(n, mesh, cfg.bounds()))
            space = FeSpace(built)
            spec = solver.ProblemSpec(law=law, space=space, dirichlet=ms.value)
            cold, cold_report = solver.solve(spec, flow, np.zeros(space.ndofs))
            assert cold_report.converged and row.dim == space.ndofs
            cold_cg.append(cold_report.cg_iterations)
            errors = error_norms(cold, ms, law, cfg.quad_degree)
            for name, value in row.errors.items():
                assert value == pytest.approx(getattr(errors, name), rel=1e-3)
        assert reports[1].cg_iterations < cold_cg[1]

    def test_diff_paper_reports_deviation(self):
        cfg = StudyConfig(mesh="boxslash", p1=1.5, p2=1.5, n0=10, levels=1,
                          tol=1e-12, cg_tol=1e-13)
        table, _ = run_study(cfg)
        lines = diff_paper(table, "table1")
        assert any("dim 121 e_V" in line for line in lines)
        assert any("rel=0.0" in line for line in lines)


class TestMain:
    def test_end_to_end_csv(self, tmp_path, capsys):
        out = tmp_path / "study.csv"
        code = main(["--mesh", "quad", "--p1", "2", "--p2", "2",
                     "--N0", "4", "--levels", "2", "--tol", "1e-13",
                     "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("# mesh=quad")
        assert "dim,e_p1," in text
        load_table(text)  # metadata header is skipped on load

    def test_usage_error_exit_code(self, capsys):
        assert main(["--mesh", "quad"]) == 2

    def test_nonpositive_clamp_exit_code(self, capsys):
        assert main(["--mesh", "quad", "--p1", "1.5", "--p2", "2",
                     "--N0", "4", "--levels", "1", "--clamp", "0"]) == 2
        assert "clamp" in capsys.readouterr().err

    def test_out_of_range_value_exit_code(self, capsys):
        # rejected before any level is solved
        assert main(["--mesh", "quad", "--p1", "2", "--p2", "2",
                     "--N", "8,4"]) == 2
        captured = capsys.readouterr()
        assert "strictly increasing" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("case", ["missing config", "config not utf-8",
                                      "no output directory", "output is a directory",
                                      "unwritable output file"])
    def test_input_output_errors_are_usage_errors(self, tmp_path, monkeypatch,
                                                  capsys, case):
        argv = ["--mesh", "quad", "--p1", "2", "--p2", "2", "--N0", "4",
                "--levels", "1"]
        locked = tmp_path / "locked.csv"
        if case == "missing config":
            argv += ["--config", str(tmp_path / "absent.cfg")]
        elif case == "config not utf-8":
            path = tmp_path / "latin1.cfg"
            path.write_bytes("# études\ntau = 0.5\n".encode("latin-1"))
            argv += ["--config", str(path)]
        elif case == "no output directory":
            argv += ["--out", str(tmp_path / "absent" / "study.csv")]
        elif case == "output is a directory":
            argv += ["--out", str(tmp_path)]
        else:
            locked.write_text("old\n")
            locked.chmod(0o444)
            if os.access(locked, os.W_OK):
                # the superuser may write any file: deny this one as if it could not
                access = os.access
                monkeypatch.setattr(os, "access", lambda path, mode: (
                    path != str(locked) and access(path, mode)))
            argv += ["--out", str(locked)]
        assert main_without_solving(monkeypatch, argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        if case == "unwritable output file":
            assert "cannot write" in captured.err and locked.read_text() == "old\n"

    @pytest.mark.parametrize("setting", [("--p1", "inf", "--p2", "2"),
                                         ("--p1", "3", "--p2", "1.5", "--delta", "1e200"),
                                         ("--p1", "3", "--p2", "3", "--tau", "inf")],
                             ids=["p1", "delta", "tau"])
    def test_nonfinite_or_overflowing_setting_exit_code(self, capsys, setting):
        # q_1 = inf / (inf - 1) is NaN, delta ** 2 overflows, and 1 / tau = 0
        # leaves the coarsest V-cycle matrix singular
        assert main(["--mesh", "boxslash", "--N", "10", *setting]) in (1, 2)
        assert capsys.readouterr().err.startswith("error: ")

    def test_failure_exit_code(self, capsys):
        code = main(["--mesh", "quad", "--p1", "3", "--p2", "1.5",
                     "--N0", "4", "--levels", "1", "--tol", "1e-18",
                     "--max-iter", "2"])
        assert code == 1

    @pytest.mark.parametrize("error", [
        IterativeSolveError("cg did not converge", residual=1.0, iterations=5),
        FloatingPointError("non-finite weight"),
    ])
    def test_solver_failure_keeps_partial_table(self, monkeypatch, capsys, error):
        cg_solve = solver.cg_solve

        def failing_on_level_two(a, b, cfg, precondition):
            if a.dim > 9:      # N = 4 has 9 interior nodes, N = 8 has 49
                raise error
            return cg_solve(a, b, cfg, precondition)

        monkeypatch.setattr(solver, "cg_solve", failing_on_level_two)
        argv = ["--mesh", "quad", "--p1", "2", "--p2", "2",
                "--N0", "4", "--levels", "2", "--tol", "1e-13"]
        table, reports = run_study(parse_config(argv))
        assert not table.complete
        assert [row.dim for row in table.rows] == [25]
        assert len(reports) == 1 and reports[0].converged
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "table is partial" in captured.err
        assert load_table(captured.out).rows[0].dim == 25
