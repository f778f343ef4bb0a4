import gc
import importlib.util
import math
import os
import re
import shutil
import subprocess
import sys
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from illposed import (Compactum, ConfigurationError, InvalidParameterError,
                      SolverFailureError, Stabilizer, SweepConfig, VariationalResult,
                      build_problem, domain_project, inject_noise, operators,
                      parse_config_file, phi_value, project_onto, quasi_certificate,
                      run_sweep, sweep, tikhonov, variational,
                      variational_certificate)
from illposed.cli import main
from illposed.sweep import (CERT_COLUMNS, CSV_COLUMNS, SETTINGS, SweepRow,
                            delta_seed, resolve_rho, rows_to_csv, run_solve, solve_one)
from illposed.tikhonov import PathData, TikhonovPath

from helpers import by_solve, calls, penalty_matrix, recorded_root_finds

# subprocesses import the package from this checkout
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SweepConfig(problem="diag-unbounded", deltas=(1e-2, 0.0))
    with pytest.raises(ConfigurationError):
        SweepConfig(problem="diag-unbounded", deltas=())
    with pytest.raises(ConfigurationError):
        SweepConfig(problem="diag-unbounded", method="bayes")
    with pytest.raises(ConfigurationError):
        SweepConfig(problem="diag-unbounded", n=3)
    # beyond the dense road; only the configuration is built, nothing n x n
    assert SweepConfig(problem="diag-unbounded", n=4096).n == sweep.MAX_N
    with pytest.raises(ConfigurationError, match="between 4 and 4096"):
        SweepConfig(problem="diag-unbounded", n=4097)
    with pytest.raises(ConfigurationError):
        SweepConfig(problem="diag-unbounded", seed=-1)
    with pytest.raises(ConfigurationError):
        SweepConfig(problem="diag-unbounded", noise_mode="loud")
    with pytest.raises(ConfigurationError):  # the repeat would take a new seed
        SweepConfig(problem="diag-unbounded", deltas=(1e-1, 1e-2, 1e-2))


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# convergence study\n"
        "problem = volterra-int\n"
        "n = 32\n"
        "deltas = 1e-1, 1e-2\n"
        "method = quasi   # only one method\n"
        "rho-factor = 2.0\n"
        "seed = 7\n"
    )
    values = parse_config_file(path)
    config = SweepConfig(**values)
    assert config.problem == "volterra-int"
    assert config.deltas == (1e-1, 1e-2)
    assert config.method == "quasi"
    assert config.rho_factor == 2.0
    assert config.seed == 7
    # every configuration field is a config key and a flag, and nothing else is
    assert list(SETTINGS) == [f.name for f in fields(SweepConfig)]


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("problema = diag-unbounded\n")
    with pytest.raises(ConfigurationError):
        parse_config_file(path)
    # one-level deltas and rho_factor are the only spellings of these settings
    for key in ("delta", "rho"):
        path.write_text(f"problem = diag-unbounded\n{key} = 0.3\n")
        with pytest.raises(ConfigurationError, match=f"unknown key '{key}'"):
            parse_config_file(path)
        assert main(["sweep", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_config_file_rejects_bad_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("n = many\n")
    with pytest.raises(ConfigurationError):
        parse_config_file(path)
    # a line without '=' is named by its number
    path.write_text("# a comment line is fine\nproblem diag-unbounded\n")
    with pytest.raises(ConfigurationError, match=r":2: expected 'key = value'"):
        parse_config_file(path)


def test_config_file_that_is_not_utf8_is_a_named_error(tmp_path, capsys):
    path = tmp_path / "latin.cfg"
    path.write_bytes(b"problem = volterra-int\n# \xff\n")
    with pytest.raises(ConfigurationError, match="latin.cfg: not a UTF-8 text file"):
        parse_config_file(path)
    assert main(["sweep", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_output_path_with_a_nul_is_a_named_error(tmp_path, capsys):
    # a config file can carry a NUL, which no path may hold; it is rejected
    # before any cell runs, not by open() after the sweep
    path = tmp_path / "nul.cfg"
    path.write_text("problem = diag-unbounded\nn = 8\nout = a\0b.csv\n")
    assert main(["sweep", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: output path 'a\\x00b.csv' has a NUL character\n")


def test_seed_derivation_is_append_stable():
    short = SweepConfig(problem="diag-unbounded", deltas=(1e-1, 1e-2))
    longer = SweepConfig(problem="diag-unbounded", deltas=(1e-1, 1e-2, 1e-3))
    for j in range(2):
        assert delta_seed(short, j) == delta_seed(longer, j)


def test_single_solve_passes_certificates():
    config = SweepConfig(problem="diag-unbounded", n=64, method="variational",
                         deltas=(1e-2,), seed=42)
    report = run_solve(config)
    (row,) = report.rows
    assert row.cert_18 and row.cert_19 and row.cert_110
    assert row.cert_24 is None and row.cert_26 is None
    assert report.exit_code == 0


def test_csv_header_is_the_readme_column_block(tmp_path):
    # the header comes from SweepRow's fields, so it is pinned to the literal
    # column block users read, not to itself
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = readme.split("The sweep CSV has the fixed column order", 1)[1]
    block = block.split("```\n", 2)[1]
    header = block.replace("\n", "")
    assert ",".join(CSV_COLUMNS) == header
    assert CERT_COLUMNS == ("cert_18", "cert_19", "cert_110", "cert_24", "cert_26")
    out = tmp_path / "one.csv"
    run_sweep(SweepConfig(problem="diag-unbounded", n=8, deltas=(1e-2,), out=str(out)))
    assert out.read_text().splitlines()[0] == header


def test_sweep_row_and_column_contract(tmp_path):
    out = tmp_path / "sweep.csv"
    config = SweepConfig(problem="diag-unbounded", n=32, method="both",
                         deltas=(1e-1, 1e-2, 1e-3), seed=42, out=str(out))
    report = run_sweep(config)
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 3 * 2  # header plus one row per (delta, method)
    assert report.exit_code == 0

    header = lines[0].split(",")
    for line in lines[1:]:
        cells = dict(zip(header, line.split(",")))
        assert cells["wall_ms"] == ""
        if cells["method"] == "variational":
            assert cells["cert_24"] == "" and cells["cert_26"] == ""
            assert cells["F_value"] != ""
        else:
            assert cells["cert_18"] == cells["cert_19"] == cells["cert_110"] == ""
            assert cells["F_value"] == ""
        # full-precision decimals round-trip
        assert float(cells["delta"]) in config.deltas
        if cells["error_l2"]:
            float(cells["error_l2"])


def test_sweep_is_deterministic(tmp_path):
    for problem, n in (("volterra-int", 32), ("autoconv", 16)):
        config = dict(problem=problem, n=n, method="both", deltas=(1e-1, 1e-3), seed=42)
        first = run_sweep(SweepConfig(**config, out=str(tmp_path / "a.csv")))
        run_sweep(SweepConfig(**config, out=str(tmp_path / "b.csv")))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert all(row.solver_error is None for row in first.rows), problem
        assert first.error_decreasing("variational") is True, problem
        assert first.error_decreasing("quasi") is True, problem


def test_rows_sorted_descending_regardless_of_config_order():
    config = SweepConfig(problem="diag-unbounded", n=32, method="variational",
                         deltas=(1e-3, 1e-1))
    report = run_sweep(config)
    assert [row.delta for row in report.rows] == [1e-1, 1e-3]


def test_negative_control_flags_certificate():
    # a radius of half the truth's phi excludes the truth from the compactum
    config = SweepConfig(problem="diag-unbounded", n=64, method="quasi",
                         deltas=(1e-2, 1e-3), seed=42, rho_factor=0.5)
    report = run_sweep(config)
    assert report.exit_code == 2
    assert report.rows[0].cert_24 is False


def test_single_solve_negative_control_exit_two():
    config = SweepConfig(problem="diag-unbounded", n=64, method="quasi",
                         deltas=(1e-2,), seed=42, rho_factor=0.5)
    report = run_solve(config)
    assert report.rows[0].cert_24 is False
    assert report.exit_code == 2


def test_cli_solve_exit_zero(capsys):
    code = main(["sweep", "--problem", "diag-unbounded", "--n", "32",
                 "--method", "variational", "--deltas", "1e-2", "--seed", "42"])
    assert code == 0
    out = capsys.readouterr().out
    assert "all-certificates-pass: True" in out
    # the variational lambda is about 2e240 here, far beyond the doubling bracket
    for name in LINEAR:
        assert main(["sweep", "--problem", name, "--n", "16", "--deltas", "1e120"]) == 0
        assert "all-certificates-pass: True" in capsys.readouterr().out
    # subnormal noise levels, where 2*delta*r underflows to 0
    for delta in ("1e-320", "5e-324"):
        for name in LINEAR + ("autoconv",):
            assert main(["sweep", "--problem", name, "--n", "16", "--deltas", delta]) == 0
            assert "all-certificates-pass: True" in capsys.readouterr().out


def test_cli_solve_writes_out(tmp_path, capsys):
    out = tmp_path / "solve.csv"
    code = main(["sweep", "--problem", "diag-unbounded", "--n", "32",
                 "--deltas", "1e-2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["0.01", "variational"], ["0.01", "quasi"]]
    capsys.readouterr()


def test_cli_rejects_bad_config(capsys):
    assert main(["sweep", "--problem", "no-such-problem", "--deltas", "1e-2"]) == 1
    assert main(["sweep", "--problem", "diag-unbounded", "--deltas", "-1"]) == 1
    assert main(["sweep", "--deltas", "1e-1"]) == 1  # problem missing
    assert main(["sweep", "--problem", "volterra-int", "--deltas", "1e-1,abc"]) == 1
    assert main(["sweep", "--problem", "volterra-int", "--deltas", "1e-2",
                 "--alpha1", "nan"]) == 1
    assert main(["sweep", "--problem", "volterra-int", "--deltas", "1e-2",
                 "--alpha0", "nan"]) == 1
    # usage errors exit 1 as well; argparse's own code 2 means a failed verdict
    assert main(["sweep", "--problem", "volterra-int", "--deltas", "1e-2",
                 "--n", "abc"]) == 1
    assert main(["sweep", "--problem", "volterra-int", "--deltas", "1e-2",
                 "--method", "bayes"]) == 1
    assert main(["sweep", "--problem", "volterra-int", "--seed", "-1"]) == 1
    assert main(["sweep", "--problem", "volterra-int", "--no-such-flag", "1"]) == 1
    assert main(["sweep", "--problem", "volterra-int", "--deltas", "1e-1,1e200"]) == 1
    # a bad kernel width fails before the kernel is built, so before any
    # RuntimeWarning of numpy
    for sigma in ("-1", "0", "1e-200", "nan", "inf"):
        assert main(["sweep", "--problem", "fredholm-gauss", "--n", "16",
                     "--deltas", "1e-2", "--sigma=" + sigma]) == 1, sigma
    err = capsys.readouterr().err
    assert err.count("error:") == 16
    assert "could not convert string to float: 'abc'" in err
    # removed settings and abbreviations are usage errors: --rho is not taken
    # for --rho-factor, nor --noise for --noise-mode
    for flags in (["--delta", "1e-2"], ["--rho", "0.3"], ["--noise", "exact-norm"]):
        assert main(["sweep", "--problem", "diag-unbounded", *flags]) == 1
        assert capsys.readouterr().err == (
            f"error: unrecognized arguments: {' '.join(flags)}\n")


def test_cli_has_no_solve_subcommand(capsys):
    # a single solve is a sweep at one noise level
    assert main(["solve", "--problem", "diag-unbounded", "--deltas", "1e-2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "invalid choice: 'solve'" in err


def test_cli_unwritable_output_is_io_error(tmp_path, capsys):
    code = main(["sweep", "--problem", "diag-unbounded", "--n", "32",
                 "--deltas", "1e-1,1e-2", "--method", "variational",
                 "--out", str(tmp_path / "missing-dir" / "x.csv")])
    assert code == 1
    capsys.readouterr()


def test_cli_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "base.cfg"
    cfg.write_text("problem = diag-unbounded\nn = 32\nmethod = variational\n"
                   "deltas = 1e-1\nseed = 42\n")
    out = tmp_path / "o.csv"
    code = main(["sweep", "--config", str(cfg), "--n", "16",
                 "--out", str(out)])
    assert code == 0
    assert out.exists()
    capsys.readouterr()


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "illposed", "sweep", "--problem",
         "diag-unbounded", "--n", "32", "--method", "quasi", "--deltas", "1e-2"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "all-certificates-pass: True" in proc.stdout


def test_convergence_study_script_runs(tmp_path):
    script = [sys.executable, os.path.join(ROOT, "scripts", "convergence_study.py"),
              "--n", "8", "--outdir", str(tmp_path)]
    proc = subprocess.run(script + ["--deltas", "1e-1,1e-2"], env=SRC_ENV,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for name in ("diag-unbounded", "volterra-int", "fredholm-gauss"):
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 2 * 2
    for bad in (["--deltas", "1e-1,abc"], ["--n", "abc"]):
        proc = subprocess.run(script + bad, env=SRC_ENV, capture_output=True, text=True)
        assert proc.returncode == 1, bad
        assert proc.stderr.startswith("error:"), bad


def test_csv_gate_script_runs_and_compares(tmp_path):
    script = [sys.executable, os.path.join(ROOT, "scripts", "csv_gate.py")]
    first, second = tmp_path / "first", tmp_path / "second"
    proc = subprocess.run(script + ["run", str(first), "--linear-n", "8,12",
                                    "--autoconv-n", "8,12"],
                          env=SRC_ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    stems = sorted(name[:-len(".csv")] for name in os.listdir(first)
                   if name.endswith(".csv"))
    assert len(stems) == 15 and "autoconv-n8-seed3" in stems
    assert "fredholm-gauss-n8-alpha0-0" in stems
    shutil.copytree(first, second)

    def compare():
        return subprocess.run(script + ["compare", str(first), str(second)],
                              capture_output=True, text=True)

    proc = compare()
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.count(": byte-identical") == 15
    assert proc.stdout.endswith("identical\nbyte-identical: 15 of 15\n")
    # each run pins BLAS to one thread; runs on other counts are not compared
    assert proc.stdout.startswith("BLAS threads: 1 against 1\n")
    threads = second / "blas_threads"
    assert threads.read_text() == "1\n"
    for other in ("2\n", None):   # another count, and a run that did not pin
        if other is None:
            threads.unlink()
        else:
            threads.write_text(other)
        proc = compare()
        assert proc.returncode == 1, proc.stdout
        assert "the runs are not comparable" in proc.stdout
    threads.write_text("1\n")
    # a differing exit code fails the gate, even with byte-identical files
    out_path = second / "diag-unbounded-n8.out"
    summary = out_path.read_text()
    assert summary.endswith("\nexit: 0\n")
    out_path.write_text(summary.replace("\nexit: 0\n", "\nexit: 2\n"))
    proc = compare()
    assert proc.returncode == 1, proc.stdout
    assert "== diag-unbounded-n8: byte-identical\n   exit code 0 against 2" in proc.stdout
    out_path.write_text(summary)
    # a moved number is measured; a flipped verdict or a new failure fails
    csv_path = second / "volterra-int-n8.csv"
    lines = csv_path.read_text().splitlines()
    cells = lines[1].split(",")
    error = CSV_COLUMNS.index("error_l2")
    cells[error] = repr(float(cells[error]) * 1.5)
    csv_path.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
    proc = compare()
    assert proc.returncode == 0, proc.stdout
    assert "== volterra-int-n8: differs" in proc.stdout
    assert "max rel change 3.33e-01" in proc.stdout
    assert proc.stdout.endswith("\nbyte-identical: 14 of 15\n")
    cells[CSV_COLUMNS.index("cert_18")] = "false"
    csv_path.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
    out_path.write_text(out_path.read_text().replace(
        "[pass 24,26]", "[SOLVER FAILURE (injected)]", 1))
    proc = compare()
    assert proc.returncode == 1, proc.stdout
    assert "cert_18 true against false" in proc.stdout
    assert "solver_error None against 'injected'" in proc.stdout


def test_gn_probe_script_runs_and_counts_failing_cells(capsys):
    path = os.path.join(ROOT, "scripts", "gn_probe.py")
    proc = subprocess.run([sys.executable, path, "--seeds", "1"], env=SRC_ENV,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "== probe: 16 cells, 0 failing" in proc.stdout
    assert "== round-off twins: 16 cells, 0 failing" in proc.stdout
    assert "worst twin error_l2 change: " in proc.stdout
    assert "; pencil decompositions: " in proc.stdout
    assert "; pencil fallbacks: " in proc.stdout
    assert "; lam = 0 starts: " in proc.stdout
    assert re.search(r"root finds: \d+, path evaluations: O\(k\) \d+, direct \d+, "
                     r"factored [1-9]", proc.stdout)
    assert "quasi       delta=0.0001   error_l2 gmean " in proc.stdout
    assert proc.stdout.endswith("failing cells: 0\n")
    # a solver error or a false verdict is a failing cell
    spec = importlib.util.spec_from_file_location("gn_probe", path)
    gn_probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gn_probe)
    cells = [("a", SweepRow(delta=0.1, method="quasi", error_l2=0.5, cert_24=True)),
             ("b", SweepRow(delta=0.1, method="quasi", solver_error="injected")),
             ("c", SweepRow(delta=0.1, method="variational", cert_18=False))]
    assert gn_probe.summarize("cells", cells, [], 0) == 2
    out = capsys.readouterr().out
    assert "== cells: 3 cells, 2 failing" in out
    assert "FAIL b delta=0.1 quasi: injected" in out
    assert "FAIL c delta=0.1 variational: false cert_18" in out
    # its recorder counts in process, and leaves the package and numpy as they
    # were, also where the part it records raises
    originals = (tikhonov.path_solve, np.linalg.eigh, sweep.solve_one)
    cells, finds, decompositions = gn_probe.recorded(gn_probe.probe, 1)
    assert len(cells) == 16 and len(finds) > 16 and decompositions > 0

    def injected():
        raise SolverFailureError("injected")

    with pytest.raises(SolverFailureError, match="injected"):
        gn_probe.recorded(injected)
    assert all(now is was for now, was in zip(
        (tikhonov.path_solve, np.linalg.eigh, sweep.solve_one), originals))


def test_nonlinear_sweep_does_not_load_scipy():
    code = ("import sys\n"
            "from illposed import SweepConfig, run_sweep\n"
            "run_sweep(SweepConfig(problem='autoconv', n=8, deltas=(1e-1, 1e-2)))\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n")
    proc = subprocess.run([sys.executable, "-c", code], env=SRC_ENV,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_csv_cells_reflect_rows():
    from illposed.sweep import SweepRow
    row = SweepRow(delta=0.1, method="variational", error_l2=0.25,
                   residual_noisy=float("nan"), cert_18=True, cert_24=None)
    text = rows_to_csv([row])
    cells = dict(zip(CSV_COLUMNS, text.splitlines()[1].split(",")))
    assert cells["delta"] == "0.1"
    assert cells["error_l2"] == "0.25"
    assert cells["residual_noisy"] == ""  # nan is not a reportable number
    assert cells["cert_18"] == "true"
    assert cells["cert_24"] == ""


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


LINEAR = ("diag-unbounded", "volterra-int", "fredholm-gauss")


def check_rows_or_named_failures(config):
    """A sweep that ends in one row per cell, each with finite fields and
    verdicts or a named solver failure; or, exactly when phi's matrix, phi(y)
    or the radius leaves the float range, in a named rejection before any
    cell runs."""
    problem = build_problem(config.problem, config.n)
    stab = Stabilizer(config.alpha0, config.alpha1)
    with np.errstate(over="ignore"):
        finite = bool(np.isfinite(penalty_matrix(stab, problem.grid)).all())
    phi_y = phi_value(stab, problem.grid, problem.y_true)
    rho = config.rho_factor * phi_y
    if not (finite and math.isfinite(phi_y)
            and ("quasi" not in config.methods or 0.0 < rho < math.inf)):
        with pytest.raises((ConfigurationError, InvalidParameterError)):
            run_sweep(config)
        return
    report = run_sweep(config)
    assert [(row.delta, row.method) for row in report.rows] == [
        (delta, method) for delta in sorted(config.deltas, reverse=True)
        for method in config.methods]
    for row in report.rows:
        if row.solver_error is not None:
            assert row.solver_error.strip()
            continue
        fields = ["error_l2", "residual_noisy", "residual_exact", "phi_u"]
        if problem.op.is_linear:
            fields.append("lambda_star")
        certs = ["cert_24", "cert_26"]
        if row.method == "variational":
            fields.append("F_value")
            certs = ["cert_18", "cert_19", "cert_110"]
        for field in fields:
            assert math.isfinite(getattr(row, field)), field
        for cert in certs:
            assert isinstance(getattr(row, cert), bool), cert


# any weight the stabilizer accepts, zero included
WEIGHTS = st.one_of(st.just(0.0), log_uniform(5e-324, 1e308),
                    st.floats(0.0, sys.float_info.max))


def sweep_config(name, n, alpha0, alpha1, deltas, rho_factor, seed):
    assume(alpha0 > 0.0 or alpha1 > 0.0)
    # the compactum of the quasisolution method needs alpha0 > 0
    return SweepConfig(problem=name, n=n, alpha0=alpha0, alpha1=alpha1,
                       method="both" if alpha0 > 0.0 else "variational",
                       deltas=tuple(deltas), rho_factor=rho_factor, seed=seed)


@settings(derandomize=True, deadline=None, max_examples=40)
# a root beyond the largest float lambda is a named failure, not an overflow
@example(name="volterra-int", n=16, alpha0=1.0, alpha1=1.0, deltas=[1e120, 1.3e154],
         rho_factor=1.5, seed=0)
# a subnormal noise level, where 2*delta*r underflows to 0
@example(name="volterra-int", n=16, alpha0=1.0, alpha1=1.0, deltas=[1e-320, 5e-324],
         rho_factor=1.5, seed=0)
# pencil values near 1e-300, where 0.25*eps*theta underflows to 0
@example(name="fredholm-gauss", n=16, alpha0=1e300, alpha1=1.0, deltas=[0.1, 0.01],
         rho_factor=1.5, seed=0)
# the slope weight overflows the matrix of phi, but not phi(y) or the radius
@example(name="volterra-int", n=12, alpha0=1.0, alpha1=1e307, deltas=[0.1, 0.01],
         rho_factor=1.5, seed=0)
# rho / phi underflows to 0 in the quasi slack, which takes two logs there
@example(name="volterra-int", n=16, alpha0=1e-250, alpha1=0.0, deltas=[1e66],
         rho_factor=1.5, seed=0)
@given(name=st.sampled_from(LINEAR),
       n=st.integers(4, 48),
       alpha0=WEIGHTS,
       alpha1=WEIGHTS,
       deltas=st.lists(log_uniform(1e-5, 0.5), min_size=2, max_size=2, unique=True),
       rho_factor=st.floats(0.1, 10.0),
       seed=st.integers(0, 2**31 - 1))
def test_linear_cells_end_in_a_row_or_a_named_failure(name, n, alpha0, alpha1,
                                                      deltas, rho_factor, seed):
    check_rows_or_named_failures(
        sweep_config(name, n, alpha0, alpha1, deltas, rho_factor, seed))


@settings(derandomize=True, deadline=None, max_examples=30)
# the slope weight overflows the matrix of phi
@example(n=12, alpha0=2.65e222, alpha1=4.55e307, deltas=[0.1, 0.01], rho_factor=1.5,
         seed=0)
# Gauss-Newton trials whose image or objective overflows count as worse trials
@example(n=8, alpha0=3.704863832194004e-176, alpha1=0.0,
         deltas=[3.32394461547222e+116, 8.273290143598097e+26],
         rho_factor=52.62107434883611, seed=102)
@example(n=4, alpha0=0.0, alpha1=1.0,
         deltas=[1.3932615067974016e+60, 4.644104924088823e+128],
         rho_factor=0.0031160044623296497, seed=519)
@example(n=4, alpha0=0.0, alpha1=1.0, deltas=[1.0, 1e154], rho_factor=1.0, seed=11)
@given(n=st.integers(4, 24),
       alpha0=WEIGHTS,
       alpha1=WEIGHTS,
       deltas=st.lists(log_uniform(1e-5, 0.5), min_size=2, max_size=2, unique=True),
       rho_factor=st.floats(0.1, 10.0),
       seed=st.integers(0, 2**31 - 1))
def test_autoconv_cells_end_in_a_row_or_a_named_failure(n, alpha0, alpha1, deltas,
                                                        rho_factor, seed):
    check_rows_or_named_failures(
        sweep_config("autoconv", n, alpha0, alpha1, deltas, rho_factor, seed))


def test_overflowing_phi_is_the_infeasible_side():
    # at these weights phi of some path points overflows to inf; such a point
    # lies outside the compactum, so the root find closes its bracket on the
    # finite side and every quasi cell passes its bounds, with RuntimeWarning
    # an error as in this suite and without
    for name, n, alpha0 in [("fredholm-gauss", 64, 1e300), ("volterra-int", 64, 1e306),
                            ("autoconv", 16, 1e300), ("autoconv", 16, 1e306)]:
        report = run_sweep(SweepConfig(problem=name, n=n, alpha0=alpha0,
                                       method="quasi"))
        assert len(report.rows) == 4
        for row in report.rows:
            assert row.solver_error is None and row.cert_24 and row.cert_26, row
        proc = subprocess.run(
            [sys.executable, "-m", "illposed", "sweep", "--problem", name,
             "--n", str(n), "--alpha0", repr(alpha0), "--method", "quasi"],
            env=SRC_ENV, capture_output=True, text=True)
        assert proc.returncode == report.exit_code and proc.stderr == "", proc.stderr
        assert proc.stdout.count("[pass 24,26]") == 4, proc.stdout
    # neighbouring weights end in rows with verdicts
    for alpha0, method in [(1e250, "both"), (1e280, "both"), (1e300, "variational")]:
        report = run_sweep(SweepConfig(problem="autoconv", n=16, alpha0=alpha0,
                                       method=method))
        assert all(row.solver_error is None for row in report.rows), (alpha0, method)


# defaults, settings under which some verdicts fail (a radius that excludes
# the truth, quasi), and a subnormal level on autoconv, whose verdicts hold
@pytest.mark.parametrize("name, settings", [
    *((name, {}) for name in LINEAR + ("autoconv",)),
    *((name, {"rho_factor": 0.5}) for name in LINEAR + ("autoconv",)),
    ("autoconv", {"deltas": (1e-1, 1e-320)}),
])
def test_row_verdicts_are_the_certificate_slacks(name, settings):
    config = SweepConfig(problem=name, n=16, **settings)
    report = run_sweep(config)
    problem = build_problem(name, 16)
    stab = Stabilizer(config.alpha0, config.alpha1)
    failed = []
    for row in report.rows:
        assert row.solver_error is None, row
        # the certificates read only these fields of a result
        res = VariationalResult(u_delta=None, residual_noisy=row.residual_noisy,
                                phi_u=row.phi_u, lambda_star=row.lambda_star,
                                F_value=row.F_value)
        if row.method == "variational":
            assert row.F_value == row.residual_noisy + row.delta * row.phi_u
            slacks = variational_certificate(res, problem, row.delta, stab)
        else:
            assert row.F_value is None
            slacks = quasi_certificate(res, row.residual_exact, row.delta)
        verdicts = {column: getattr(row, column) for column in CERT_COLUMNS
                    if getattr(row, column) is not None}
        assert verdicts == {column: slack >= 0.0 for column, slack in slacks.items()}
        failed += [column for column, ok in verdicts.items() if not ok]
    assert bool(failed) == ("rho_factor" in settings), failed


def test_failed_decomposition_fails_every_linear_cell_by_name(monkeypatch):
    def singular(matrix):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", singular)
    for name in LINEAR:
        report = run_sweep(SweepConfig(problem=name, n=16, deltas=(1e-1, 1e-2)))
        assert len(report.rows) == 4
        for row in report.rows:
            assert row.solver_error == "N + lam P is singular at every lambda"
        assert report.exit_code == 2


def unconverged(matrix):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


# (what is patched, the injected fault, the solver error every cell ends in)
EIGH_FAULTS = [
    (np.linalg, "eigh", unconverged,
     "the pencil has no eigendecomposition: Eigenvalues did not converge"),
    (np.linalg, "eigh", lambda matrix: (np.full(len(matrix), np.nan), np.eye(len(matrix))),
     "the pencil has a non-finite eigenvalue"),
    # a non-finite pencil passes Cholesky silently, and the eigensolver fails on it
    (tikhonov, "weighted_product", lambda op, x: np.full(x.shape, np.nan),
     "the pencil has no eigendecomposition: Eigenvalues did not converge"),
]


@pytest.mark.parametrize("owner, name, fault, error", EIGH_FAULTS,
                         ids=["eigh-raises", "eigh-nan", "nan-pencil"])
def test_failed_eigendecomposition_fails_every_cell_by_name(owner, name, fault, error,
                                                            monkeypatch, capsys):
    monkeypatch.setattr(owner, name, fault)
    for problem in LINEAR + ("autoconv",):
        report = run_sweep(SweepConfig(problem=problem, n=16, deltas=(1e-1, 1e-2)))
        assert [row.solver_error for row in report.rows] == [error] * 4, problem
        assert report.exit_code == 2
    assert main(["sweep", "--problem", "volterra-int", "--n", "16"]) == 2
    out = capsys.readouterr().out
    assert out.count(f"[SOLVER FAILURE ({error})]") == 8, out


def test_penalty_bands_are_formed_once_per_sweep(monkeypatch):
    # the sweep's one Tikhonov path forms P's bands for the sweep's own check,
    # and hands them to every linearization and factored path of Gauss-Newton
    owners = tuple(module for key, module in sys.modules.items()
                   if key.startswith("illposed.") and hasattr(module, "penalty_bands"))
    formed = calls(monkeypatch, owners, "penalty_bands")
    finds = recorded_root_finds(monkeypatch)   # one root find per Gauss-Newton step
    assert run_sweep(SweepConfig(problem="volterra-int", n=64)).exit_code == 0
    assert len(formed) == 1
    del finds[:]
    report = run_sweep(SweepConfig(problem="autoconv", n=64, deltas=(0.2, 0.02)))
    assert all(row.solver_error is None for row in report.rows)
    assert len(finds) - len(report.rows) >= 2   # later Gauss-Newton steps
    assert len(formed) == 2


@pytest.mark.parametrize("name", LINEAR)
def test_one_decomposition_per_sweep(name, monkeypatch):
    # each Tikhonov path makes exactly one eigendecomposition
    decompositions = calls(monkeypatch, np.linalg, "eigh")
    report = run_sweep(SweepConfig(problem=name, n=32, method="both",
                                   deltas=(1e-1, 1e-2, 1e-3, 1e-4)))
    assert len(report.rows) == 8
    assert all(row.solver_error is None for row in report.rows)
    assert len(decompositions) == 1
    run_solve(SweepConfig(problem=name, n=32, method="both"))
    assert len(decompositions) == 2


def pencil_steps(finds):
    """The Gauss-Newton steps among ``finds`` solved on a pencil: each has an
    O(k) phase, and a factored find has none unless it fell back."""
    return [find for find in finds if find.coarse]


def test_gauss_newton_decomposes_once_per_step(monkeypatch):
    # every step linearizes once; a later step decomposes its pencil only
    # where it starts at lam = 0 or its factored root find falls back
    decompositions = calls(monkeypatch, np.linalg, "eigh")
    finds = recorded_root_finds(monkeypatch)
    # one linearized operator per step not shared
    steps = calls(monkeypatch, tikhonov, "dense_operator")
    jacobians = calls(monkeypatch, tikhonov, "jacobian")
    report = run_sweep(SweepConfig(problem="autoconv", n=16, deltas=(1e-1, 1e-2)))
    assert all(row.solver_error is None for row in report.rows)
    assert len(steps) > len(report.rows)
    assert len(finds) == len(steps) + len(report.rows) - 1   # one shared first step
    assert len(jacobians) == len(steps)
    assert len(decompositions) == 1 + len(pencil_steps(finds)) - len(report.rows) == 1


# (rho_factor, deltas, distinct start points, decompositions of the autoconv sweep
# at n=64): at rho_factor 0.3 the profile 1 lies outside K, so the quasi cells
# start from its projection and the variational ones from the profile itself
SHARED_FIRST_PENCILS = [(1.5, (0.2, 0.02), 1, 1), (0.3, (1e-1, 1e-2, 1e-3, 1e-4), 2, 2)]


@pytest.mark.parametrize("rho_factor, deltas, starts, decompositions",
                         SHARED_FIRST_PENCILS)
def test_gauss_newton_shares_the_first_pencil_of_each_start_point(
        rho_factor, deltas, starts, decompositions, monkeypatch):
    # every cell of a sweep starts Gauss-Newton from project(1), so each distinct
    # start point is linearized and decomposed once per sweep, and a later step
    # decomposes its own pencil only where it starts at lam = 0 or falls back
    # from its factored root find; the rows are those of cells that share
    # nothing, as the shared first step is the same arithmetic
    config = SweepConfig(problem="autoconv", n=64, rho_factor=rho_factor, deltas=deltas)
    problem = build_problem(config.problem, config.n)
    stab = Stabilizer(config.alpha0, config.alpha1)
    K = Compactum(stab, resolve_rho(config, problem, stab))
    ones = domain_project(problem.op, np.ones(config.n))
    assert len({ones.tobytes(), project_onto(K, problem.grid, ones).tobytes()}) == starts
    decomposed = calls(monkeypatch, np.linalg, "eigh")
    steps = recorded_root_finds(monkeypatch)   # one root find per Gauss-Newton step
    shared = run_sweep(config)
    assert all(row.solver_error is None for row in shared.rows)
    assert len(steps) > len(shared.rows)
    assert len(decomposed) == starts + len(pencil_steps(steps)) - len(shared.rows)
    assert len(decomposed) == decompositions
    apart = [run_sweep(replace(config, method=method)).rows for method in config.methods]
    assert rows_to_csv(shared.rows) == rows_to_csv(
        [row for cells in zip(*apart) for row in cells])
    fresh = []
    for j, delta in enumerate(config.deltas):  # the levels descend
        f_delta = inject_noise(problem.grid, problem.f_exact, delta,
                               delta_seed(config, j))
        fresh += [solve_one(problem, method, delta, f_delta, stab, K, None)
                  for method in config.methods]
    assert rows_to_csv(shared.rows) == rows_to_csv(fresh)


# autoconv sweeps at n=16: the defaults; two whose quasi rows move by 33% and
# 40% where factored points reach below n eps / GN_RTOL into the directions the
# pencil truncates; and two whose P is so small beside N that below the floor's
# |N| / |P| factor the dense solve does not resolve lam P against N's round-off
FACTORED_SWEEPS = [*({"seed": seed} for seed in (1, 2, 3)),
                   {"alpha0": 0.1, "alpha1": 0.1, "rho_factor": 3.0, "seed": 2},
                   {"alpha0": 10.0, "alpha1": 0.1, "rho_factor": 1.5, "seed": 2},
                   {"alpha0": 1e-10, "alpha1": 0.0, "seed": 1},
                   {"alpha0": 3.5e-12, "alpha1": 0.0, "rho_factor": 6.4, "seed": 1}]


@pytest.mark.parametrize("settings", FACTORED_SWEEPS,
                         ids=["seed1", "seed2", "seed3", "rho-factor-3", "alpha0-10",
                              "alpha0-1e-10", "alpha0-3.5e-12"])
def test_factored_steps_keep_the_rows_of_pencil_steps(settings, monkeypatch):
    # a later step's root find accepts its own point within GN_RTOL, so the
    # rows may move on that scale, and their verdicts may not move at all
    config = SweepConfig(problem="autoconv", n=16, **settings)
    factored = run_sweep(config).rows

    def unresolved(data, t):   # every factored step falls back to its pencil
        raise SolverFailureError(f"no factored point at t = {t:g}")

    monkeypatch.setattr(tikhonov.FactoredData, "point", unresolved)
    pencil = run_sweep(config).rows
    assert len(factored) == len(pencil) == 8
    for a, b in zip(factored, pencil):
        assert a.solver_error == b.solver_error
        assert [getattr(a, c) for c in CERT_COLUMNS] == [getattr(b, c) for c in CERT_COLUMNS]
        for name in ("error_l2", "residual_noisy", "residual_exact", "phi_u"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), rel=2e-3), name
    assert sum(row.solver_error is None for row in factored) >= 4


def test_gauss_newton_forms_each_normal_matrix_once(monkeypatch):
    # a factored step hands its N = J^T W J to its fallback pencil, so each
    # linearization forms N once, where its step falls back too
    finds = recorded_root_finds(monkeypatch)
    normals = calls(monkeypatch, tikhonov, "normal_matrix")
    jacobians = calls(monkeypatch, tikhonov, "jacobian")
    report = run_sweep(SweepConfig(problem="autoconv", n=16, seed=1))
    assert all(row.solver_error is None for row in report.rows)
    # seed 1 has a step whose factored root find falls back to the pencil
    assert any(find.factored and find.coarse for find in finds)
    assert len(normals) == len(jacobians) > len(report.rows)


def test_gauss_newton_steps_are_solved_to_the_outer_tolerance(monkeypatch):
    finds = recorded_root_finds(monkeypatch)
    report = run_sweep(SweepConfig(problem="autoconv", n=16, deltas=(1e-1, 1e-2)))
    assert all(row.solver_error is None for row in report.rows)
    assert len(finds) > len(report.rows)
    assert {find.tol for find in finds} == {tikhonov.GN_RTOL}
    # after the first step of a cell, the search starts at the previous lambda
    assert sum(find.start != 0.0 for find in finds) >= len(finds) - len(report.rows)
    assert sum(len(find.points) for find in finds) / len(finds) <= 15


def test_gauss_newton_restarts_at_the_floor_after_lam_zero(monkeypatch):
    finds = recorded_root_finds(monkeypatch)
    for seed in (1, 2, 3):
        report = run_sweep(SweepConfig(problem="autoconv", n=16, method="quasi",
                                       seed=seed))
        assert all(row.solver_error is None for row in report.rows)
    # the steps of each Gauss-Newton solve
    after_zero = [later for steps in by_solve(finds)
                  for earlier, later in zip(steps, steps[1:])
                  if earlier.root == -math.inf]
    # a step at lam = 0 is followed by a search from lam = 0 on a factored path,
    # whose floor it cannot give, so the search runs on the fallback pencil from
    # the pencil's floor, as lam = 0 is the truncated pencil's least-squares point
    assert after_zero
    assert all(isinstance(find.path, tikhonov.FactoredPath) for find in after_zero)
    assert all(find.points[0] == find.path.fallback.t_floor for find in after_zero)
    assert all(find.coarse and not find.factored for find in after_zero)
    assert all(find.coarse for find in finds if find.root == -math.inf)
    assert sum(len(find.points) for find in finds) <= 300


def test_linear_root_finds_keep_root_tol_from_lam_one(monkeypatch):
    finds = recorded_root_finds(monkeypatch)
    report = run_sweep(SweepConfig(problem="volterra-int", n=16, method="both"))
    assert all(row.solver_error is None for row in report.rows)
    assert len(finds) == len(report.rows)
    assert {(find.tol, find.start) for find in finds} == {(tikhonov.ROOT_TOL, 0.0)}


# the most path evaluations of one root find in the default n=64 linear sweeps
MOST_EVALUATIONS = {"variational": 20, "quasi": 15}
# the most direct evaluations of one root find: in the default n=64 linear
# sweeps, and in n=16 sweeps down to delta = 1e-6, where some variational roots
# lie near lam = 1e-17 and their direct finish is limited by float resolution
MOST_DIRECT = 8
MOST_DIRECT_AT_RESOLUTION = 12


@pytest.mark.parametrize("method", sorted(MOST_EVALUATIONS))
def test_root_finds_take_few_evaluations(method, monkeypatch):
    # Newton on the exact slope; the bracket search and Illinois steps took about
    # 30.  Most are O(k) points, and one or two direct ones finish a find
    finds = recorded_root_finds(monkeypatch)
    for name in LINEAR:
        report = run_sweep(SweepConfig(problem=name, n=64, method=method))
        assert all(row.solver_error is None for row in report.rows)
    counts = [len(find.points) for find in finds]
    assert len(counts) == 3 * len(SweepConfig(problem=LINEAR[0]).deltas)
    assert sum(counts) / len(counts) <= 10
    assert max(counts) <= MOST_EVALUATIONS[method]
    assert sum(len(find.direct) for find in finds) / len(finds) <= 3
    assert max(len(find.direct) for find in finds) <= MOST_DIRECT
    # a finish on round-off values ends at its O(k) root once their rise across
    # the bracket departs from the slope's; bisecting them to float resolution
    # took 30 to 49 direct points
    finds.clear()
    for name in LINEAR:
        for seed in (1, 2, 3):
            report = run_sweep(SweepConfig(problem=name, n=16, method=method, seed=seed,
                                           deltas=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)))
            assert all(row.solver_error is None for row in report.rows)
    assert max(len(find.direct) for find in finds) <= MOST_DIRECT_AT_RESOLUTION


# lambda_star of the rows of each method in the sweep below, as the bracket search
# and Illinois steps found them; Newton on the exact slopes keeps them to 1e-8
OVERFLOW_LAMBDAS = {
    "volterra-int": {"variational": [2.000000000000048e200, 2.0331366043292087],
                     "quasi": [1.728402807919276e-201, 6.508321296100668e-302]},
    "diag-unbounded": {"variational": [2.000000000000048e200, 5.619700396480739],
                       "quasi": [4.54699003795503e-200, 2.084774723668636e-301]},
}


@pytest.mark.parametrize("name", sorted(OVERFLOW_LAMBDAS))
def test_huge_penalty_and_noise_keep_lambda_in_range(name):
    # weights 1e300 and 1e-300 with a noise level of 1e100 put the variational root
    # near lam = 2e200, where a Newton point can leave the float range; the suite
    # fails on any RuntimeWarning, an overflow included
    config = SweepConfig(problem=name, n=16, alpha0=1e300, alpha1=1e-300,
                         deltas=(1e100, 1.0))
    report = run_sweep(config)
    assert len(report.rows) == 4
    assert all(row.solver_error is None for row in report.rows)
    for method, expected in OVERFLOW_LAMBDAS[name].items():
        found = [row.lambda_star for row in report.rows if row.method == method]
        assert found == pytest.approx(expected, rel=1e-8)
    # the quasi root is approached from the feasible side
    stab = Stabilizer(config.alpha0, config.alpha1)
    rho = resolve_rho(config, build_problem(name, 16), stab)
    assert all(row.phi_u <= rho * (1.0 + 1e-12)
               for row in report.rows if row.method == "quasi")


@pytest.mark.parametrize("alpha0", [0.0, 1.0])
@pytest.mark.parametrize("name", LINEAR)
def test_shared_decomposition_changes_no_bit(name, alpha0, monkeypatch):
    config = SweepConfig(problem=name, n=64, alpha0=alpha0,
                         method="both" if alpha0 > 0.0 else "variational")
    coefficients = calls(monkeypatch, PathData, "__init__")   # data vectors
    applied = calls(monkeypatch, (operators, tikhonov, variational), "apply")
    points = calls(monkeypatch, tikhonov, "path_solve", results=True)
    shared = run_sweep(config)
    # the cells of one level share its coefficients, and each returned point
    # meets A once, for its residual and for residual_exact alike
    assert len(coefficients) == len(config.deltas)
    assert len(points) == len(shared.rows)
    assert [sum(call["u"] is point.u for call in applied)
            for point in points] == [1] * len(points)
    monkeypatch.undo()
    problem = build_problem(name, 64)
    stab = Stabilizer(config.alpha0, config.alpha1)
    K = Compactum(stab, resolve_rho(config, problem, stab)) if alpha0 > 0.0 else None
    fresh = []
    for j, delta in enumerate(config.deltas):  # the default levels descend
        f_delta = inject_noise(problem.grid, problem.f_exact, delta,
                               delta_seed(config, j))
        for method in config.methods:
            fresh.append(solve_one(problem, method, delta, f_delta, stab, K,
                                   TikhonovPath(problem.op, stab)))
    assert rows_to_csv(shared.rows) == rows_to_csv(fresh)


@pytest.mark.parametrize("name", ["volterra-int", "autoconv"])
def test_a_sweep_frees_its_paths_without_the_cycle_collector(name, monkeypatch):
    # a path keeps its last PathData; were that to point back at the path, the
    # cycle would keep every decomposed pencil alive until the collector ran
    refs, new_path = [], TikhonovPath

    def tracked(*args):
        path = new_path(*args)
        refs.append(weakref.ref(path))
        return path

    for module in (sweep, tikhonov):   # the sweep's path and each linearization
        monkeypatch.setattr(module, "TikhonovPath", tracked)
    gc.disable()
    try:
        report = run_sweep(SweepConfig(problem=name, n=16))
        assert all(row.solver_error is None for row in report.rows)
        assert refs and all(ref() is None for ref in refs)
    finally:
        gc.enable()


@pytest.mark.parametrize("flags", [["--alpha0", "0"], ["--rho-factor", "-1"]])
def test_settings_are_checked_before_any_cell(flags, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("a solver ran before the settings were checked")

    monkeypatch.setattr(sweep, "minimize_variational", never)
    monkeypatch.setattr(sweep, "minimize_on_compactum", never)
    assert main(["sweep", "--problem", "volterra-int", *flags]) == 1
    assert capsys.readouterr().err.startswith("error:")
