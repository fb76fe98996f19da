"""End-to-end tests of the experiment runner."""

import argparse
import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import toeplitz_forge
from toeplitz_forge import cli
from toeplitz_forge import geometry
from toeplitz_forge import quantization_spectral as qs


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _reference_jobs():
    """perfbench's (job, arguments, artifact stem) triples that have a
    reference CSV: every CLI job but phase-expand, whose amplitude the seed
    draws."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    jobs = next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "CLI_JOBS" for t in node.targets))
    return [job for job in jobs if job[0] != "phase-expand"]


REFERENCE_JOBS = _reference_jobs()


def run(args):
    return cli.main(args)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def read_json(path):
    return json.loads(path.read_text())


def test_lemmas_verify(tmp_path):
    code = run(["lemmas", "verify", "--n", "3", "--d", "1",
                "--m-max", "8", "--ell-max", "12", "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "lemmas.csv")
    assert header == ["n", "d", "m", "ell", "value", "bound", "holds"]
    assert rows and all(r[-1] == "true" for r in rows)
    doc = read_json(tmp_path / "lemmas.json")
    assert doc["schema_version"] == "1.0"
    assert doc["passed"] is True
    assert doc["violations"] == 0


def test_geometry_mixed_log(tmp_path):
    code = run(["geometry", "check", "--which", "mixed-log", "--out", str(tmp_path)])
    assert code == 0
    _, rows = read_csv(tmp_path / "geometry.csv")
    assert float(rows[0][4]) < 1e-12


@pytest.mark.parametrize("geom", ["sphere", "plane"])
@pytest.mark.parametrize("which", ["phi1", "psi", "bergman"])
def test_geometry_closed_form_checks(tmp_path, geom, which):
    code = run(["geometry", "check", "--geometry", geom, "--which", which,
                "--out", str(tmp_path)])
    assert code == 0
    doc = read_json(tmp_path / "geometry.json")
    assert doc["worst_relative_error"] < 1e-10


def test_phase_expand_routes_agree(tmp_path):
    code = run(["phase", "expand", "--K", "2", "--degree", "2",
                "--seed", "3", "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "phase.csv")
    assert header == ["k", "wick_re", "wick_im", "morse_re", "morse_im", "error"]
    assert len(rows) == 3
    assert all(float(r[5]) < 1e-8 for r in rows)


def test_symbols_norm_and_inverse(tmp_path):
    assert run(["symbols", "norm", "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "symbols.csv")
    assert header == ["k", "j", "ratio", "constant"]
    assert all(float(r[2]) <= 1.0 + 1e-12 for r in rows)
    assert run(["symbols", "inverse", "--K", "2", "--coeffs", "2.0,0.5,0.25",
                "--out", str(tmp_path)]) == 0
    doc = read_json(tmp_path / "symbols.json")
    assert doc["passed"] is True
    assert float(doc["min_abs_a0"]) > 0


def test_symbols_coeffs_must_match_K(tmp_path, capsys):
    # a list of the wrong length would be a K = 1 run recorded as K = 6
    assert run(["symbols", "norm", "--K", "6", "--coeffs", "1,2", "--out", str(tmp_path)]) == 2
    assert "K = 6 needs 7" in capsys.readouterr().err
    assert not (tmp_path / "symbols.csv").exists()
    assert run(["symbols", "norm", "--K", "1", "--coeffs", "1,2", "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "symbols.csv")
    assert [r[0] for r in rows] == ["0", "1"]
    assert read_json(tmp_path / "symbols.json")["settings"]["K"] == "1"


def test_symbols_sum(tmp_path):
    assert run(["symbols", "sum", "--N", "40", "--out", str(tmp_path)]) == 0
    doc = read_json(tmp_path / "symbols.json")
    assert float(doc["sup_abs"]) <= float(doc["uniform_bound"])


@pytest.mark.parametrize("job, args, stem", REFERENCE_JOBS, ids=[job for job, _, _ in REFERENCE_JOBS])
def test_defaults_write_reference_csv_bytes(tmp_path, job, args, stem):
    # each subcommand at its defaults passes and prints the reference bytes
    assert run([*args, "--out", str(tmp_path)]) == 0
    assert (tmp_path / f"{stem}.csv").read_bytes() == (PERFBENCH / "reference" / f"{job}.csv").read_bytes()


def test_compose_residuals(tmp_path):
    code = run(["compose", "--K", "2", "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "compose.csv")
    assert header == ["k", "basepoint", "coeff_re", "coeff_im", "residual"]
    assert all(float(r[4]) < 1e-8 for r in rows)


def test_bergman_coefficients(tmp_path):
    code = run(["bergman", "--K", "2", "--Nmax", "16", "--out", str(tmp_path)])
    assert code == 0
    doc = read_json(tmp_path / "bergman.json")
    assert doc["max_coefficient_spread"] < 1e-8
    assert doc["identity_defect_at_Nmax"] < 1e-3
    assert 0.99 < doc["min_singular_at_Nmax"] <= 1.0
    _, rows = read_csv(tmp_path / "bergman.csv")
    # leading coefficient of the projector symbol is 1 at every basepoint
    k0 = [r for r in rows if r[0] == "0"]
    assert all(abs(float(r[2]) - 1.0) < 1e-10 for r in k0)


def test_bergman_sphere_low_level_verdict(tmp_path):
    # at the default cutoff the exact matrix is (1 - rho^{N+1}) I, 0.8799 at
    # N = 4: below 0.9, yet the operator is the correct one
    code = run(["bergman", "--geometry", "sphere", "--Nmax", "4", "--out", str(tmp_path)])
    assert code == 0
    doc = read_json(tmp_path / "bergman.json")
    rho = (3.0 + math.sqrt(5.0)) / 8.0
    assert qs.cutoff_rho(geometry.sphere()) == pytest.approx(rho, abs=1e-15)
    assert doc["passed"] is True
    assert abs(doc["min_singular_at_Nmax"] - (1.0 - rho**5)) < 5e-4


def test_bergman_check_sphere_slope(tmp_path):
    code = run(["bergman-check", "--geometry", "sphere", "--Nmax", "32",
                "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "bergman-check.csv")
    assert header == ["N", "sup_error", "slope"]
    assert rows[0][2] == ""  # no slope from a single point
    doc = read_json(tmp_path / "bergman-check.json")
    assert doc["slope"] < 0


def test_bergman_check_plane_exact(tmp_path):
    # the plane expansion is exact: at the default --Nmax 64 some levels
    # carry roundoff of order 1e-13, whose fitted slope must not decide
    for extra in (["--Nmax", "16"], []):
        code = run(["bergman-check", "--geometry", "plane", *extra, "--out", str(tmp_path)])
        assert code == 0
        doc = read_json(tmp_path / "bergman-check.json")
        assert doc["passed"] is True
        assert doc["max_sup_error"] < 1e-10


def test_decay_sweep(tmp_path):
    code = run(["decay", "--N-list", "8,12,16,20", "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "decay.csv")
    assert header == ["N", "lambda", "mass", "c_fit_partial"]
    masses = [float(r[2]) for r in rows]
    assert all(a > b for a, b in zip(masses, masses[1:]))
    assert rows[-1][3] != ""
    doc = read_json(tmp_path / "decay.json")
    assert doc["rate"] > 0.1
    assert doc["fit_quality"] > 0.99
    # the CSV rows are decay_report's rows
    report = qs.decay_report(geometry.sphere(), {(0, 0, 1): 1.0}, 0.0, "x3 >= 1/2",
                             [8, 12, 16, 20])
    assert [r[:3] for r in rows] == [[str(N), repr(ev), repr(m)] for N, ev, _, m in report.rows]


def test_decay_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["decay", "--N-list", "8,12,16,20", "--out", str(out)]) == 0
    assert (a / "decay.csv").read_bytes() == (b / "decay.csv").read_bytes()


def test_config_file_supplies_values(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sweep\nNmax = 16\ngeometry = sphere\n")
    assert run(["bergman-check", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "bergman-check.csv")
    assert len(rows) == 2  # N = 8, 16


@pytest.mark.parametrize("flag", [["--Nmax", "24"], ["--Nmax=24"], ["--Nm", "24"]],
                         ids=["space", "equals", "prefix"])
def test_config_flag_overrides_file(tmp_path, flag):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("Nmax = 16\n")
    assert run(["bergman-check", "--config", str(cfg), *flag, "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "bergman-check.csv")
    assert len(rows) == 3
    assert read_json(tmp_path / "bergman-check.json")["settings"]["Nmax"] == "24"


def test_malformed_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("Nmax 16\n")
    with pytest.raises(SystemExit) as info:
        run(["bergman-check", "--config", str(cfg), "--out", str(tmp_path)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_unknown_config_key_exits_two(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frobnicate = 3\n")
    with pytest.raises(SystemExit) as info:
        run(["bergman-check", "--config", str(cfg), "--out", str(tmp_path)])
    assert info.value.code == 2


def test_positional_config_key_exits_two(tmp_path, capsys):
    # the action is chosen on the command line, never by a config file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("action = sum\n")
    with pytest.raises(SystemExit) as info:
        run(["symbols", "norm", "--config", str(cfg), "--out", str(tmp_path)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (tmp_path / "symbols.csv").exists()


def test_bad_arguments_exit_two(tmp_path, capsys):
    assert run(["decay", "--N-list", "8,12,8", "--out", str(tmp_path)]) == 2
    assert run(["decay", "--geometry", "torus", "--out", str(tmp_path)]) == 2
    assert run(["compose", "--f", "poly:junk", "--out", str(tmp_path)]) == 2
    # exponents are checked once, by the library entry point each job feeds
    assert run(["compose", "--geometry", "plane", "--f", "poly:1,-1=1.0", "--out", str(tmp_path)]) == 2
    assert run(["decay", "--f", "poly:0,0,0,1=1.0", "--out", str(tmp_path)]) == 2
    # the south pole carries no mass, so the rate fit has no rows
    with pytest.warns(UserWarning, match="nonpositive mass"):
        assert run(["decay", "--V", "x3 <= -1", "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_numerical_failure_exits_three(tmp_path, monkeypatch, capsys):
    def boom(*a, **kw):
        raise ArithmeticError("quadrature degree insufficient")

    monkeypatch.setattr(qs, "bergman_kernel_error", boom)
    assert run(["bergman-check", "--Nmax", "16", "--out", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_summary_records_defaults(tmp_path):
    run(["decay", "--N-list", "8,12,16,20", "--out", str(tmp_path)])
    doc = read_json(tmp_path / "decay.json")
    settings = doc["settings"]
    assert settings["geometry"] == "sphere"
    assert settings["f"] == "x3"
    assert settings["V"] == "x3 >= 1/2"
    assert "generated_at" in doc


def test_readme_table_lists_every_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {}
    for line in readme.splitlines():
        m = re.match(r"\| `([\w-]+)([^`]*)` \|", line)
        if m:
            rows[m.group(1)] = set(re.findall(r"--[\w-]+", m.group(2)))
    subs = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    shared = {"--help", "--out", "--seed", "--config"}
    for name, sub in subs.choices.items():
        options = {opt for a in sub._actions for opt in a.option_strings if opt.startswith("--")}
        assert options - shared <= rows[name], name


# Runs one subcommand in this interpreter, then prints the library modules
# and whether numpy.ma was loaded.
_IMPORT_PROBE = """
import json, sys
from toeplitz_forge import cli
code = cli.main(sys.argv[1:])
mods = sorted(m[len("toeplitz_forge."):] for m in sys.modules if m.startswith("toeplitz_forge."))
print(json.dumps({"code": code, "modules": mods, "numpy_ma": "numpy.ma" in sys.modules}))
"""


def test_each_subcommand_imports_only_what_it_runs(tmp_path):
    # fresh interpreters, all started at once: each CLI launch loads the
    # modules its subcommand calls, and the engine path stays off numpy.ma
    always = {"cli", "_kernels"}
    jobs = {
        "lemmas": (["lemmas", "verify", "--m-max", "8", "--ell-max", "4"],
                   always | {"combinatorics", "constants"}),
        "symbols": (["symbols", "norm"], always | {"function_spaces", "series", "constants"}),
        "geometry": (["geometry", "check"], always | {"geometry", "series"}),
        "phase": (["phase", "expand", "--K", "1", "--degree", "1"],
                  always | {"geometry", "series", "stationary_phase"}),
        "decay": (["decay", "--N-list", "8,12,16,20"],
                  always | {"quantization_spectral", "geometry", "series"}),
        "compose": (["compose", "--geometry", "plane", "--f", "poly:0,0=1.0;1,1=0.5",
                     "--g", "poly:0,0=1.0;1,1=-0.333"], None),
    }
    src = str(Path(toeplitz_forge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    procs = {
        name: subprocess.Popen([sys.executable, "-c", _IMPORT_PROBE, *args, "--out", str(tmp_path / name)],
                               env=env, stdout=subprocess.PIPE, text=True)
        for name, (args, _) in jobs.items()
    }
    for name, proc in procs.items():
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, name
        report = json.loads(out.splitlines()[-1])
        assert report["code"] == 0, name
        assert not report["numpy_ma"], name
        expected = jobs[name][1]
        if expected is not None:
            assert set(report["modules"]) == expected, name
