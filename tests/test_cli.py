"""CLI contract tests: subcommands, config handling, exit codes, CSV
round-trips."""

import argparse
import errno
import importlib
import math
import os
import pathlib
import random
import re
import shlex
import sys
import warnings

import numpy as np
import pytest

from siq import __version__
from siq.cli import (_fan_out, build_parser, config_flags, critical_rows, fmt,
                     i_peak, main, read_csv, write_csv)
from siq.errors import (ConfigError, FileParse, HorizonTooShort,
                        NumericalError)
from siq.siq_model import (ModelParams, load_disease_table, outbreak_history,
                           simulate)


# ---------------------------------------------------------------------------
# critical-threshold table
# ---------------------------------------------------------------------------

def test_critical_rows_reproduce_reference_table():
    rows = {name: (pc, tc, flag)
            for name, pc, _, tc, flag in critical_rows(load_disease_table(), 0.8)}
    expected = {
        "H1N1 2016 [Brazil]": (0.41, 4.7),
        "Ebola 2014 [Guin./Lib.]": (0.33, 10.5),
        "Ebola 2014 [Sierra Leone]": (0.6, 3.5),
        "Spanish Flu 1917": (0.5, 3.3),
        "Hepatitis A": (0.56, 4.89),
        "Pertussis": (0.79, 0.91),
    }
    for name, (pc_ref, tc_ref) in expected.items():
        pc, tc, flag = rows[name]
        assert pc == pytest.approx(pc_ref, abs=0.01)
        assert tc == pytest.approx(tc_ref, abs=0.1)
        assert flag == ""
    for name in ("Influenza A", "SARS", "Smallpox"):
        assert "tc-mismatch" in rows[name][2]


def test_critical_rows_uncontrollable_flag():
    rows = critical_rows(load_disease_table(), 0.5)
    by_name = {r[0]: r for r in rows}
    assert "uncontrollable" in by_name["Pertussis"][4]       # p_c = 0.79
    assert by_name["Ebola 2014 [Guin./Lib.]"][4] == ""        # p_c = 0.33
    assert math.isnan(by_name["Pertussis"][3])


def test_cli_refuses_text_cell_holding_a_separator(tmp_path, capsys):
    # a name holding a comma was written as two cells, six under five
    # columns, and read back split; a line break would start a new row
    table = tmp_path / "flu.csv"
    table.write_text('name,r,infectious_period_days,source\n'
                     '"Flu, seasonal",1.3,4,x\n')
    out = tmp_path / "crit.csv"
    assert main(["critical", "--p", "0.8", "--table", str(table), "--out",
                 str(out)]) == 1
    assert "column name: 'Flu, seasonal'" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError, match="column name"):
        write_csv(None, ["name", "x"], [("a\nb", 1.0)], {})
    with pytest.raises(ValueError, match="header table"):
        write_csv(None, ["x"], [(1.0,)], {"table": "a\rb"})


def test_cli_critical_roundtrip(tmp_path, capsys):
    out = tmp_path / "crit.csv"
    assert main(["critical", "--p", "0.8", "--out", str(out)]) == 0
    meta, cols, rows = read_csv(str(out))
    assert cols == ["name", "p_c", "tau_c", "T_c_days", "flag"]
    assert meta["p"] == "0.8"
    assert len(rows) == 9
    flagged = [r[0] for r in rows if "tc-mismatch" in r[4]]
    assert flagged == ["Influenza A", "SARS", "Smallpox"]


# ---------------------------------------------------------------------------
# scenario configuration
# ---------------------------------------------------------------------------

def test_config_file_parsing(tmp_path):
    # a config file is the flags it names; which flags a command takes is
    # argparse's to check
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a scenario\nr = 2.5\n\ni0 = 0.001\nt_end = 10\n"
                   "bogus = 1\n")
    assert config_flags(str(cfg)) == ["--r=2.5", "--i0=0.001", "--t-end=10",
                                      "--bogus=1"]

    bad = tmp_path / "bad.cfg"
    bad.write_text("r = 2.5\nbogus\n")
    with pytest.raises(ConfigError) as err:
        config_flags(str(bad))
    assert str(err.value) == f"{bad}:2: expected key = value"
    with pytest.raises(ConfigError, match="^cannot read config "):
        config_flags(str(tmp_path / "absent.cfg"))


def test_readme_commands_parse(tmp_path):
    # every `siq ...` line of README's sh blocks, continuation lines joined
    # and comments dropped, parses: the documented flags stay in step; the
    # spectral and endemic commands, which take milliseconds, also run and
    # exit 0, their --out redirected
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```sh\n(.*?)^```", readme.read_text(),
                        re.MULTILINE | re.DOTALL)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    commands = [argv[1:] for argv in commands if argv[:1] == ["siq"]]
    assert len(commands) >= 9
    ran = 0
    for k, argv in enumerate(commands):
        build_parser().parse_args(argv)
        if argv[0] in ("endemic", "spectrum", "hopf", "stability-map"):
            out = tmp_path / f"{k}.csv"
            assert main(argv + ["--out", str(out)]) == 0, argv
            assert out.exists()
            ran += 1
    assert ran >= 5


def test_cli_flag_overrides_config(tmp_path):
    # the file's flags come before the command's own, so a flag wins
    # whether it is written before or after --config
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r = 2.5\np = 0.5\ntau = 0.5\nkappa = 0.5\n")
    out = tmp_path / "out.csv"
    for flags in (["--p", "0.7", "--config", str(cfg)],
                  ["--config", str(cfg), "--p", "0.7"]):
        assert main(["endemic", *flags, "--out", str(out)]) == 0
        meta = read_csv(str(out))[0]
        assert (meta["p"], meta["r"]) == ("0.7", "2.5"), flags


def test_cli_missing_key_exit_code(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r = 2.5\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "missing required config key" in capsys.readouterr().err
    # --kappas has no default either, and a config file may give it
    assert main(["ipeak", *SCENARIO]) == 1
    assert capsys.readouterr().err == ("error: missing required config key "
                                       "'kappas'\n")


def test_cli_unknown_key_exit_code(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r = 2.5\nwibble = 3\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "wibble" in capsys.readouterr().err
    # a prefix of a flag names no flag, in a file or on the command line
    run = ["--t-end", "1", "--step", "0.01"]
    cfg.write_text("r = 2.5\np = 0.5\ntau = 0.5\nkap = 2\n")
    assert main(["simulate", "--config", str(cfg), *run]) == 1
    assert "unrecognized arguments: --kap=2" in capsys.readouterr().err
    assert main(["simulate", "--r", "2.5", "--p", "0.5", "--tau", "0.5",
                 "--kap", "2", *run]) == 1
    assert "unrecognized arguments: --kap 2" in capsys.readouterr().err
    # a file cannot name another file: its --config was dropped silently,
    # or reported as a missing key when the file named nothing else
    nested = tmp_path / "nested.cfg"
    for text, line in (("r = 2.5\nconfig = /absent.cfg\np = 0.5\n"
                        "tau = 0.5\nkappa = 5\n", 2),
                       (f"config = {cfg}\n", 1)):
        nested.write_text(text)
        assert main(["endemic", "--config", str(nested)]) == 1
        assert capsys.readouterr().err == (
            f"error: {nested}:{line}: a config file cannot name --config\n")


@pytest.mark.parametrize("argv, path", [
    (["critical", "--p", "0.8", "--table", "{tmp}/absent.csv"],
     "{tmp}/absent.csv"),
    (["network", "--edge-list", "{tmp}/absent", "--beta", "0.1", "--gamma",
      "1", "--p", "0.5", "--tau-days", "1", "--kappa-days", "1"],
     "{tmp}/absent"),
    (["simulate", "--r", "2.5", "--p", "0.5", "--tau", "0.5", "--kappa", "1",
      "--t-end", "1", "--step", "0.01", "--out", "{tmp}/no-dir/x.csv"],
     "{tmp}/no-dir/x.csv"),
    (["critical", "--p", "0.8", "--out", "{tmp}/no-dir/x.csv"],
     "{tmp}/no-dir/x.csv"),
    (["ipeak", "--r", "2.5", "--p", "0.5", "--tau", "0.5", "--kappa", "1",
      "--t-end", "1", "--step", "0.01", "--kappas", "1,2", "--out",
      "{tmp}/no-dir/x.csv"],
     "{tmp}/no-dir/x.csv"),
    (["simulate", "--r", "2.5", "--p", "0.5", "--tau", "0.5", "--kappa", "1",
      "--t-end", "1", "--step", "0.01", "--out", "{tmp}"], "{tmp}"),
    (["ipeak", "--r", "2.5", "--p", "0.5", "--tau", "0.5", "--kappa", "1",
      "--t-end", "1", "--step", "0.01", "--kappas", "1,2", "--out",
      "{tmp}"], "{tmp}")],
    ids=["table", "edge-list", "simulate-out", "critical-out", "ipeak-out",
         "simulate-out-dir", "ipeak-out-dir"])
def test_cli_path_it_cannot_open_exit_code(tmp_path, capsys, monkeypatch,
                                           argv, path):
    # an OSError from a user-given path escaped main as a traceback; a
    # missing --out directory, or an --out that is a directory, is found
    # before the integration, not after
    import siq.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("integrated before checking --out")

    monkeypatch.setattr(cli, "simulate", no_run)
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path.format(tmp=tmp_path) in err
    assert "Traceback" not in err


def test_cli_usage_error_exit_code(capsys):
    assert main(["critical"]) == 1       # missing --p


def test_parser_is_built_once_and_keeps_no_call_state(tmp_path, capsys):
    # main shares one parser per process: a call's flags must not leak
    # into the next call's defaults
    assert build_parser() is build_parser()
    out = tmp_path / "out.csv"
    spectrum = ["spectrum", "--r", "2.5", "--p", "0.5", "--tau", "0.5",
                "--kappa", "5", "--no-locate", "--out", str(out)]
    assert main(spectrum + ["--q", "0.1", "--eta", "0.05"]) == 0
    meta = read_csv(str(out))[0]
    assert (meta["q"], meta["eta"]) == ("0.1", "0.05")
    assert main(spectrum) == 0
    meta = read_csv(str(out))[0]
    assert (meta["q"], meta["eta"]) == ("0", "0")

    hopf = ["hopf", "--r", "2.5", "--p", "0.5", "--tau", "0.5",
            "--kappa-max", "1", "--out", str(out)]
    assert main(hopf + ["--track-leaf"]) == 0
    assert read_csv(str(out))[0]["track_leaf"] == "True"
    assert main(hopf) == 0
    assert read_csv(str(out))[0]["track_leaf"] == "False"

    assert main(hopf + ["--bogus"]) == 1
    assert "--bogus" in capsys.readouterr().err
    assert main(hopf) == 0


def test_config_file_out_honoured_by_every_scenario_command(tmp_path, capsys):
    # i0 is a flag of simulate and ipeak alone, in a config file or not
    scenario = "r = 2.5\np = 0.5\ntau = 0.5\nkappa = 1\n"
    extra = {"simulate": ["--i0", "0.01", "--t-end", "1", "--step", "0.01"],
             "endemic": ["--q", "0"],
             "spectrum": ["--q", "0"],
             "ipeak": ["--i0", "0.01", "--t-end", "60", "--step", "0.01",
                       "--kappas", "1", "--p", "0.9", "--tau", "0"]}
    for command, flags in extra.items():
        out = tmp_path / f"{command}.csv"
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(scenario + f"out = {out}\n")
        assert main([command, "--config", str(cfg), *flags]) == 0
        assert capsys.readouterr().out == ""
        meta, _, rows = read_csv(str(out))
        assert meta["r"] == "2.5" and rows


#: A small valid call of each subcommand.
SMALL_CALLS = {
    "critical": ["--p", "0.8"],
    "table2": [],
    "simulate": ["--r", "2.5", "--p", "0.5", "--tau", "0.5", "--kappa", "1",
                 "--i0", "0.01", "--t-end", "2", "--step", "0.01"],
    "endemic": ["--r", "2.5", "--p", "0.5", "--tau", "0", "--kappa", "1",
                "--q", "0"],
    "spectrum": ["--r", "2.5", "--p", "0.8", "--tau", "0.1", "--kappa", "1",
                 "--q", "0"],
    "stability-map": ["--r", "2.5", "--p", "0.5", "--q-steps", "2",
                      "--kappa-steps", "2"],
    "hopf": ["--r", "2.5", "--p", "0.5", "--kappa-max", "12"],
    "ipeak": ["--r", "2.5", "--p", "0.9", "--tau", "0", "--kappa", "1",
              "--i0", "0.01", "--t-end", "60", "--step", "0.01",
              "--kappas", "1"],
    "network": ["--n", "100", "--mean-degree", "4", "--beta", "0.3",
                "--gamma", "1", "--p", "0.5", "--tau-days", "0.5",
                "--kappa-days", "1", "--t-end-days", "2"],
}


def test_every_subcommand_writes_one_stamped_artifact(tmp_path, capsys):
    # each subcommand hands (columns, rows, meta) to main, which alone
    # stamps tool and version and writes the file to --out
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(SMALL_CALLS)
    for command, flags in SMALL_CALLS.items():
        folder = tmp_path / command
        folder.mkdir()
        out = folder / "out.csv"
        argv = [command, *flags, "--out", str(out)]
        args = parser.parse_args(argv)
        _, _, meta = args.func(args)
        assert "tool" not in meta, command
        assert not out.exists()
        assert main(argv) == 0, command
        assert capsys.readouterr().out == ""
        assert [f.name for f in folder.iterdir()] == ["out.csv"]
        head = out.read_text().splitlines()[:2]
        assert head == ["# tool = siq", f"# version = {__version__}"]


def test_config_file_gives_the_artifact_of_the_same_flags(tmp_path):
    # a file's value is parsed as its flag is, default and type included
    model = ["--r", "2.5", "--p", "0.5", "--tau", "0.5", "--kappa", "1",
             "--sigma", "0.5"]
    calls = {"simulate": SMALL_CALLS["simulate"] + ["--q0", "0.02", "--e0",
                                                    "0.01", "--sigma", "0.5"],
             "ipeak": SMALL_CALLS["ipeak"] + ["--settle", "20", "--e0",
                                              "0.01"],
             "spectrum": model + ["--q", "0.1", "--eta", "0.05",
                                  "--equilibrium", "endemic"],
             "endemic": model + ["--q", "0.1", "--eta", "0.05"]}
    for command, flags in calls.items():
        by_flags = tmp_path / f"{command}-flags.csv"
        by_file = tmp_path / f"{command}-file.csv"
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text("".join(f"{flags[k][2:].replace('-', '_')} = "
                               f"{flags[k + 1]}\n"
                               for k in range(0, len(flags), 2))
                       + f"out = {by_file}\n")
        assert main([command, *flags, "--out", str(by_flags)]) == 0
        assert main([command, "--config", str(cfg)]) == 0
        assert by_file.read_bytes() == by_flags.read_bytes(), command


def test_every_numeric_flag_rejects_values_outside_its_domain(
        tmp_path, capsys, monkeypatch):
    # every flag typed by a domain rule, including any added later: NaN
    # and a value outside the rule exit 1 naming the flag, before any
    # integration, solve, graph or fork, and no artifact is written
    import siq.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("simulate", "stability_map", "hopf_crossings",
                 "simulate_network", "erdos_renyi_network"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.setattr(os, "fork", never)
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    out = tmp_path / "out.csv"
    cfg = tmp_path / "run.cfg"
    checked = via_file = 0
    for command, sp in sub.choices.items():
        for action in sp._actions:
            # every typed flag, and every flag with a numeric default, is
            # typed by a domain rule
            if action.type is None and type(action.default) not in (int,
                                                                     float):
                continue
            assert isinstance(action.type, cli.Flag), (command, action.dest)
            flag = action.option_strings[0]
            outside = next(v for v in ("0", "1", "-1")
                           if _rejects(action.type, v))
            for value in ("nan", outside):
                argv = [command, *SMALL_CALLS[command], flag, value,
                        "--out", str(out)]
                assert main(argv) == 1, argv
                assert f"error: argument {flag}: " in capsys.readouterr().err
                assert not out.exists(), argv
                checked += 1
            # a config file is read as flags: its value is named by the
            # flag too
            if "config" not in {a.dest for a in sp._actions}:
                continue
            for value in ("nan", outside):
                cfg.write_text(f"{action.dest} = {value}\n")
                argv = [command, "--config", str(cfg), *SMALL_CALLS[command],
                        "--out", str(out)]
                assert main(argv) == 1, (argv, value)
                assert f"error: argument {flag}: " in capsys.readouterr().err
                assert not out.exists(), (argv, value)
                via_file += 1
    assert checked == 2 * 66
    assert via_file == 2 * (11 + 7 + 7 + 12)
    cfg.write_text("r = 2.5\np = 0.5\ntau = 0.5\nkappa = nan\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: argument --kappa: nan must be "
                                       "finite and >= 0\n")
    assert not out.exists()


def _rejects(convert, text: str) -> bool:
    try:
        convert(text)
    except argparse.ArgumentTypeError:
        return True
    return False


def test_benchmark_calls_parse(monkeypatch):
    # every call the benchmark makes (the warm-ups and one round of each
    # workload) parses, so a flag rule that refuses a benchmark input
    # fails here; perfbench/ is read, and no bytecode is written there
    bench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(bench))
    workloads = importlib.import_module("workloads")
    parser = build_parser()
    calls = 0
    for warm_up, build in workloads.WORKLOADS.values():
        for job in [warm_up, *build(random.Random(0))]:
            parser.parse_args(list(job.argv))
            calls += 1
    assert calls == 4 + 5 + 5 + 5 + 3


# ---------------------------------------------------------------------------
# simulate / endemic / spectrum artifacts
# ---------------------------------------------------------------------------

def test_cli_simulate_artifact(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(["simulate", "--r", "2.5", "--p", "0", "--tau", "0",
                 "--kappa", "0", "--i0", "0.001", "--t-end", "150",
                 "--out", str(out)])
    assert code == 0
    meta, cols, rows = read_csv(str(out))
    assert cols == ["t", "S", "I", "Q"]
    assert float(meta["H"]) == pytest.approx(0.0, abs=1e-12)   # kappa = 0: H = q0
    # integrator counters: RK4 keeps the linear invariant S + I + Q to
    # rounding, and the states stay in the simplex
    assert meta["steps"] == "150000"
    assert 0.0 <= float(meta["max_mass_drift"]) <= 1e-12
    assert float(meta["min_component"]) == 0.0          # p = 0: Q stays 0
    final = [float(v) for v in rows[-1]]
    assert final[0] == pytest.approx(150.0, abs=1e-9)
    # SIS limit: I -> 1 - 1/r = 0.6
    assert final[2] == pytest.approx(0.6, abs=1e-4)


def test_cli_simulate_metadata_predicts_endemic(tmp_path):
    out = tmp_path / "traj.csv"
    main(["simulate", "--r", "2.5", "--p", "0.5", "--tau", "0.5",
          "--kappa", "0.5", "--i0", "0.001", "--t-end", "5",
          "--out", str(out)])
    meta, _, _ = read_csv(str(out))
    # the outbreak jump i0 never isolates: the flow stays on the leaf q0 = 0
    assert float(meta["leaf_q"]) == pytest.approx(0.0, abs=1e-12)
    assert float(meta["predicted_v_I"]) == pytest.approx(0.349771, abs=1e-5)
    assert meta["reachable"] == "True"
    for key in ("r", "p", "tau", "kappa", "sigma", "eps", "step", "version"):
        assert key in meta


def test_cli_endemic_eta_zero_is_an_siq_leaf(tmp_path):
    # the E cells are written when sigma > 0 or the E label is > 0, as in
    # simulate; "--eta 0" wrote them as 0 while no --eta left them blank
    base = ["endemic", "--r", "2.5", "--p", "0.5", "--tau", "0", "--kappa",
            "1", "--q", "0"]
    lines = []
    for extra in ([], ["--eta", "0"]):
        out = tmp_path / f"endemic{len(extra)}.csv"
        assert main(base + extra + ["--out", str(out)]) == 0
        lines.append(out.read_text().splitlines()[-1])
    assert lines == ["0,,0.8,,0.1,0.1,1"] * 2


def test_cli_endemic_value(tmp_path):
    out = tmp_path / "endemic.csv"
    code = main(["endemic", "--r", "2.5", "--p", "0.5", "--tau", "0",
                 "--kappa", "1", "--q", "0", "--out", str(out)])
    assert code == 0
    _, cols, rows = read_csv(str(out))
    v_i = float(rows[0][cols.index("v_I")])
    assert v_i == pytest.approx(0.1, rel=1e-12)    # 0.2/(1 + kappa) at kappa=1


def test_cli_spectrum_controllable_case(tmp_path):
    out = tmp_path / "spec.csv"
    code = main(["spectrum", "--r", "2.5", "--p", "0.8", "--tau", "0.1",
                 "--kappa", "1", "--q", "0", "--out", str(out)])
    assert code == 0
    meta, _, rows = read_csv(str(out))
    # eps = 0.724 > p_c = 0.6: controllable, count 0 even at q = 0
    assert meta["unstable_count"] == "0"
    assert rows == []


def test_cli_spectrum_without_delays(tmp_path):
    # tau = kappa = 0: the root r(1 - q - eta)(1 - eps) - 1 = 0.25 comes from
    # the eigenvalues of the summed matrix, with no collocation
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--r", "2.5", "--p", "0.5", "--tau", "0",
                 "--kappa", "0", "--q", "0", "--out", str(out)]) == 0
    meta, _, rows = read_csv(str(out))
    assert (meta["unstable_count"], meta["collocation_n"]) == ("1", "0")
    assert float(rows[0][0]) == pytest.approx(0.25, abs=1e-9)
    assert float(rows[0][1]) == 0.0


def test_cli_spectrum_reports_counters(tmp_path):
    # the count's pieces and the collocation diagnostics are header data
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--r", "2.5", "--p", "0.5", "--tau", "0.5",
                 "--kappa", "5", "--q", "0.1", "--out", str(out)]) == 0
    meta, cols, rows = read_csv(str(out))
    assert cols == ["root_re", "root_im", "residual"]
    assert meta["unstable_count"] == meta["base"] == "1"
    assert meta["crossings"] == "0"
    assert int(meta["collocation_n"]) >= 8
    assert float(meta["max_residual"]) == float(rows[0][2]) <= 1e-10
    assert not [k for k in meta if k.startswith("box_")]
    # the search-box flags are gone with the contour
    assert main(["spectrum", "--r", "2.5", "--p", "0.5", "--re-min", "0",
                 "--re-max", "1", "--im-max", "1"]) == 1


@pytest.mark.parametrize("kappa", ["11.81", "25.29", "25.79"])
def test_cli_spectrum_endemic_at_slow_crossings(tmp_path, kappa):
    # crossing pairs at |Re| ~ 1e-4, where the contour count used to fail
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--r", "3", "--p", "0.6", "--tau", "0.3",
                 "--kappa", kappa, "--q", "0.05", "--equilibrium", "endemic",
                 "--out", str(out)]) == 0
    meta, _, rows = read_csv(str(out))
    assert len(rows) == int(meta["unstable_count"])


def test_cli_rejects_negative_leaf(tmp_path, capsys):
    assert main(["spectrum", "--r", "2.5", "--p", "0.5", "--equilibrium",
                 "disease-free", "--q", "-0.3"]) == 1
    assert main(["stability-map", "--r", "2.5", "--p", "0.5", "--q-min",
                 "-0.5", "--q-steps", "2", "--kappa-steps", "2",
                 "--out", str(tmp_path / "map.csv")]) == 1
    assert main(["hopf", "--r", "2.5", "--p", "0.5", "--q", "-0.1"]) == 1
    assert not (tmp_path / "map.csv").exists()


def test_cli_rejects_endemic_leaf_beyond_qc(tmp_path, capsys):
    # q_c = 0.4259 here: no endemic point has q = 0.6, and the map's rows
    # past q_c have none either
    assert main(["spectrum", "--r", "2.5", "--p", "0.5", "--tau", "0.5",
                 "--kappa", "1", "--q", "0.6", "--equilibrium",
                 "endemic"]) == 1
    err = capsys.readouterr().err
    assert "q = 0.6" in err and "q_c = 0.4258" in err
    assert main(["stability-map", "--r", "2.5", "--p", "0.5", "--tau", "0.5",
                 "--q-max", "0.5", "--q-steps", "3", "--kappa-steps", "2",
                 "--out", str(tmp_path / "map.csv")]) == 1
    assert not (tmp_path / "map.csv").exists()
    capsys.readouterr()
    # endemic writes the unreachable leaf as a row, but labels that sum
    # past 1 label no leaf: they wrote v_I = -0.539 with exit 0
    base = ["endemic", "--r", "2.5", "--p", "0.5", "--tau", "0.5",
            "--kappa", "1", "--q", "0.6"]
    out = tmp_path / "endemic.csv"
    assert main(base + ["--eta", "0.6", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: q + eta = 1.2 must be <= 1\n"
    assert not out.exists()
    assert main(base + ["--out", str(out)]) == 0
    _, cols, rows = read_csv(str(out))
    assert rows[0][cols.index("reachable")] == "0"


def test_cli_spectrum_rejects_eta_without_latent_point(tmp_path, capsys):
    # eta labels the E leaf of the disease-free point at every sigma: with
    # eta + q = 0.5 > q_c = 0.426 the point is stable, while q = 0.2 alone
    # is not (at sigma = 0, eta was once dropped and this counted 1)
    base = ["spectrum", "--r", "2.5", "--p", "0.5", "--tau", "0.5",
            "--kappa", "1", "--q", "0.2"]
    counts = {}
    for extra in ([], ["--eta", "0.3"], ["--eta", "0.3", "--sigma", "0.5"]):
        out = tmp_path / f"df{len(extra)}.csv"
        assert main(base + extra + ["--out", str(out)]) == 0
        meta, _, _ = read_csv(str(out))
        counts[" ".join(extra)] = (meta["eta"], meta["unstable_count"])
    assert counts == {"": ("0", "1"), "--eta 0.3": ("0.3", "0"),
                      "--eta 0.3 --sigma 0.5": ("0.3", "0")}
    # on the endemic point (1 - q_c, eta, q_c - q - eta, q) eta labels E
    # too, and q + eta = 0.5 >= q_c leaves no infected
    endemic = base + ["--eta", "0.3", "--equilibrium", "endemic"]
    for extra in ([], ["--sigma", "0.5"]):
        assert main(endemic + extra) == 1
        assert "must sum below q_c" in capsys.readouterr().err
    out = tmp_path / "endemic.csv"
    assert main(base[:-2] + ["--q", "0.1", "--eta", "0.05", "--sigma", "0.5",
                             "--equilibrium", "endemic", "--out",
                             str(out)]) == 0
    meta, _, _ = read_csv(str(out))
    assert (meta["q"], meta["eta"]) == ("0.1", "0.05")


@pytest.mark.parametrize("argv", [
    ["stability-map", "--r", "1.2", "--p", "0.9", "--tau", "0"],
    ["hopf", "--r", "1.2", "--p", "0.9"]], ids=["stability-map", "hopf"])
def test_cli_reports_no_endemic_equilibrium(capsys, argv):
    # R_eff(0) = 0.12 < 1, so q_c < 0: the cause is the response, not a
    # leaf, and the user gave none
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no endemic equilibrium: q_c = -7.33")
    assert "the response curbs every outbreak" in err


@pytest.mark.parametrize("argv", [
    ["endemic", "--r", "2.5", "--p", "1", "--tau", "0", "--kappa", "1"],
    ["spectrum", "--r", "2.5", "--p", "1", "--tau", "0", "--kappa", "1",
     "--equilibrium", "endemic"],
    ["hopf", "--r", "2.5", "--p", "1"],
    ["stability-map", "--r", "2.5", "--p", "1"]],
    ids=["endemic", "spectrum", "hopf", "stability-map"])
def test_cli_strongest_response_has_no_endemic_equilibrium(capsys, argv):
    # eps = 1 gives q_c = -inf; these exited 1 with "eps = 1.0 must be < 1",
    # and the map's default grid, 0.98 q_c, would start at nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: no endemic equilibrium: q_c = -inf <= 0, the response "
        "curbs every outbreak\n")


@pytest.mark.parametrize("kappa", ["0", "1"])
def test_cli_simulate_at_the_strongest_response(tmp_path, kappa):
    # eps = 1 isolates every infection at once: I(t) = i0 e^{-t}, and no
    # endemic point exists to predict
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--r", "2.5", "--p", "1", "--tau", "0",
                 "--kappa", kappa, "--i0", "0.01", "--t-end", "20",
                 "--step", "0.01", "--out", str(out)]) == 0
    meta, cols, rows = read_csv(str(out))
    assert (meta["reachable"], meta["leaf_q"]) == ("False", "0")
    assert "H" in meta
    assert not [k for k in meta if k.startswith("predicted_")]
    t, i = (np.array([float(row[cols.index(c)]) for row in rows])
            for c in ("t", "I"))
    assert len(rows) == 2001
    np.testing.assert_allclose(i, 0.01 * np.exp(-t), rtol=1e-8, atol=0)


def test_cli_stability_map_small(tmp_path):
    out = tmp_path / "map.csv"
    code = main(["stability-map", "--r", "2.5", "--p", "0.5", "--tau", "0",
                 "--q-steps", "2", "--q-max", "0.1", "--kappa-min", "0.5",
                 "--kappa-max", "12.5", "--kappa-steps", "3",
                 "--out", str(out)])
    assert code == 0
    meta, cols, rows = read_csv(str(out))
    assert cols == ["q", "kappa", "unstable_count"]
    assert len(rows) == 6
    grid = {(float(r[0]), float(r[1])): int(r[2]) for r in rows}
    assert grid[(0.0, 0.5)] == 0
    assert grid[(0.0, 12.5)] == 2
    assert meta["unknown_cells"] == "0"
    assert not [k for k in meta if k.startswith("error_")]


def test_cli_stability_map_rejects_invalid_model_parameters(tmp_path,
                                                            capsys):
    # p = 1.5 used to become "unknown cells" (one ValueError per q-row)
    # in an artifact written with exit 0
    out = tmp_path / "map.csv"
    assert main(["stability-map", "--r", "2.5", "--p", "1.5", "--tau", "1",
                 "--q-steps", "2", "--kappa-steps", "3",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: argument --p: 1.5 must be in "
                                       "[0, 1]\n")
    assert not out.exists()


def test_cli_stability_map_reports_failed_rows(tmp_path, monkeypatch):
    import siq.spectral as spectral
    from siq.errors import NumericalError
    real = spectral.axis_crossings

    def failing(r, p, tau, q, kappa_max, **kw):
        if q > 0.0:
            raise NumericalError("forced\nfailure")
        return real(r, p, tau, q, kappa_max, **kw)

    monkeypatch.setattr(spectral, "axis_crossings", failing)
    out = tmp_path / "map.csv"
    assert main(["stability-map", "--r", "2.5", "--p", "0.5", "--q-steps",
                 "2", "--q-max", "0.1", "--kappa-steps", "3",
                 "--out", str(out)]) == 0
    meta, _, rows = read_csv(str(out))
    assert meta["unknown_cells"] == "3"
    assert meta["error_1"] == "NumericalError: forced failure"
    assert "error_0" not in meta
    assert [int(r[2]) for r in rows[3:]] == [-1, -1, -1]


def test_cli_hopf_track_leaf_rows_are_solved_crossings(tmp_path):
    # with the leaf tracked omega moves with kappa: below kappa = 25 the
    # only crossing is 13.538, not a cascade kappa_0 + 2 pi m / Omega
    out = tmp_path / "hopf.csv"
    assert main(["hopf", "--r", "2.5", "--p", "0.5", "--tau", "0.5",
                 "--q", "0", "--track-leaf", "--out", str(out)]) == 0
    meta, _, rows = read_csv(str(out))
    assert meta["track_leaf"] == "True"
    assert [r[0] for r in rows] == ["0"]
    assert float(rows[0][1]) == pytest.approx(13.538045, abs=1e-6)
    assert float(rows[0][1]) == float(meta["kappa_0"])


def test_cli_hopf(tmp_path):
    out = tmp_path / "hopf.csv"
    code = main(["hopf", "--r", "2.5", "--p", "0.5", "--tau", "0",
                 "--q", "0", "--kappa-max", "35", "--m-max", "2",
                 "--out", str(out)])
    assert code == 0
    meta, _, rows = read_csv(str(out))
    assert meta["found"] == "True"
    k0 = float(meta["kappa_0"])
    omega = float(meta["omega"])
    assert k0 == pytest.approx(8.948101, abs=1e-3)
    assert float(meta["residual"]) <= 1e-10
    assert meta["direction"] == "1"
    assert len(rows) == 3
    assert float(rows[1][1]) - float(rows[0][1]) == pytest.approx(
        2 * math.pi / omega, rel=1e-7)    # 9-significant-digit round trip


def test_cli_hopf_rows_stop_at_kappa_max(tmp_path):
    # the fixed-equilibrium rows are solved crossings: 20.19 and 31.43
    # lie past --kappa-max 12 and are not written
    out = tmp_path / "hopf.csv"
    assert main(["hopf", "--r", "2.5", "--p", "0.5", "--tau", "0",
                 "--q", "0", "--kappa-max", "12", "--m-max", "3",
                 "--out", str(out)]) == 0
    meta, _, rows = read_csv(str(out))
    assert [r[0] for r in rows] == ["0"]
    assert rows[0][1] == meta["kappa_0"]


def test_cli_hopf_rejects_negative_m_max(tmp_path, capsys):
    out = tmp_path / "hopf.csv"
    assert main(["hopf", "--r", "2.5", "--p", "0.5", "--m-max", "-1",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: argument --m-max: -1 must be "
                                       "an integer >= 0\n")
    assert not out.exists()


@pytest.mark.parametrize("flags", [["inf", "--track-leaf"], ["inf"],
                                   ["-3"]])
def test_cli_hopf_rejects_kappa_max_outside_domain(tmp_path, capsys, flags):
    # inf with --track-leaf raised an uncaught OverflowError; inf without
    # it warned and then blamed "kappa ... nan", and -3 blamed "kappa"
    out = tmp_path / "hopf.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["hopf", "--r", "2.5", "--p", "0.5", "--tau", "0.5",
                     "--kappa-max", *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: argument --kappa-max: {float(flags[0])} must be "
                   "finite and >= 0\n")
    assert not out.exists()


def test_cli_stability_map_names_invalid_tau(tmp_path, capsys):
    # q_c was computed first, so tau = -1 was reported as "eps = 1.359...
    # must be < 1"
    out = tmp_path / "map.csv"
    assert main(["stability-map", "--r", "2.5", "--p", "0.5", "--tau", "-1",
                 "--q-steps", "2", "--kappa-steps", "2",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: argument --tau: -1.0 must be "
                                       "finite and >= 0\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--q-steps", "0"), ("--kappa-steps", "0"), ("--q-steps", "-2"),
    ("--kappa-steps", "-2")])
def test_cli_stability_map_rejects_empty_grids(tmp_path, capsys, monkeypatch,
                                               flag, value):
    # 0 wrote a header without rows; -2 failed in np.linspace with a
    # message that did not name the flag.  No cell is solved.
    import siq.cli as cli

    def no_solve(*args):
        raise AssertionError("stability_map called")

    monkeypatch.setattr(cli, "stability_map", no_solve)
    out = tmp_path / "map.csv"
    assert main(["stability-map", "--r", "2.5", "--p", "0.5", "--tau", "0.5",
                 flag, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: argument {flag}: {value} "
                                       "must be an integer >= 1\n")
    assert not out.exists()


@pytest.mark.parametrize("r", ["0", "-1"])
def test_cli_rejects_nonpositive_r(tmp_path, capsys, r):
    for command in ("hopf", "stability-map"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--r", r, "--p", "0.5",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: argument --r: {float(r)} "
                                           "must be finite and > 0\n")
        assert not out.exists()


def test_cli_spectrum_counts_endemic_sigma(tmp_path):
    # the SEIQ endemic point at sigma = 0.5: stable at kappa = 10, where
    # the SIQ linearization has 2 unstable roots, and 2 past kappa_0 = 12.35
    counts = []
    for kappa in ("10", "13.35"):
        out = tmp_path / f"k{kappa}.csv"
        assert main(["spectrum", "--r", "2.5", "--p", "0.5", "--tau", "0",
                     "--kappa", kappa, "--sigma", "0.5", "--q", "0",
                     "--equilibrium", "endemic", "--out", str(out)]) == 0
        meta, _, rows = read_csv(str(out))
        counts.append((meta["unstable_count"], len(rows)))
    assert counts == [("0", 0), ("2", 2)]


@pytest.mark.parametrize("flag", ["--i0", "--q0", "--e0"])
def test_cli_endemic_rejects_outbreak_data_with_q(flag, capsys):
    # endemic takes its leaf by --q and --eta alone: outbreak data sit on
    # the leaf (q0, e0), so --q q0 --eta e0 is their row
    assert main(["endemic", "--r", "2.5", "--p", "0.5", "--tau", "0",
                 "--kappa", "1", "--q", "0", flag, "0.2"]) == 1
    assert f"unrecognized arguments: {flag} 0.2" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags, cfg, key", [
    ("spectrum", ["--q", "0"], "step = 7\ni0 = 0.3\nt_end = 1\n", "step"),
    ("endemic", [], "t_end = 1\n", "t_end"),
    ("endemic", ["--q", "0"], "i0 = 0.3\n", "i0")])
def test_config_file_keys_the_command_does_not_read(tmp_path, capsys,
                                                    command, flags, cfg, key):
    path = tmp_path / "run.cfg"
    path.write_text(cfg)
    assert main([command, "--r", "2.5", "--p", "0.5", "--tau", "0",
                 "--kappa", "1", "--config", str(path), *flags]) == 1
    flag = key.replace("_", "-")
    assert f"unrecognized arguments: --{flag}=" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    ("spectrum", "--i0"), ("spectrum", "--q0"), ("spectrum", "--e0"),
    ("spectrum", "--t-end"), ("spectrum", "--step"),
    ("endemic", "--step"), ("endemic", "--t-end")])
def test_scenario_commands_reject_flags_they_do_not_read(command, flag,
                                                         capsys):
    assert main([command, "--r", "2.5", "--p", "0.5", "--tau", "0",
                 "--kappa", "10", "--q", "0", flag, "1"]) == 1
    assert flag in capsys.readouterr().err


SCENARIO = ["--r", "2.5", "--p", "0.5", "--tau", "0.5", "--kappa", "1",
            "--i0", "0.01", "--t-end", "5", "--step", "0.01"]


def _rejected(*args, message, was=None):
    """One rejection case: the arguments, the expected message after
    "argument --flag: ", and, for a case older than the domain rules, the
    message it pinned then, which stays in the case id."""
    return pytest.param(*args, message,
                        id="-".join([*args, was]) if was else None)


def _joint(*args, message):
    """A case that passes every flag rule and fails a joint constraint at
    the library boundary, which names the quantities, not a flag: its
    message is the whole error line."""
    return pytest.param(*args, f"error: {message}",
                        id="-".join([*args, "joint"]))


#: Base calls: each case appends one bad flag; argparse rejects it while
#: parsing, so the valid value of the same flag in the base never counts.
REJECTION_BASES = {
    "simulate": SCENARIO, "ipeak": SCENARIO + ["--kappas", "1,inf"],
    "critical": [],
    "endemic": ["--r", "2.5", "--p", "0.5", "--tau", "0.5", "--kappa", "1",
                "--q", "0"]}


@pytest.mark.parametrize("command, flag, value, message", [
    # --every -5 integrated the run and then died on an empty index, and
    # --every 0 meant the default stride
    _rejected("simulate", "--every", "0", was="--every = 0 must be >= 1",
              message="0 must be an integer >= 1"),
    _rejected("simulate", "--every", "-5", was="--every = -5 must be >= 1",
              message="-5 must be an integer >= 1"),
    # an infinite horizon overflowed the step count, a NaN one could not
    # be converted to it, NaN fractions ran into a numerical failure, and
    # a NaN or negative --settle switched the horizon check off
    _rejected("simulate", "--t-end", "inf",
              was="--t-end (config key t_end) = inf",
              message="inf must be finite and > 0"),
    _rejected("simulate", "--t-end", "nan",
              was="--t-end (config key t_end) = nan",
              message="nan must be finite and > 0"),
    _rejected("simulate", "--t-end", "0",
              was="--t-end (config key t_end) = 0.0",
              message="0.0 must be finite and > 0"),
    _rejected("simulate", "--step", "nan",
              was="--step (config key step) = nan",
              message="nan must be finite and > 0"),
    _rejected("simulate", "--step", "-0.01",
              was="--step (config key step) = -0.01",
              message="-0.01 must be finite and > 0"),
    _rejected("simulate", "--i0", "nan",
              was="i0 must be finite and nonnegative",
              message="nan must be in (0, 1]"),
    _rejected("simulate", "--q0", "nan",
              was="q0 must be finite and nonnegative",
              message="nan must be in [0, 1]"),
    _rejected("simulate", "--q0", "inf",
              was="q0 must be finite and nonnegative",
              message="inf must be in [0, 1]"),
    _rejected("ipeak", "--t-end", "inf",
              was="--t-end (config key t_end) = inf",
              message="inf must be finite and > 0"),
    _rejected("ipeak", "--step", "nan", was="--step (config key step) = nan",
              message="nan must be finite and > 0"),
    _rejected("ipeak", "--i0", "nan", was="i0 must be finite and nonnegative",
              message="nan must be in (0, 1]"),
    _rejected("ipeak", "--e0", "nan", was="e0 must be finite and nonnegative",
              message="nan must be in [0, 1]"),
    _rejected("ipeak", "--settle", "nan",
              was="--settle = nan must be finite and >= 0",
              message="nan must be finite and >= 0"),
    _rejected("ipeak", "--settle", "-5",
              was="--settle = -5.0 must be finite and >= 0",
              message="-5.0 must be finite and >= 0"),
    _rejected("ipeak", "--settle", "inf",
              was="--settle = inf must be finite and >= 0",
              message="inf must be finite and >= 0"),
    # a negative or NaN kappa failed in a worker after the other kappas
    # ran, without naming the flag
    _rejected("ipeak", "--kappas", "1,-2",
              was="--kappas entry -2.0 must be >= 0",
              message="-2.0 must be in [0, inf]"),
    _rejected("ipeak", "--kappas", "nan,1",
              was="--kappas entry nan must be >= 0",
              message="nan must be in [0, inf]"),
    _rejected("ipeak", "--kappas", "2,-inf",
              was="--kappas entry -inf must be >= 0",
              message="-inf must be in [0, inf]"),
    _rejected("ipeak", "--kappas", "5,abc",
              was="--kappas = '5,abc': could not convert",
              message="'abc' must be in [0, inf]"),
    # p is a probability and q, eta are compartment fractions: each of
    # these wrote finite or NaN numbers with exit 0
    _rejected("critical", "--p", "2", message="2.0 must be in [0, 1]"),
    _rejected("critical", "--p", "nan", message="nan must be in [0, 1]"),
    _rejected("critical", "--p", "-1", message="-1.0 must be in [0, 1]"),
    _rejected("endemic", "--q", "-0.5", message="-0.5 must be in [0, 1]"),
    _rejected("endemic", "--q", "5", message="5.0 must be in [0, 1]"),
    _rejected("endemic", "--q", "nan", message="nan must be in [0, 1]"),
    _rejected("endemic", "--eta", "-0.1", message="-0.1 must be in [0, 1]")])
def test_cli_rejects_nonfinite_run_numbers_before_integrating(
        monkeypatch, capsys, command, flag, value, message):
    import siq.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("simulate called")

    monkeypatch.setattr(cli, "simulate", no_run)
    _set_cores(monkeypatch, 1)
    assert main([command, *REJECTION_BASES[command], flag, value]) == 1
    assert capsys.readouterr().err == (f"error: argument {flag}: "
                                       f"{message}\n")


def test_cli_simulate_every_one_writes_every_node(tmp_path):
    out = tmp_path / "every.csv"
    assert main(["simulate", *SCENARIO, "--every", "1", "--out",
                 str(out)]) == 0
    meta, _, rows = read_csv(str(out))
    assert meta["output_stride"] == "1" and len(rows) == 501


def test_cli_simulate_every_keeps_the_last_node(tmp_path):
    # 501 nodes at stride 7: nodes 0, 7, ..., 497, then the last, 500
    out = tmp_path / "every.csv"
    assert main(["simulate", *SCENARIO, "--every", "7", "--out",
                 str(out)]) == 0
    meta, _, rows = read_csv(str(out))
    assert meta["output_stride"] == "7" and len(rows) == 73
    assert [row[0] for row in rows[-2:]] == ["4.97", "5"]


def test_cli_writes_the_artifact_to_stdout_without_out(tmp_path, capsys):
    out = tmp_path / "endemic.csv"
    argv = ["endemic", "--r", "2.5", "--p", "0.5", "--tau", "0", "--kappa",
            "1"]
    assert main(argv + ["--out", str(out)]) == 0
    for extra in ([], ["--out", "-"]):
        assert main(argv + extra) == 0
        assert capsys.readouterr().out == out.read_text()


def test_read_csv_refuses_a_file_without_a_column_row(tmp_path):
    path = tmp_path / "meta.csv"
    path.write_text("# tool = siq\n\n# r = 2.5\n")
    with pytest.raises(FileParse) as err:
        read_csv(str(path))
    assert str(err.value) == f"{path}: no header row"


def test_write_csv_float_array_matches_generic_rows(tmp_path):
    values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e22,
              0.1 + 0.2, 1 / 3, -2.5, 1e-300, 123456789.5]
    rows = [values[k:k + 4] for k in range(0, len(values), 4)]
    meta = {"x": 0.1 + 0.2, "n": 3}
    generic, array_ = tmp_path / "generic.csv", tmp_path / "array.csv"
    write_csv(str(generic), ["a", "b", "c", "d"], rows, meta)
    write_csv(str(array_), ["a", "b", "c", "d"], np.array(rows), meta)
    text = array_.read_text()
    assert text == generic.read_text()
    assert text.splitlines()[-3] == ",".join(fmt(v) for v in values[:4])
    assert text.splitlines()[-3:] == [
        "nan,inf,-inf,-0", "0,4.94065646e-324,1e+22,0.3",
        "0.333333333,-2.5,1e-300,123456790"]


# ---------------------------------------------------------------------------
# I_peak
# ---------------------------------------------------------------------------

def test_i_peak_as_accurate_as_the_trajectory():
    # the peak of the dense cubic at h = 0.01 against a h = 5e-4 run: the
    # node maximum is off by 7.7e-9 here, the cell midpoints no better
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=5.0)
    hist = outbreak_history(ps, 0.01)
    ref = i_peak(simulate(ps, hist, 60.0, 5e-4))
    traj = simulate(ps, hist, 60.0, 0.01)
    assert float(traj.states[:, 2].max()) < ref - 5e-9
    assert i_peak(traj) == pytest.approx(ref, abs=1e-10)


def test_i_peak_subcritical_equals_i0():
    # monotone-decreasing case: tau = 0 so removal acts from the start and
    # (1-p) r < 1 makes I' < 0 everywhere; the peak is i0 itself
    ps = ModelParams(r=2.5, p=0.9, tau=0.0, kappa=1.0)
    traj = simulate(ps, outbreak_history(ps, 0.01), 80.0, 1e-3)
    assert i_peak(traj) == pytest.approx(0.01, abs=1e-9)


def test_i_peak_horizon_guard():
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.5)
    traj = simulate(ps, outbreak_history(ps, 0.001), 10.0, 1e-3)
    with pytest.raises(HorizonTooShort):
        i_peak(traj, settle=50.0)


def test_cli_ipeak(tmp_path):
    out = tmp_path / "peaks.csv"
    code = main(["ipeak", "--r", "2.5", "--p", "0.5", "--tau", "0.5",
                 "--i0", "0.001", "--t-end", "100", "--kappa", "0",
                 "--kappas", "5,10,inf", "--out", str(out)])
    assert code == 0
    _, cols, rows = read_csv(str(out))
    assert cols == ["kappa", "I_peak"]
    peaks = {r[0]: float(r[1]) for r in rows}
    assert peaks["5"] >= peaks["10"] >= peaks["inf"] - 1e-9


def test_cli_ipeak_kappa_inf_keeps_e0(tmp_path):
    # every kappa, inf included, runs the SEIQ outbreak that e0 > 0 implies
    out = tmp_path / "peaks.csv"
    assert main(["ipeak", "--r", "2.5", "--p", "0.5", "--tau", "0.5",
                 "--i0", "0.01", "--e0", "0.05", "--t-end", "100",
                 "--step", "0.01", "--kappa", "0", "--kappas", "1,5,inf",
                 "--out", str(out)]) == 0
    meta, _, rows = read_csv(str(out))
    assert meta["e0"] == "0.05"
    peaks = {r[0]: float(r[1]) for r in rows}
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=0.0)
    traj = simulate(ps, outbreak_history(ps, 0.01, e0=0.05), 100.0, 0.01,
                    kappa_inf=True)
    assert (traj.states[:, 1] == 0.05).all()     # E keeps e0 at sigma = 0
    assert peaks["inf"] == float(format(i_peak(traj), ".9g"))
    assert peaks["inf"] <= peaks["5"] <= peaks["1"]


# ---------------------------------------------------------------------------
# the kappa sweep on every core
# ---------------------------------------------------------------------------

def _set_cores(monkeypatch, n):
    assert n <= 4
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_fan_out_keeps_item_order(monkeypatch, cores):
    _set_cores(monkeypatch, cores)
    items = list(range(7))
    results, workers = _fan_out(lambda x: (x, os.getpid()), items)
    _assert_no_child_left()
    assert workers == cores
    assert [x for x, _ in results] == items
    # share 0 runs here, each other share in a process of its own
    pids = [pid for _, pid in results]
    assert pids[::cores] == [os.getpid()] * len(pids[::cores])
    assert len(set(pids)) == cores


def test_fan_out_forks_nothing_for_one_item(monkeypatch):
    def no_fork():
        raise AssertionError("forked")
    monkeypatch.setattr(os, "fork", no_fork)
    _set_cores(monkeypatch, 3)
    assert _fan_out(lambda x: 2 * x, [4]) == ([8], 1)
    _set_cores(monkeypatch, 1)
    assert _fan_out(lambda x: 2 * x, [1, 2, 3]) == ([2, 4, 6], 1)


def test_fan_out_child_without_result(monkeypatch):
    _set_cores(monkeypatch, 2)

    def fn(x):
        if x == "lost":
            os._exit(3)
        return x
    with pytest.raises(NumericalError) as err:
        _fan_out(fn, ["kept", "lost"])
    _assert_no_child_left()
    assert "['lost']" in str(err.value) and "exit code 3" in str(err.value)


def test_fan_out_raises_the_lowest_index_error(monkeypatch):
    _set_cores(monkeypatch, 2)

    def fn(x):
        if x < 0:
            raise ValueError(f"item {x}")
        return x
    for items, first in (([1, -1, -2, 2], "item -1"),     # child's share
                         ([-3, -1, 2, -2], "item -3")):   # this process's
        with pytest.raises(ValueError, match=first):
            _fan_out(fn, items)
        _assert_no_child_left()


IPEAK = ["ipeak", "--r", "2.5", "--p", "0.5", "--tau", "0.5", "--kappa", "0",
         "--i0", "0.01", "--t-end", "100", "--step", "0.01"]


@pytest.mark.parametrize("extra", [
    ["--kappas", "25,0,inf,2,10,1,5"],
    ["--sigma", "0.5", "--kappas", "10,0,5,1,2,25"]])
def test_cli_ipeak_artifact_independent_of_core_count(tmp_path, monkeypatch,
                                                       extra):
    texts = []
    for cores in (1, 2, 3):
        _set_cores(monkeypatch, cores)
        out = tmp_path / f"peaks{cores}.csv"
        assert main(IPEAK + extra + ["--out", str(out)]) == 0
        _assert_no_child_left()
        lines = out.read_text().splitlines()
        assert f"# workers = {cores}" in lines
        texts.append([ln for ln in lines if not ln.startswith("# workers")])
    assert texts[0] == texts[1] == texts[2]
    kappas = extra[-1].split(",")
    assert [row.split(",")[0] for row in texts[0][-len(kappas):]] == kappas


def test_cli_ipeak_records_its_steps(tmp_path):
    # steps: the integrator steps of every kappa run, ceil(t_end/step) each
    out = tmp_path / "peaks.csv"
    assert main(["ipeak", "--r", "2.5", "--p", "0.9", "--tau", "0",
                 "--kappa", "1", "--i0", "0.01", "--t-end", "60.01",
                 "--step", "0.02", "--kappas", "1,inf,3", "--settle", "5",
                 "--out", str(out)]) == 0
    meta, _, _ = read_csv(str(out))
    assert int(meta["steps"]) == 3 * math.ceil(60.01 / 0.02) == 9003
    assert 1 <= int(meta["workers"]) <= 3


@pytest.mark.parametrize("kappas, first", [
    ("5,2,1", 2.0),      # index 1, a child's share, fails first
    ("0,1", 0.0)])       # index 0, this process's share, fails first
def test_cli_ipeak_reports_the_lowest_index_failure(monkeypatch, capsys,
                                                    kappas, first):
    # at t_end = 60, kappa = 0, 1 and 2 stop rising too late to settle
    _set_cores(monkeypatch, 2)
    argv = IPEAK[:-4] + ["--t-end", "60", "--step", "0.01",
                         "--kappas", kappas]
    ps = ModelParams(r=2.5, p=0.5, tau=0.5, kappa=first)
    with pytest.raises(HorizonTooShort) as err:
        i_peak(simulate(ps, outbreak_history(ps, 0.01), 60.0, 0.01))
    assert main(argv) == 2
    _assert_no_child_left()
    assert capsys.readouterr().err == f"numerical failure: {err.value}\n"


# ---------------------------------------------------------------------------
# network artifact
# ---------------------------------------------------------------------------

def test_cli_network_repeatable(tmp_path):
    argv = ["network", "--n", "300", "--mean-degree", "6", "--beta", "0.3",
            "--gamma", "1", "--p", "0.5", "--tau-days", "0.5",
            "--kappa-days", "2", "--t-end-days", "5", "--seeds", "2",
            "--i0-frac", "0.02", "--out"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + [str(a)]) == 0 and main(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_network_small(tmp_path):
    out = tmp_path / "net.csv"
    code = main(["network", "--n", "300", "--mean-degree", "6",
                 "--beta", "0.3", "--gamma", "1", "--p", "0.5",
                 "--tau-days", "0.5", "--kappa-days", "2",
                 "--t-end-days", "5", "--seeds", "2", "--i0-frac", "0.02",
                 "--out", str(out)])
    assert code == 0
    meta, cols, rows = read_csv(str(out))
    assert cols == ["t_days", "S_frac", "I_frac", "Q_frac"]
    assert meta["seeds"] == "2"
    assert meta["workers"] in ("1", "2")
    for key in ("version", "base_seed", "net_seed", "n", "mean_degree",
                "beta", "gamma", "p", "tau_days", "kappa_days", "attempts",
                "infections", "recoveries", "isolations", "releases",
                "peak_heap"):
        assert key in meta
    # counters summed over the two runs, each seeded with 6 infected
    assert meta["stale_pops"] == "0"
    assert int(meta["infections"]) - 12 <= int(meta["attempts"])
    assert int(meta["releases"]) <= int(meta["isolations"])
    total = [sum(float(v) for v in r[1:]) for r in rows]
    assert np.allclose(total, 1.0, atol=1e-9)


def test_cli_network_accepts_permanent_isolation(tmp_path):
    out = tmp_path / "net.csv"
    assert main(["network", "--n", "300", "--mean-degree", "6",
                 "--beta", "0.3", "--gamma", "1", "--p", "0.5",
                 "--tau-days", "0.5", "--kappa-days", "inf",
                 "--t-end-days", "5", "--i0-frac", "0.02",
                 "--out", str(out)]) == 0
    meta, _, _ = read_csv(str(out))
    assert meta["kappa_days"] == "inf"
    assert int(meta["isolations"]) > 0 and meta["releases"] == "0"


@pytest.mark.parametrize("flag, value, message", [
    _rejected("--i0-frac", "-0.5", was="--i0-frac = -0.5 must lie in (0, 1]",
              message="-0.5 must be in (0, 1]"),
    _rejected("--i0-frac", "0", was="--i0-frac = 0.0 must lie in (0, 1]",
              message="0.0 must be in (0, 1]"),
    _rejected("--i0-frac", "2", was="--i0-frac = 2.0 must lie in (0, 1]",
              message="2.0 must be in (0, 1]"),
    _rejected("--seeds", "0", was="--seeds = 0 must be >= 1",
              message="0 must be an integer >= 1"),
    _rejected("--seeds", "-1", was="--seeds = -1 must be >= 1",
              message="-1 must be an integer >= 1"),
    _rejected("--n-out", "1", was="--n-out = 1 must be >= 2",
              message="1 must be an integer >= 2"),
    _rejected("--t-end-days", "0",
              was="--t-end-days = 0.0 must be finite and > 0",
              message="0.0 must be finite and > 0"),
    _rejected("--t-end-days", "inf",
              was="--t-end-days = inf must be finite and > 0",
              message="inf must be finite and > 0"),
    _rejected("--t-end-days", "nan",
              was="--t-end-days = nan must be finite and > 0",
              message="nan must be finite and > 0"),
    _rejected("--beta", "-0.3", was="--beta = -0.3 must be finite and >= 0",
              message="-0.3 must be finite and >= 0"),
    _rejected("--beta", "nan", was="--beta = nan must be finite and >= 0",
              message="nan must be finite and >= 0"),
    _rejected("--beta", "inf", was="--beta = inf must be finite and >= 0",
              message="inf must be finite and >= 0"),
    _rejected("--gamma", "0", was="--gamma = 0.0 must be finite and > 0",
              message="0.0 must be finite and > 0"),
    _rejected("--gamma", "-1", was="--gamma = -1.0 must be finite and > 0",
              message="-1.0 must be finite and > 0"),
    _rejected("--tau-days", "-0.5", was="--tau-days = -0.5 must be >= 0",
              message="-0.5 must be in [0, inf]"),
    _rejected("--tau-days", "nan", was="--tau-days = nan must be >= 0",
              message="nan must be in [0, inf]"),
    _rejected("--kappa-days", "-2", message="-2.0 must be in [0, inf]",
              was="--kappa-days = -2.0 must be >= 0 "
              "(inf: permanent isolation)"),
    _rejected("--kappa-days", "nan", message="nan must be in [0, inf]",
              was="--kappa-days = nan must be >= 0 "
              "(inf: permanent isolation)"),
    _rejected("--seed", "-1", was="--seed = -1 must be >= 0",
              message="-1 must be an integer >= 0"),
    _rejected("--net-seed", "-3", was="--net-seed = -3 must be >= 0",
              message="-3 must be an integer >= 0"),
    # "mean degree nan infeasible for n=200" and "need at least one node"
    # named no flag
    _rejected("--mean-degree", "nan", message="nan must be finite and >= 0"),
    _rejected("--n", "-5", message="-5 must be an integer >= 1"),
    # a joint constraint, checked where the graph is built: "mean degree
    # 300.0 infeasible for n=200" named neither quantity
    _joint("--mean-degree", "300",
           message="mean_degree = 300.0 must be >= 0 and < n = 200")])
def test_cli_network_rejects_invalid_counts(tmp_path, capsys, monkeypatch,
                                            flag, value, message):
    # a negative --i0-frac seeded one node and exited 0, 2 listed every
    # node id, and --seeds < 1 reported "no runs to average"; --tau-days
    # nan exited 0, --beta inf never returned, --gamma 0 ran every seed
    # before failing, and --n-out 1, --t-end-days 0 or a negative --seed
    # or --net-seed named no flag.  No run starts, and no graph is built
    import siq.cli as cli

    def no_run(*args):
        raise AssertionError("simulate_network called")

    def no_graph(*args, build=cli.erdos_renyi_network):
        build(*args)                    # may reject its input first
        raise AssertionError("erdos_renyi_network built a graph")

    monkeypatch.setattr(cli, "simulate_network", no_run)
    monkeypatch.setattr(cli, "erdos_renyi_network", no_graph)
    out = tmp_path / "net.csv"
    assert main(["network", "--n", "200", "--mean-degree", "6",
                 "--beta", "0.3", "--gamma", "1", "--p", "0.5",
                 "--tau-days", "0.5", "--kappa-days", "2", flag, value,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        message if message.startswith("error: ")
        else f"error: argument {flag}: {message}") + "\n"
    assert not out.exists()


NETWORK = ["network", "--n", "300", "--mean-degree", "6", "--beta", "0.3",
           "--gamma", "1", "--p", "0.5", "--tau-days", "0.5",
           "--kappa-days", "2", "--t-end-days", "5", "--i0-frac", "0.02"]


def test_cli_network_artifact_independent_of_core_count(tmp_path,
                                                         monkeypatch):
    texts = []
    for cores in (1, 2, 3):
        _set_cores(monkeypatch, cores)
        out = tmp_path / f"net{cores}.csv"
        assert main(NETWORK + ["--seeds", "3", "--out", str(out)]) == 0
        _assert_no_child_left()
        lines = out.read_text().splitlines()
        assert f"# workers = {cores}" in lines
        texts.append([ln for ln in lines if not ln.startswith("# workers")])
    assert texts[0] == texts[1] == texts[2]


@pytest.mark.parametrize("failing, first", [
    ({1001, 1002}, 1001),    # index 1, a child's share, fails first
    ({1000, 1003}, 1000)])   # index 0, this process's share, fails first
def test_cli_network_reports_the_lowest_index_failure(monkeypatch, capsys,
                                                      failing, first):
    import siq.cli as cli
    simulate_network = cli.simulate_network

    def fail_some(net, cfg):
        if cfg.seed in failing:
            raise ValueError(f"seed {cfg.seed} failed")
        return simulate_network(net, cfg)

    monkeypatch.setattr(cli, "simulate_network", fail_some)
    _set_cores(monkeypatch, 2)
    assert main(NETWORK + ["--seeds", "4", "--seed", "1000"]) == 1
    _assert_no_child_left()
    assert capsys.readouterr().err == f"error: seed {first} failed\n"


@pytest.mark.parametrize("argv", [
    IPEAK + ["--kappas", "25,0,inf,2,10"],
    NETWORK + ["--seeds", "5"]])
@pytest.mark.parametrize("failed_call", [1, 2])
def test_cli_runs_the_shares_here_when_a_fork_fails(tmp_path, monkeypatch,
                                                    argv, failed_call):
    # a failed fork (EAGAIN) used to escape main with both ends of its pipe
    # open; this process now runs that share and every later one itself
    _set_cores(monkeypatch, 1)
    serial = tmp_path / "serial.csv"
    assert main(argv + ["--out", str(serial)]) == 0
    pipes, forks = [], []
    pipe, fork = os.pipe, os.fork

    def recorded_pipe():
        pipes.extend(pipe())
        return pipes[-2:]

    def flaky_fork():
        forks.append(None)
        if len(forks) == failed_call:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    _set_cores(monkeypatch, 3)
    monkeypatch.setattr(os, "pipe", recorded_pipe)
    monkeypatch.setattr(os, "fork", flaky_fork)
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    _assert_no_child_left()
    assert len(forks) == failed_call and len(pipes) == 2 * failed_call
    for fd in pipes:
        with pytest.raises(OSError):
            os.fstat(fd)
    lines = out.read_text().splitlines()
    assert f"# workers = {failed_call}" in lines
    assert ([ln for ln in lines if not ln.startswith("# workers")]
            == [ln for ln in serial.read_text().splitlines()
                if not ln.startswith("# workers")])
