"""Command line surface: flag merging, outputs, exit codes."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stochwave as sw
from stochwave import cli, experiments
from stochwave.cli import main

from helpers import read_csv


def test_run_subcommand(tmp_path, capsys):
    rc = main(["run", "--preset", "1", "--dim", "1", "--tau", "0.03125",
               "--seed", "4", "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "method=hr_lri" in out
    assert (tmp_path / "out" / "snap_000000.swv").exists()
    assert (tmp_path / "out" / "snap_000000.txt").exists()


def test_converge_subcommand_with_config(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "dim = 1\npreset = 2\ngamma = 4.0\nmethods = stm\n"
        "levels = 0.125,0.0625,0.03125\nn_samples = 4\nseed = 2\n",
        encoding="utf-8")
    out_dir = tmp_path / "res"
    rc = main(["converge", "--config", str(cfg), "--out", str(out_dir)])
    assert rc == 0
    rows = read_csv(out_dir / "convergence.csv")
    assert len(rows) == 3
    assert all(r["method"] == "stm" for r in rows)
    # untimed rows: no error-vs-time plot data
    assert sorted(os.listdir(out_dir)) == ["convergence.csv", "error_vs_tau_stm.txt"]
    assert "fitted order" in capsys.readouterr().out


def test_cli_flags_override_config(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("dim = 1\npreset = 2\nmethods = stm\nn_samples = 4\n",
                   encoding="utf-8")
    out_dir = tmp_path / "o"
    rc = main(["converge", "--config", str(cfg), "--method", "sem",
               "--tau", "0.125", "--levels", "3", "--samples", "2",
               "--seed", "9", "--out", str(out_dir)])
    assert rc == 0
    rows = read_csv(out_dir / "convergence.csv")
    assert {r["method"] for r in rows} == {"sem"}
    assert [float(r["tau"]) for r in rows] == [0.125, 0.0625, 0.03125]
    assert all(int(r["n_samples"]) == 2 for r in rows)


def test_levels_halve_from_coarsest_config_level(tmp_path):
    # --levels K halves from the coarsest configured level, whatever order
    # the config lists them in
    cfg = tmp_path / "study.cfg"
    cfg.write_text("dim = 1\npreset = 2\ngamma = 4.0\nmethods = stm\n"
                   "levels = 0.03125,0.0625,0.125\n", encoding="utf-8")
    out_dir = tmp_path / "o"
    rc = main(["converge", "--config", str(cfg), "--levels", "3",
               "--samples", "2", "--out", str(out_dir)])
    assert rc == 0
    rows = read_csv(out_dir / "convergence.csv")
    assert [float(r["tau"]) for r in rows] == [0.125, 0.0625, 0.03125]


def test_tau_config_key_sets_levels_like_the_flag(tmp_path):
    # the config key tau follows the rules of --tau: five levels halving
    # from it, not the default levels
    cfg = tmp_path / "study.cfg"
    cfg.write_text("dim = 1\npreset = 2\ngamma = 4.0\nmethods = stm\n"
                   "n_samples = 2\ntau = 0.125\n", encoding="utf-8")
    taus = []
    for name, extra in (("file", []), ("flag", ["--tau", "0.125"])):
        out_dir = tmp_path / name
        rc = main(["converge", "--config", str(cfg), "--out", str(out_dir)] + extra)
        assert rc == 0
        taus.append([float(r["tau"]) for r in read_csv(out_dir / "convergence.csv")])
    assert taus[0] == taus[1] == [0.125 * 2.0**-i for i in range(5)]


def test_levels_flag_keeps_the_listed_levels_and_their_n_cuts(tmp_path):
    # --levels that generates the levels a config lists, in any order, keeps
    # each level's own n_cuts entry
    cfg = tmp_path / "study.cfg"
    cfg.write_text("dim = 1\npreset = 2\ngamma = 4.0\nmethods = stm\nn_samples = 2\n"
                   "levels = 0.015625,0.0625,0.03125\nn_cuts = 12,3,6\n", encoding="utf-8")
    out_dir = tmp_path / "o"
    assert main(["converge", "--config", str(cfg), "--levels", "3", "--out", str(out_dir)]) == 0
    rows = read_csv(out_dir / "convergence.csv")
    assert [(float(r["tau"]), int(r["n_cut"])) for r in rows] == [
        (0.0625, 3), (0.03125, 6), (0.015625, 12)]


def test_compare_subcommand(tmp_path):
    out_dir = tmp_path / "cmp"
    rc = main(["compare", "--preset", "2", "--dim", "1", "--gamma", "4.0",
               "--method", "stm,sem", "--tau", "0.125", "--levels", "3",
               "--samples", "2", "--seed", "5", "--out", str(out_dir)])
    assert rc == 0
    rows = read_csv(out_dir / "convergence.csv")
    assert {r["method"] for r in rows} == {"stm", "sem"}
    assert all(float(r["wall_seconds"]) > 0 for r in rows)
    assert (out_dir / "error_vs_time_sem.txt").exists()


@pytest.mark.parametrize("argv", [
    ["converge", "--preset", "4", "--samples", "2", "--tau", "0.125", "--levels", "3"],
    ["run", "--preset", "3", "--tau", "0.0625"],
], ids=["converge-preset-4", "run-preset-3"])
def test_a_2d_preset_needs_no_dim_flag(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out").exists()


def test_a_2d_preset_resolves_in_2d_at_its_default_levels(tmp_path):
    for argv in (["converge", "--preset", "4", "--samples", "2"],
                 ["run", "--preset", "3", "--tau", "0.0625"]):
        config = cli._merge_config(cli._build_parser().parse_args(argv))
        assert config.dim is None
        assert experiments.resolve_config(config).dim == 2
    # a bare 2D study runs at the 2D default levels, whose initial state's
    # full band is 512 (the 1D levels would need band 11585, 32 GiB)
    assert main(["converge", "--preset", "4", "--samples", "2", "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "convergence.csv")
    assert [float(r["tau"]) for r in rows] == list(experiments.DEFAULT_LEVELS[2])


@pytest.mark.parametrize("preset,dim", [("2", 1), ("4", 2)])
def test_levels_halve_from_the_default_of_the_dimension(preset, dim):
    # --levels K with neither --tau nor listed levels halves from the
    # coarsest default level of the config's dimension, where a bare study
    # of that dimension starts: the same levels for the same count
    bare = ["converge", "--preset", preset, "--samples", "2"]
    count = str(len(experiments.DEFAULT_LEVELS[dim]))
    parse = cli._build_parser().parse_args
    levels = [experiments.resolve_config(cli._merge_config(parse(argv))).levels
              for argv in (bare, bare + ["--levels", count])]
    assert levels[0] == levels[1] == experiments.DEFAULT_LEVELS[dim]


@pytest.mark.parametrize("tau,t_final", [("0.1", "0.8"), ("0.0375", "0.3")])
def test_run_at_a_horizon_the_study_levels_do_not_tile(tmp_path, capsys, tau, t_final):
    # a single run draws its lattice at tau alone, so the study's default
    # levels 2^-5..2^-9, which do not tile t_final, do not concern it
    rc = main(["run", "--preset", "1", "--tau", tau, "--tfinal", t_final, "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    assert "steps=8" in out


# argument combinations the runtime would reject; each must fail at config
# resolution, before any run, with exit 2 and no traceback
BAD_ARGUMENTS = [
    ["converge", "--preset", "2", "--method", "warp"],
    ["converge", "--config", "{tmp}/nope.cfg"],
    ["converge", "--preset", "2", "--tfinal", "0.75", "--tau", "0.03125", "--levels", "3"],
    ["run", "--preset", "1", "--tau", "0.3"],
    ["run", "--preset", "1", "--tau", "0.0625", "--tfinal", "0.1875"],
    ["converge", "--preset", "2", "--tau", "0.3", "--levels", "3"],
    ["converge", "--dim", "2", "--preset", "1", "--tau", "0.125", "--levels", "3"],
    ["converge", "--preset", "2", "--samples", "0"],
    ["converge", "--preset", "2", "--alpha", "0.5"],
    ["converge", "--preset", "2", "--gamma", "0"],
    ["converge", "--preset", "2", "--seed", "-1"],
    ["run", "--preset", "1", "--tau", "0.0625", "--sample", "-1"],
    # a path on a stream that preset initial data draws from
    ["run", "--preset", "2", "--sample", "18446744073709551615"],
    ["converge", "--preset", "2", "--tfinal", "-0.25"],
    ["converge", "--config", "{tmp}/preset7.cfg"],
    ["converge", "--config", "{tmp}/tau_ref0.cfg"],
    ["converge", "--config", "{tmp}/n_cuts0.cfg"],
    ["converge", "--config", "{tmp}/dim_abc.cfg"],
    ["converge", "--config", "{tmp}/n_cuts_x.cfg"],
    ["converge", "--config", "{tmp}/no_methods.cfg"],
    ["run", "--config", "{tmp}/no_methods.cfg"],
    ["converge", "--preset", "2", "--method", "stm,stm"],
    # a reference box of 32^10 modes per axis: the plateaus' profiles at
    # that band, or one column of the tail pass over the |k| orthant
    ["converge", "--preset", "1", "--tau", "0.125", "--levels", "3", "--alpha", "10"],
    ["converge", "--preset", "4", "--tau", "0.125", "--levels", "3", "--alpha", "10"],
    ["run", "--preset", "1", "--alpha", "1e6"],
    ["run", "--preset", "1", "--method", "sem,stm"],
    ["converge", "--preset", "2", "--dim", "3"],
    ["converge", "--preset", "2", "--dim", "0"],
    ["converge", "--dim", "3"],
    ["converge", "--dim", "0"],
    ["converge", "--preset", "7"],
    ["converge", "--preset", "2", "--seed", "x"],
    ["converge", "--preset", "2", "--workers", "0"],
    ["converge", "--preset", "2", "--workers", "-1"],
    ["converge", "--config", "{tmp}/binary.cfg"],
    # a Brownian lattice of t_final / tau_ref cells that overflows, or that
    # needs more than physical memory (2^40 / 2^-11 cells, 16 PiB)
    ["converge", "--preset", "2", "--tfinal", "1e308"],
    ["converge", "--preset", "2", "--tfinal", "1099511627776"],
    ["run", "--preset", "1", "--tfinal", "1099511627776"],
    # a non-finite or huge level beside an explicit tau_ref
    ["converge", "--config", "{tmp}/level_nan.cfg"],
    ["converge", "--config", "{tmp}/level_inf.cfg"],
    ["converge", "--config", "{tmp}/level_huge.cfg"],
    # a level that does not tile t_final, named before the tau_ref derived
    # from it
    ["converge", "--preset", "2", "--tau", "0.3"],
    # a stepped band M whose one array needs more than physical memory
    # (1e10 + 1 complex slots, 149 GiB), although the reference box fits
    ["converge", "--config", "{tmp}/n_cuts_huge.cfg"],
    # a negative snapshot stride (0 means the default), and a repeated level
    # whatever n_cuts says
    ["run", "--preset", "1", "--tau", "0.0625", "--stride", "-3"],
    ["converge", "--config", "{tmp}/level_twice.cfg"],
    # data collapsed to one mode; levels other than the ones n_cuts pair with
    ["converge", "--preset", "2", "--gamma", "inf"],
    ["converge", "--config", "{tmp}/n_cuts_levels.cfg", "--tau", "0.125", "--levels", "3"],
    # no level at all, with and without the step it would halve from
    ["converge", "--preset", "2", "--levels", "0"],
    ["converge", "--preset", "2", "--levels", "-2"],
    ["converge", "--preset", "2", "--tau", "0.125", "--levels", "0"],
    ["converge", "--preset", "2", "--tau", "0.125", "--levels", "-2"],
    ["run", "--preset", "1", "--tau", "0.0625", "--levels", "0"],
]

# what the message names: the lattice each entry point draws (a study's at
# tau_ref = 2^-11, a single run's at tau = 2^-9), the bad level, band M, or
# the reference's full band, built or summed by the tail pass
BAD_ARGUMENT_MESSAGES = {
    ("converge", "--preset", "1", "--tau", "0.125", "--levels", "3", "--alpha", "10"):
        "building the initial state at band 32 with alpha 10",
    ("converge", "--preset", "4", "--tau", "0.125", "--levels", "3", "--alpha", "10"):
        "the tail pass over the |k| orthant of band 1125899906842624",
    ("converge", "--preset", "2", "--tfinal", "1099511627776"): "t_final/tau_ref = 2^51 cells",
    ("run", "--preset", "1", "--tfinal", "1099511627776"): "t_final/tau = 2^49 cells",
    ("converge", "--config", "{tmp}/level_nan.cfg"): "level must be finite",
    ("converge", "--config", "{tmp}/level_inf.cfg"): "level must be finite",
    ("converge", "--config", "{tmp}/level_huge.cfg"): "t_final/level",
    ("converge", "--preset", "2", "--tau", "0.3"):
        "t_final/level: 0.25 is not a whole number of steps 0.3",
    ("converge", "--config", "{tmp}/n_cuts_huge.cfg"): "widest stepped band 10000000000",
    ("run", "--preset", "1", "--tau", "0.0625", "--stride", "-3"): "snapshot_stride must be >= 0",
    ("converge", "--config", "{tmp}/level_twice.cfg"): "repeated level 0.0625",
    ("converge", "--preset", "2", "--gamma", "inf"): "gamma must be finite and positive",
    ("converge", "--dim", "2", "--preset", "1", "--tau", "0.125", "--levels", "3"):
        "preset 1 is 1-dimensional, config says 2",
    ("converge", "--dim", "3"): "dim must be one of (1, 2), got 3",
    ("run", "--preset", "2", "--sample", "18446744073709551615"): "reserved for initial data",
    ("converge", "--dim", "0"): "dim must be one of (1, 2), got 0",
    ("converge", "--config", "{tmp}/n_cuts_levels.cfg", "--tau", "0.125", "--levels", "3"):
        "n_cuts pair with the listed levels",
    ("converge", "--preset", "2", "--levels", "0"): "--levels must be at least 1, got 0",
    ("converge", "--preset", "2", "--levels", "-2"): "--levels must be at least 1, got -2",
    ("converge", "--preset", "2", "--tau", "0.125", "--levels", "0"):
        "--levels must be at least 1, got 0",
    ("converge", "--preset", "2", "--tau", "0.125", "--levels", "-2"):
        "--levels must be at least 1, got -2",
    ("run", "--preset", "1", "--tau", "0.0625", "--levels", "0"):
        "--levels must be at least 1, got 0",
}


def test_config_error_exit_code(tmp_path, capsys):
    (tmp_path / "preset7.cfg").write_text("preset = 7\n", encoding="utf-8")
    (tmp_path / "tau_ref0.cfg").write_text("preset = 2\ntau_ref = 0\n", encoding="utf-8")
    (tmp_path / "n_cuts0.cfg").write_text(
        "preset = 2\nlevels = 0.125,0.0625\nn_cuts = 0,4\n", encoding="utf-8")
    (tmp_path / "dim_abc.cfg").write_text("preset = 2\ndim = abc\n", encoding="utf-8")
    (tmp_path / "n_cuts_x.cfg").write_text(
        "preset = 2\nlevels = 0.125,0.0625,0.03125\nn_cuts = 4,x,8\n", encoding="utf-8")
    (tmp_path / "no_methods.cfg").write_text("preset = 1\nmethods = ,\n", encoding="utf-8")
    (tmp_path / "binary.cfg").write_bytes(b"\xff\xfe\x00preset = 2\n")
    for name, level in (("nan", "nan"), ("inf", "inf"), ("huge", "1e308")):
        (tmp_path / f"level_{name}.cfg").write_text(
            f"preset = 2\nlevels = {level}\ntau_ref = 0.001953125\n", encoding="utf-8")
    (tmp_path / "n_cuts_huge.cfg").write_text(
        "preset = 2\nlevels = 0.125,0.0625,0.03125\nn_cuts = 4,8,10000000000\n",
        encoding="utf-8")
    (tmp_path / "level_twice.cfg").write_text(
        "preset = 2\nlevels = 0.0625,0.0625,0.03125\nn_cuts = 4,2,8\n", encoding="utf-8")
    (tmp_path / "n_cuts_levels.cfg").write_text(
        "preset = 2\nlevels = 0.0625,0.03125,0.015625\nn_cuts = 4,8,16\n", encoding="utf-8")
    # each case in process, through cli.main
    for bad in BAD_ARGUMENTS:
        argv = [a.format(tmp=tmp_path) for a in bad] + ["--out", str(tmp_path / "out")]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2, (argv, err)
        assert "Traceback" not in err, (argv, err)
        assert "configuration error" in err, (argv, err)
        assert BAD_ARGUMENT_MESSAGES.get(tuple(bad), "") in err, (argv, err)
    assert not (tmp_path / "out").exists()
    # and one through the module entry point, in a process of its own
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(sw.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "stochwave.cli", *BAD_ARGUMENTS[0],
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "configuration error" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spelling,method", [("hrlri", "hr_lri"), ("HR_LRI", "hr_lri"),
                                             ("HrLri", "hr_lri"), ("Sem", "sem"),
                                             (" stm ", "stm"), ("LRI", "lri")])
def test_method_spellings(tmp_path, capsys, spelling, method):
    # any case of a scheme name, and hrlri for hr_lri
    rc = main(["run", "--preset", "1", "--tau", "0.0625", "--method", spelling,
               "--out", str(tmp_path)])
    assert rc == 0
    assert f"method={method} " in capsys.readouterr().out


def test_run_at_a_step_within_tolerance(tmp_path, capsys):
    # t_final / tau lies 4e-10 below 4: the step the config accepts is
    # the step the run takes
    rc = main(["run", "--preset", "1", "--tau", "0.06250000000625", "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    assert "steps=4" in out
    assert sorted(os.listdir(tmp_path))[-1] == "snap_000004.txt"


@pytest.mark.parametrize("out", ["file", "file/sub"])
@pytest.mark.parametrize("command", [
    ["converge", "--preset", "2", "--tau", "0.125", "--levels", "3", "--samples", "2"],
    ["run", "--preset", "1", "--tau", "0.0625"],
])
def test_out_that_cannot_be_a_directory(tmp_path, capsys, monkeypatch, command, out):
    # an --out that is a file, or a path through one, is refused at
    # configuration, before any stepping
    import stochwave.experiments as exp

    def never(*args, **kwargs):
        raise AssertionError("stepped before the output directory was checked")

    monkeypatch.setattr(exp, "run_block", never)
    monkeypatch.setattr(exp, "run", never)
    (tmp_path / "file").write_text("x", encoding="utf-8")
    rc = main(command + ["--out", str(tmp_path / out)])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err
    assert (tmp_path / "file").read_text(encoding="utf-8") == "x"


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    # force every sample to be excluded so the study trips its loud-failure
    # threshold
    import stochwave.experiments as exp
    real_block = exp.run_block

    def explode(*args, **kwargs):
        results = real_block(*args, **kwargs)
        for res in results:
            res.failed.update(dict.fromkeys(range(res.u_hat.shape[0]), 0))
        return results

    monkeypatch.setattr(exp, "run_block", explode)
    rc = main(["converge", "--preset", "2", "--dim", "1", "--method", "stm",
               "--tau", "0.125", "--levels", "3", "--samples", "2",
               "--out", str(tmp_path)])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("command,blocked", [
    (["converge", "--preset", "2", "--tau", "0.125", "--levels", "3", "--samples", "2"],
     "convergence.csv"),
    (["compare", "--preset", "2", "--method", "hrlri,stm", "--tau", "0.125", "--levels", "3",
      "--samples", "2"], "error_vs_time_stm.txt"),
    (["run", "--preset", "1", "--tau", "0.0625"], "snap_000000.swv"),
])
def test_unwritable_output_exit_code(tmp_path, capsys, monkeypatch, command, blocked):
    # a directory holding an output file's name: one line on stderr, exit 4,
    # before any block is stepped and before any output is written
    def never(*args, **kwargs):
        raise AssertionError("stepped before the output paths were checked")

    monkeypatch.setattr(sw.experiments, "run_block", never)
    monkeypatch.setattr(sw.integrators, "run_block", never)
    (tmp_path / blocked).mkdir()
    rc = main(command + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 4
    assert err.startswith("output error: ") and blocked in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert os.listdir(tmp_path) == [blocked]


def test_snapshot_plot_data_format(tmp_path):
    rc = main(["run", "--preset", "1", "--dim", "1", "--tau", "0.03125",
               "--out", str(tmp_path), "--stride", "8"])
    assert rc == 0
    lines = (tmp_path / "snap_000000.txt").read_text().splitlines()
    assert lines[0].startswith("# ")
    first = lines[1].split()
    assert len(first) == 2
    assert float(first[0]) == 0.0
    assert np.isfinite(float(first[1]))


def test_readme_lists_every_config_key():
    # the README's key list, the config file converters and the config
    # fields name the same keys, and every flag sets one of them
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"Keys mirror the\s+`ExperimentConfig` fields:(.*?)\.\s", readme, re.S)
    keys = re.findall(r"`(\w+)`", listed.group(1))
    assert len(keys) == len(set(keys))
    fields = {f.name for f in dataclasses.fields(sw.ExperimentConfig)} - {"problem"}
    assert set(keys) == set(experiments._CONVERTERS) == fields
    assert {key for key, _ in cli._FLAGS.values()} <= fields
