"""Command line surface: flag merging, outputs, exit codes."""

import os
import subprocess
import sys

import numpy as np
import pytest

import stochwave as sw
from stochwave.cli import main


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
    rows = sw.parse_csv(out_dir / "convergence.csv")
    assert len(rows) == 3
    assert all(r["method"] == "stm" for r in rows)
    assert (out_dir / "error_vs_tau_stm.txt").exists()
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
    rows = sw.parse_csv(out_dir / "convergence.csv")
    assert {r["method"] for r in rows} == {"sem"}
    assert [r["tau"] for r in rows] == [0.125, 0.0625, 0.03125]
    assert all(r["n_samples"] == 2 for r in rows)


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
    rows = sw.parse_csv(out_dir / "convergence.csv")
    assert [r["tau"] for r in rows] == [0.125, 0.0625, 0.03125]


def test_compare_subcommand(tmp_path):
    out_dir = tmp_path / "cmp"
    rc = main(["compare", "--preset", "2", "--dim", "1", "--gamma", "4.0",
               "--method", "stm,sem", "--tau", "0.125", "--levels", "3",
               "--samples", "2", "--seed", "5", "--out", str(out_dir)])
    assert rc == 0
    rows = sw.parse_csv(out_dir / "convergence.csv")
    assert {r["method"] for r in rows} == {"stm", "sem"}
    assert all(r["wall_seconds"] > 0 for r in rows)
    assert (out_dir / "error_vs_time_sem.txt").exists()


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
    ["converge", "--preset", "2", "--tfinal", "-0.25"],
    ["converge", "--config", "{tmp}/preset7.cfg"],
    ["converge", "--config", "{tmp}/tau_ref0.cfg"],
    ["converge", "--config", "{tmp}/n_cuts0.cfg"],
    ["converge", "--config", "{tmp}/dim_abc.cfg"],
    ["converge", "--config", "{tmp}/n_cuts_x.cfg"],
    ["converge", "--config", "{tmp}/no_methods.cfg"],
    ["run", "--config", "{tmp}/no_methods.cfg"],
    ["converge", "--preset", "2", "--method", "stm,stm"],
    ["converge", "--preset", "2", "--tau", "0.125", "--levels", "3", "--alpha", "10"],
    ["run", "--preset", "1", "--alpha", "1e6"],
    ["run", "--preset", "1", "--method", "sem,stm"],
    ["converge", "--preset", "2", "--dim", "3"],
    ["converge", "--preset", "2", "--dim", "0"],
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
    # a stepped band M whose one array needs more than physical memory
    # (1e10 + 1 complex slots, 149 GiB), although the reference box fits
    ["converge", "--config", "{tmp}/n_cuts_huge.cfg"],
]

# what the message names: the lattice each entry point draws (a study's at
# tau_ref = 2^-11, a single run's at tau = 2^-9), the bad level, or band M
BAD_ARGUMENT_MESSAGES = {
    ("converge", "--preset", "2", "--tfinal", "1099511627776"): "t_final/tau_ref = 2^51 cells",
    ("run", "--preset", "1", "--tfinal", "1099511627776"): "t_final/tau = 2^49 cells",
    ("converge", "--config", "{tmp}/level_nan.cfg"): "level must be finite",
    ("converge", "--config", "{tmp}/level_inf.cfg"): "level must be finite",
    ("converge", "--config", "{tmp}/level_huge.cfg"): "t_final/level",
    ("converge", "--config", "{tmp}/n_cuts_huge.cfg"): "widest stepped band 10000000000",
}


def test_config_error_exit_code(tmp_path):
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
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(sw.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for bad in BAD_ARGUMENTS:
        argv = [a.format(tmp=tmp_path) for a in bad] + ["--out", str(tmp_path / "out")]
        proc = subprocess.run([sys.executable, "-m", "stochwave.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, (argv, proc.stderr)
        assert "configuration error" in proc.stderr, (argv, proc.stderr)
        assert BAD_ARGUMENT_MESSAGES.get(tuple(bad), "") in proc.stderr, (argv, proc.stderr)
    assert not (tmp_path / "out").exists()


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
        res = real_block(*args, **kwargs)
        res.failed.update(dict.fromkeys(range(res.u_hat.shape[0]), 0))
        return res

    monkeypatch.setattr(exp, "run_block", explode)
    rc = main(["converge", "--preset", "2", "--dim", "1", "--method", "stm",
               "--tau", "0.125", "--levels", "3", "--samples", "2",
               "--out", str(tmp_path)])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


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
