import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from platelab import lab
from platelab import cli
from platelab.cli import run_cli
from platelab.elasticity import LameParams
from platelab.energy import limit_energy, rescaled_energy
from platelab.geometry import axis_plane_crack
from platelab.kirchhoff_love import KLState, kl_lift, reduced_gradient

P2 = LameParams(1.0, 1.0, 2)


# ---------------------------------------------------------------------------
# experiment drivers


def test_membrane_crack_state_structure():
    s = lab.membrane_crack_state(0.5, (32,), (0.0,), (1.0,))
    assert np.count_nonzero(s.crack_cols[0]) == 1
    j = int(np.argmax(s.crack_cols[0]))
    # unit jump across the crack column, slope t on both sides
    assert s.ubar[j + 1, 0] - s.ubar[j, 0] == pytest.approx(1.0 + 0.5 / 32)
    assert s.ubar[1, 0] - s.ubar[0, 0] == pytest.approx(0.5 / 32)
    assert np.all(s.un == 0.0)


def test_membrane_crack_state_n3_breaks_one_full_row():
    s = lab.membrane_crack_state(0.5, (8, 6), (0.0, 0.0), (1.0, 1.0), n=3)
    j = int(np.argmax(np.any(s.crack_cols[0], axis=1)))
    assert np.all(s.crack_cols[0][j])
    assert np.count_nonzero(s.crack_cols[0]) == 6
    assert not np.any(s.crack_cols[1])
    assert s.crack_measure() == pytest.approx(1.0)
    # unit jump across the crack in every row, slope t along x_1
    assert np.allclose(s.ubar[j + 1, :, 0] - s.ubar[j, :, 0], 1.0 + 0.5 / 8)
    assert np.all(s.ubar[..., 1] == 0.0)


def test_recovery_sequence_validates_smoothing():
    s = lab.membrane_crack_state(0.5, (16,), (0.0,), (1.0,))
    with pytest.raises(ValueError):
        lab.recovery_sequence(s, P2, 0.1, 0.0)
    with pytest.raises(ValueError):
        lab.recovery_sequence(s, P2, 0.1, 1.0 / 64)  # below grid resolution


@pytest.mark.parametrize("rho", [np.inf, np.nan])
def test_recovery_sequence_rejects_a_non_finite_rho(rho):
    s = lab.membrane_crack_state(0.5, (16,), (0.0,), (1.0,))
    with pytest.raises(ValueError, match="rho must be positive and finite"):
        lab.recovery_sequence(s, P2, rho, 0.25)


@pytest.mark.parametrize("scale", [0.0, -1.0, float("inf"), float("nan")])
def test_recovery_sequence_rejects_a_bad_smoothing_scale(scale):
    # inf overflowed the filter size and nan slipped past a sign test
    s = lab.membrane_crack_state(0.5, (16,), (0.0,), (1.0,))
    with pytest.raises(ValueError, match="smoothing_scale must be positive and finite"):
        lab.recovery_sequence(s, P2, 0.1, scale)


@pytest.mark.parametrize("lam, mu", [(1.0, float("inf")), (float("inf"), 1.0)])
def test_experiment_config_names_a_non_finite_lame_parameter(lam, mu):
    with pytest.raises(ValueError, match="Lame parameters must be finite"):
        lab.ExperimentConfig(lam=lam, mu=mu)


def test_recovery_sweep_rows_and_gap():
    s = lab.membrane_crack_state(0.5, (64,), (0.0,), (1.0,))
    rows = lab.recovery_sweep(s, P2, [1e-1, 1e-2], layers=8)
    assert [r["rho"] for r in rows] == [1e-1, 1e-2]
    assert rows[1]["gap"] <= rows[0]["gap"]
    for r in rows:
        assert r["e_an_norm"] <= r["bound_an"] + 1e-12
        assert r["e_nn_norm"] <= r["bound_nn"] + 1e-12


def test_recovery_sweep_of_a_bending_state_approaches_the_limit():
    # un = x^2 / 2 has E_0 = (1/2)(1/12)(8/3) = 1/9; the lift must take the
    # film's own slope of un, or e_{alpha n} = O(h) blows up under 1/rho
    s = KLState(2, (64,), (0.0,), (1.0,), np.zeros((64, 1)), np.zeros(64),
                np.zeros((64, 1)))
    s.un = 0.5 * s.plan_points()[..., 0] ** 2
    s.grad_un = reduced_gradient(s.un, s.plan_h, s.crack_cols)
    rows = lab.recovery_sweep(s, P2, [1e-2, 1e-3], layers=32)
    assert rows[0]["e_limit"] == pytest.approx(1.0 / 9.0)
    assert max(r["rel_gap"] for r in rows) <= 0.03


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=2), st.data())
def test_box_filter_matches_uniform_filter(shape, data):
    # odd widths from 1 to more than the axis is long, zeros beyond the ends
    size = [2 * data.draw(st.integers(0, k + 1)) + 1 for k in shape]
    x = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).standard_normal(shape)
    want = ndimage.uniform_filter(x, size=size, mode="constant", cval=0.0)
    got = lab._box_filter(x, size)
    assert got.shape == x.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(x))


def test_recovery_sweep_energy_is_not_below_the_limit():
    s = lab.membrane_crack_state(0.5, (64,), (0.0,), (1.0,))
    rows = lab.recovery_sweep(s, P2, [1e-1, 1e-2], layers=8)
    assert all(r["e_rho"] >= r["e_limit"] - 1e-8 for r in rows)


def test_lift_energy_is_not_below_the_limit():
    # the plain lift has e_nn = 0, so its E_rho bounds E_0 from above at every rho
    s = lab.membrane_crack_state(0.5, (32,), (0.0,), (1.0,))
    e0 = limit_energy(s, P2).total
    assert all(rescaled_energy(kl_lift(s, 8), P2, rho).total >= e0 - 1e-8
               for rho in (1e-1, 1e-2))


def test_jump_energy_experiment_mean_row():
    crack = axis_plane_crack(2, 0, 0.5, ((0.0, 1.0),))
    rows = lab.jump_energy_experiment(crack, 1.0 / 16, (0.0, 0.0), (1.0, 1.0),
                                      samples=10, seed=1)
    assert rows[-1]["sample"] == -1
    mean = np.mean([r["jump_energy"] for r in rows[:-1]])
    assert rows[-1]["jump_energy"] == pytest.approx(mean)
    assert rows[0]["oracle"] == pytest.approx(1.0 + 3.0 / np.sqrt(2.0))


@pytest.mark.parametrize("samples", [0, -1])
def test_jump_energy_experiment_needs_a_sample(samples):
    # no sample left the mean row nan, with a warning
    crack = axis_plane_crack(2, 0, 0.5, ((0.0, 1.0),))
    with pytest.raises(ValueError, match="samples must be at least 1"):
        lab.jump_energy_experiment(crack, 1.0 / 16, (0.0, 0.0), (1.0, 1.0), samples=samples)


@pytest.mark.parametrize("samples", [0, -2])
def test_classify_experiment_needs_a_sample(samples):
    # no sample returned [] with no error
    crack = axis_plane_crack(2, 0, 0.5, ((0.0, 1.0),))
    with pytest.raises(ValueError, match="samples must be at least 1"):
        lab.classify_experiment(crack, 1.0 / 16, (0.0, 0.0), (1.0, 1.0), samples=samples)


def test_classify_experiment_deterministic_first_sample():
    crack = axis_plane_crack(2, 0, 0.5, ((0.0, 1.0),))
    r1 = lab.classify_experiment(crack, 1.0 / 16, (0.0, 0.0), (1.0, 1.0))
    r2 = lab.classify_experiment(crack, 1.0 / 16, (0.0, 0.0), (1.0, 1.0))
    assert r1[0]["num_bad"] == r2[0]["num_bad"] > 0


# ---------------------------------------------------------------------------
# configuration


def test_experiment_config_validates_rho_list():
    with pytest.raises(ValueError):
        lab.ExperimentConfig(rho_list=(1e-2, 1e-1))
    with pytest.raises(ValueError):
        lab.ExperimentConfig(rho_list=(1e-1, -1e-2))
    with pytest.raises(ValueError):
        lab.ExperimentConfig(rho_list=())


_BAD_FIELDS = {"samples 0": {"samples": 0}, "stretch nan": {"stretch": float("nan")},
               "stretch inf": {"stretch": float("inf")}, "h 0": {"h": 0.0},
               "h nan": {"h": float("nan")}, "n 4": {"n": 4}, "plan 0": {"plan": (0,)},
               "plan empty": {"plan": ()}, "plan 3 0": {"n": 3, "plan": (3, 0)},
               "omega_hi 0": {"omega_hi": (0.0,)},
               "omega_lo nan": {"omega_lo": (float("nan"),)},
               "omega_hi inf": {"omega_hi": (float("inf"),)},
               "omega lengths": {"omega_lo": (0.0, 0.0)},
               "omega none": {"omega_lo": (), "omega_hi": ()},
               "layers 0": {"layers": 0}, "lam nan": {"lam": float("nan")},
               "lam inf": {"lam": float("inf")}, "mu inf": {"mu": float("inf")},
               "mu 0": {"mu": 0.0}, "lam -1": {"lam": -1.0}}


@pytest.mark.parametrize("name", list(_BAD_FIELDS))
def test_experiment_config_validates_fields(name):
    with pytest.raises(ValueError):
        lab.ExperimentConfig(**_BAD_FIELDS[name])


def test_experiment_config_accepts_a_plan_of_any_length():
    # the lattice subcommands ignore the plan, so an n = 3 classify config
    # keeps the default one-entry plan and omega
    cfg = lab.ExperimentConfig(n=3)
    assert cfg.plan == (256,) and cfg.lame.n == 3


def test_load_config_and_mapping(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\nstretch = 1.2\nplan = 64\n"
                    "rho_list = 1e-1, 1e-2\nseed = 3\n")
    cfg = lab.config_from_mapping(lab.load_config(path))
    assert cfg.stretch == 1.2
    assert cfg.plan == (64,)
    assert cfg.rho_list == (0.1, 0.01)
    assert cfg.seed == 3


def test_load_config_rejects_malformed_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("stretch 1.2\n")
    with pytest.raises(ValueError):
        lab.load_config(path)


def test_config_mapping_rejects_unknown_key():
    with pytest.raises(ValueError):
        lab.config_from_mapping({"granularity": "3"})


def test_cli_rejects_an_experiment_key_in_the_config(tmp_path, capsys):
    # the subcommand names the experiment; a config line naming another one
    # would be silently overridden
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment = classify\n")
    assert run_cli(["minimize", "--config", str(cfg)]) == 1
    assert "unknown config key: experiment" in capsys.readouterr().err


def test_write_csv_deterministic(tmp_path):
    rows = [{"a": 1, "b": 0.1}, {"a": 2, "b": np.float64(0.2)}]
    p1, p2 = tmp_path / "x1.csv", tmp_path / "x2.csv"
    lab.write_csv(rows, p1)
    lab.write_csv(rows, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text() == "a,b\n1,0.1\n2,0.2\n"
    with pytest.raises(ValueError):
        lab.write_csv([], tmp_path / "empty.csv")


# ---------------------------------------------------------------------------
# command line


def test_cli_missing_crack_file_exit_code(capsys):
    code = run_cli(["classify", "--crack", "/nonexistent/crack.txt",
                    "--h", "0.0625"])
    assert code == 1
    assert "crack file not found" in capsys.readouterr().err


def test_cli_requires_crack(capsys):
    assert run_cli(["classify", "--h", "0.0625"]) == 1


def test_cli_rejects_unknown_datum(capsys):
    assert run_cli(["minimize", "--datum", "shear:0.5"]) == 1


_IGNORED_FLAGS = (
    [(cmd, "--seed", "3") for cmd in
     ("approximate", "recover", "minimize", "sweep")]
    + [(cmd, flag, value) for cmd in ("recover", "minimize", "sweep")
       for flag, value in (("--h", "0.0625"), ("--crack", "crack.txt"))]
    + [(cmd, "--rho", "0.1") for cmd in
       ("classify", "jump-energy", "approximate", "minimize")]
    + [(cmd, "--datum", "stretch:0.5") for cmd in
       ("classify", "jump-energy", "approximate")])


@pytest.mark.parametrize("command,flag,value", _IGNORED_FLAGS)
def test_cli_rejects_flag_the_subcommand_ignores(command, flag, value, capsys):
    assert run_cli([command, flag, value]) == 1
    err = capsys.readouterr().err
    assert flag in err and command in err


# config files whose one bad value a subcommand must reject as an input error
_BAD_CONFIGS = {"no samples": ("jump-energy", "samples = 0"),
                "zero plan": ("minimize", "plan = 0"),
                "empty plan": ("recover", "plan ="),
                "zero omega": ("recover", "omega_hi = 0"),
                "empty omega": ("minimize", "omega_lo ="),
                "nan lam": ("minimize", "lam = nan"),
                "no layers": ("minimize", "layers = 0"),
                "n 4": ("sweep", "n = 4"),
                "long plan": ("minimize", "plan = 8 8"),
                "long plan recover": ("recover", "plan = 8 8"),
                "long omega": ("minimize", "omega_lo = 0 0\nomega_hi = 1 1"),
                "long omega recover": ("recover", "omega_lo = 0 0\nomega_hi = 1 1"),
                "n 3 short plan": ("recover", "n = 3"),
                "one cell plan recover": ("recover", "plan = 1"),
                "n 3 one cell plan recover": ("recover", "n = 3\nplan = 1 6\n"
                                              "omega_lo = 0 0\nomega_hi = 1 1")}


def _bad_value_argv(tmp_path, name):
    crack_path = tmp_path / "crack.txt"
    axis_plane_crack(2, 0, 0.5, ((0.0, 1.0),)).save(crack_path)
    crack = ["--crack", str(crack_path), "--h", "0.0625"]
    if name in _BAD_CONFIGS:
        command, text = _BAD_CONFIGS[name]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text + "\n")
        return [command, "--config", str(cfg), *(crack if command == "jump-energy" else [])]
    return {"negative rho": ["recover", "--rho", "-0.1"],
            "nan stretch": ["minimize", "--datum", "stretch:nan"],
            "inf stretch": ["minimize", "--datum", "stretch:inf"],
            # finite, but its bulk energy overflows: no search can compare it
            "overflowing stretch minimize": ["minimize", "--datum", "stretch:1e200"],
            "overflowing stretch recover": ["recover", "--rho", "0.1", "--datum",
                                            "stretch:1e200"],
            "overflowing stretch sweep": ["sweep", "--rho", "0.1", "--datum", "stretch:1e200"],
            "malformed seed": ["classify", *crack, "--seed", "abc"],
            "malformed h": ["classify", "--crack", str(crack_path), "--h", "1/16"]}[name]


@pytest.mark.parametrize("name", ["negative rho", "nan stretch", "inf stretch",
                                  "overflowing stretch minimize",
                                  "overflowing stretch recover", "overflowing stretch sweep",
                                  "malformed seed", "malformed h", *_BAD_CONFIGS])
def test_cli_rejects_bad_flag_and_config_values(name, tmp_path, capsys):
    # flag values go through the same validation as config values, and a
    # malformed one is an input error (1), not argparse's usage exit (2)
    assert run_cli(_bad_value_argv(tmp_path, name)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["classify", "approximate"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_rejects_a_non_finite_crack_file(command, value, tmp_path, capsys):
    crack_path = tmp_path / "crack.txt"
    crack_path.write_text(f"0.5 0.0 {value} 1.0\n")
    assert run_cli([command, "--crack", str(crack_path), "--h", "0.0625"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("n, h", [(2, "0.25"), (3, "0.125")])
def test_cli_approximate_rejects_an_h_that_leaves_no_region(n, h, tmp_path, capsys):
    # V is the box less a margin of 2 n h on each side: inverted in 2D at
    # h = 1/4 and in 3D at h = 1/8, an input error rather than a traceback
    # or a negative region volume
    crack = axis_plane_crack(n, 0, 0.5, ((0.0, 1.0),) * (n - 1))
    crack_path = tmp_path / "crack.txt"
    crack.save(crack_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n = {n}\n")
    assert run_cli(["approximate", "--config", str(cfg), "--crack", str(crack_path),
                    "--h", h]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert "region V" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["classify", "jump-energy", "approximate"])
def test_cli_rejects_an_h_whose_cube_indices_overflow(command, tmp_path, capsys):
    # 1/h cubes per unit do not fit int64: one error line, under the suite's
    # warnings-as-errors, rather than a cast warning and a negative dimension
    crack_path = tmp_path / "crack.txt"
    axis_plane_crack(2, 0, 0.5, ((0.0, 1.0),)).save(crack_path)
    assert run_cli([command, "--crack", str(crack_path), "--h", "1e-300"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "int64" in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_cli_classify_runs_an_n3_config_with_the_default_plan(tmp_path, capsys):
    # the plate subcommands reject a plan of n - 2 entries; classify ignores it
    crack_path = tmp_path / "crack.txt"
    axis_plane_crack(3, 0, 0.5, ((0.0, 1.0), (0.0, 1.0))).save(crack_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 3\n")
    assert run_cli(["classify", "--config", str(cfg), "--crack", str(crack_path),
                    "--h", "0.25"]) == 0
    assert capsys.readouterr().out.startswith("h,sample,num_bad")


def test_cli_bad_flag_value_under_warnings_as_errors(tmp_path):
    src = str(Path(lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "platelab.cli",
                           *_bad_value_argv(tmp_path, "negative rho")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_cli_classify_writes_csv(tmp_path, capsys):
    crack_path = tmp_path / "crack.txt"
    axis_plane_crack(2, 0, 0.5, ((0.0, 1.0),)).save(crack_path)
    out = tmp_path / "rows.csv"
    code = run_cli(["classify", "--crack", str(crack_path), "--h", "0.0625",
                    "--out", str(out)])
    assert code == 0
    text = out.read_text().splitlines()
    assert text[0].startswith("h,sample,num_bad")
    assert len(text) == 21  # header + 20 offset samples (default cap)


def test_cli_minimize_stdout(capsys):
    code = run_cli(["minimize", "--datum", "stretch:1.2"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("stretch,")
    fields = dict(zip(out[0].split(","), out[1].split(",")))
    assert fields["cracked"] == "1"
    assert float(fields["total"]) == pytest.approx(1.0, rel=0.05)


def test_cli_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("plan = 32\nlayers = 4\nrho_list = 1e-1\nstretch = 0.5\n")
    out = tmp_path / "sweep.csv"
    code = run_cli(["recover", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("rho,")
    assert len(lines) == 2


@pytest.mark.parametrize("command", ["classify", "jump-energy", "approximate",
                                     "recover", "minimize", "sweep"])
def test_cli_csv_is_byte_identical_across_runs(command, tmp_path, capsys):
    # rows carry no timings, so two runs of one config give the same bytes,
    # and stdout carries the same bytes as the --out file
    crack_path = tmp_path / "crack.txt"
    axis_plane_crack(2, 0, 0.5, ((0.0, 1.0),)).save(crack_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("plan = 16\nlayers = 4\nrho_list = 1e-1\nstretch = 1.2\n"
                   "samples = 4\n")
    crack = ["--crack", str(crack_path), "--h", "0.0625"]
    args = {"classify": crack,
            "jump-energy": ["--config", str(cfg), *crack],
            "approximate": crack}.get(command, ["--config", str(cfg)])
    outs = [tmp_path / f"run{k}.csv" for k in range(2)]
    for out in outs:
        assert run_cli([command, *args, "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert "wall_time" not in outs[0].read_text().splitlines()[0]
    capsys.readouterr()
    assert run_cli([command, *args]) == 0
    assert capsys.readouterr().out.encode() == outs[0].read_bytes()


@pytest.mark.parametrize("argv,code", [(["minimize", "--datum", "stretch:1.2"], 0),
                                       (["minimize", "--h", "0.1"], 1),
                                       (["bogus"], 1), (["liminf"], 1),
                                       (["minimize", "--bogus", "1"], 1),
                                       ([], 1)])
def test_console_script_exit_codes(argv, code, monkeypatch, capsys):
    # `main` is the `platelab` console script: it reads sys.argv and exits;
    # usage errors are input errors (1), and 2 is left to solver failure
    monkeypatch.setattr("sys.argv", ["platelab", *argv])
    with pytest.raises(SystemExit) as exit_info:
        cli.main()
    assert exit_info.value.code == code
    assert code == 0 or "error: " in capsys.readouterr().err


# the flags each subcommand reads, besides --config and --out
_OWN_FLAGS = {"classify": {"--seed", "--h", "--crack"},
              "jump-energy": {"--seed", "--h", "--crack"},
              "approximate": {"--h", "--crack"},
              "recover": {"--rho", "--datum"},
              "minimize": {"--datum"}, "sweep": {"--rho", "--datum"}}


@pytest.mark.parametrize("command", sorted(_OWN_FLAGS))
def test_cli_help_lists_only_the_flags_a_subcommand_reads(command, capsys):
    assert run_cli([command, "--help"]) == 0
    options = capsys.readouterr().out.split("options:", 1)[1]
    listed = set(re.findall(r"^\s+(-[\w-]+)", options, re.M))
    assert listed == {"-h", "--config", "--out", *_OWN_FLAGS[command]}


@pytest.mark.parametrize("argv,code", [([], 1), (["bogus"], 1), (["minimize", "--help"], 0)])
def test_run_cli_returns_argparse_exit_status(argv, code, capsys):
    # run_cli returns the status of every run, argparse's own exits included
    assert run_cli(argv) == code


def test_cli_rejects_an_abbreviated_flag(tmp_path, capsys):
    crack_path = tmp_path / "crack.txt"
    axis_plane_crack(2, 0, 0.5, ((0.0, 1.0),)).save(crack_path)
    assert run_cli(["classify", "--cr", str(crack_path), "--h", "0.0625"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "--cr" in captured.err
    assert captured.out == ""


def test_cli_out_error_names_the_requested_path(tmp_path, capsys):
    out = tmp_path / "missing" / "rows.csv"
    assert run_cli(["minimize", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert ".csv.tmp" not in err


@pytest.mark.parametrize("flag", ["--out", "--config", "--crack"])
def test_cli_directory_path_is_an_input_error(flag, tmp_path, capsys):
    # a directory where a file is expected: exit 1 with one error line that
    # names it, and no temporary CSV left beside it
    d = tmp_path / "d"
    d.mkdir()
    argv = {"--out": ["recover", "--rho", "0.1", "--out", str(d)],
            "--config": ["recover", "--config", str(d)],
            "--crack": ["classify", "--crack", str(d), "--h", "0.1"]}[flag]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert repr(str(d)) in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert not list(tmp_path.rglob("*.csv.tmp"))


@pytest.mark.parametrize("unbuffered", [False, True])
def test_cli_exits_quietly_when_stdout_is_closed(unbuffered):
    # stdout is a pipe whose read end is already closed, so the first write
    # fails whatever the output size: exit 1 with nothing on stderr
    src = str(Path(lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "platelab.cli",
                               "minimize", "--datum", "stretch:1.2"],
                              stdout=w, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(w)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_module_entry_point_runs_under_warnings_as_errors():
    # `python -m platelab.cli` must not find the module already imported by
    # the package, which runpy reports with a RuntimeWarning
    src = str(Path(lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "platelab.cli",
                           "minimize", "--datum", "stretch:1.2"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.startswith("stretch,")


def test_import_loads_no_scipy_ndimage_or_special():
    # every CLI run pays for what `import platelab` loads; scipy.ndimage and
    # the scipy.special it pulls in were most of it, and the solver loads
    # scipy.sparse only at its first solve
    src = str(Path(lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    probe = ("import sys, platelab, platelab.cli; print(' '.join(m for m in sys.modules"
             " if m.startswith(('scipy.ndimage', 'scipy.special', 'scipy.sparse'))))")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", probe],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_cli_solver_failure_exit_code(monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise RuntimeError("no convergence")

    monkeypatch.setattr(lab, "minimize_limit", failing)
    assert run_cli(["minimize"]) == 2
    assert "solver failure: no convergence" in capsys.readouterr().err


def test_cli_rho_overrides_the_config_list(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("plan = 32\nlayers = 4\nrho_list = 1e-1, 1e-2\nstretch = 0.5\n")
    out = tmp_path / "rows.csv"
    assert run_cli(["recover", "--config", str(cfg), "--rho", "0.01",
                    "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("0.01,")


def test_cli_seed_sets_the_grid_offsets(tmp_path, capsys):
    crack_path = tmp_path / "crack.txt"
    axis_plane_crack(2, 0, 0.5, ((0.0, 1.0),)).save(crack_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 4\n")
    outs = []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}.csv"
        assert run_cli(["jump-energy", "--config", str(cfg), "--crack", str(crack_path),
                        "--h", "0.0625", "--seed", seed, "--out", str(out)]) == 0
        outs.append(out.read_text().splitlines())
    assert outs[0][0] == outs[1][0] and len(outs[0]) == len(outs[1]) == 6
    assert all(a != b for a, b in zip(outs[0][1:], outs[1][1:]))


def _midpoint_axes(n, h, lo, hi):
    """The fine midpoint axes of `approximate_experiment` at step h, in full."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    V = (lo + 2 * n * h, hi - 2 * n * h)
    m = 4 * int(round((hi[0] - lo[0]) / h))
    return [np.linspace(V[0][a], V[1][a], m, endpoint=False) + (V[1][a] - V[0][a]) / (2 * m)
            for a in range(n)]


def _full_scan_rows(crack, h_list, lo, hi):
    """`approximate_experiment` as a block scan of every midpoint: the
    reference the restricted scan must reproduce bit for bit."""
    from platelab.geometry import ShiftedGrid
    from platelab.interpolation import build_approximant

    n = crack.n
    nu = crack.normals[0]
    x0 = crack.simplices[0].mean(axis=0)

    def beyond(coords):
        return sum((x - x0[a]) * nu[a] for a, x in enumerate(coords)) > 0.0

    def v(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.zeros((X.shape[0], n))
        out[:, 0] = X[:, 0] + beyond(X.T)
        return out

    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    rows = []
    for h in h_list:
        grid = ShiftedGrid(n, h, (0.0,) * n, tuple(lo), tuple(hi))
        margin = 2 * n * h
        V = (tuple(lo + margin), tuple(hi - margin))
        vk = build_approximant(v, grid, crack, V)
        axes = _midpoint_axes(n, h, lo, hi)
        m = len(axes[0])
        misses = 0
        for block, vals in vk.blocks(axes):
            grid_axes = np.ix_(axes[0][block], *axes[1:])
            exceed = np.abs(vals[..., 0] - (grid_axes[0] + beyond(grid_axes))) > lab._EXCEED_TOL
            for c in range(1, n):
                exceed |= np.abs(vals[..., c]) > lab._EXCEED_TOL
            misses += int(np.count_nonzero(exceed))
        cellvol = float(np.prod([(V[1][a] - V[0][a]) / m for a in range(n)]))
        bad_measure = float(misses) * cellvol
        vol = float(np.prod([V[1][a] - V[0][a] for a in range(n)]))
        rows.append({"h": h, "exceed_measure": bad_measure,
                     "region_volume": vol,
                     "exceed_fraction": bad_measure / vol,
                     "num_bad_cubes": vk.classification.num_bad})
    return rows


def _bits(rows):
    """Each row with its values as exact hex strings: equal means bitwise equal."""
    return [{k: float(v).hex() for k, v in r.items()} for r in rows]


def _simplex_crack(simplex):
    from platelab.geometry import CrackSurface

    return CrackSurface(np.array([simplex], dtype=float))


@pytest.mark.parametrize("simplex", [[[0.1, 0.3], [0.8, 0.6]],
                                     [[0.2, 0.2, 0.2], [0.8, 0.3, 0.5], [0.4, 0.8, 0.6]]],
                         ids=["segment", "triangle"])
def test_approximate_experiment_counts_misses_as_the_stacked_meshgrid_does(
        monkeypatch, simplex):
    # the approximant at every point of the stacked meshgrid of the full
    # midpoint axes, against the exact field there (the crack planes miss
    # the samples); the blocks the experiment evaluates tile its axes
    from platelab import interpolation

    seen = []
    build = interpolation.build_approximant

    def spy(v, grid, crack, V):
        vk = build(v, grid, crack, V)
        blocks = vk.blocks

        def recorded(axes):
            seen.append((v, blocks, axes, list(blocks(axes))))
            return iter(seen[-1][3])

        vk.blocks = recorded
        return vk

    monkeypatch.setattr(interpolation, "build_approximant", spy)
    # blocks small enough that each grid takes several, of one row in 3D
    monkeypatch.setattr(interpolation, "_BLOCK_POINTS", 1000)
    crack = _simplex_crack(simplex)
    n = crack.n
    hs = [1.0 / 16, 1.0 / 32] if n == 2 else [1.0 / 16]
    rows = lab.approximate_experiment(crack, hs, (0.0,) * n, (1.0,) * n)
    assert len(seen) == len(rows)
    for h, row, (v, blocks, axes, evaluated) in zip(hs, rows, seen):
        # the blocks tile axes[0] in order, each index once
        assert len(evaluated) > 1
        assert np.array_equal(np.concatenate([np.arange(len(axes[0]))[r] for r, _ in evaluated]),
                              np.arange(len(axes[0])))
        full = _midpoint_axes(n, h, (0.0,) * n, (1.0,) * n)
        # each evaluated axis is drawn from the full one
        assert all(np.isin(a, f).all() for a, f in zip(axes, full))
        vals = np.concatenate([b for _, b in blocks(full)])
        X = np.stack([g.ravel() for g in np.meshgrid(*full, indexing="ij")], axis=-1)
        misses = np.any(np.abs(vals.reshape(X.shape) - v(X)) > lab._EXCEED_TOL, axis=1)
        assert 0 < np.count_nonzero(misses) < X.shape[0]
        assert round(row["exceed_fraction"] * X.shape[0]) == np.count_nonzero(misses)


@pytest.mark.parametrize("crack, hs, lo, hi", [
    (axis_plane_crack(2, 0, 0.5, ((0.0, 1.0),)), [1.0 / 32, 1.0 / 64], -0.5, 1.5),
    (axis_plane_crack(2, 1, 0.4, ((0.2, 0.9),)), [1.0 / 32], 0.0, 1.0),
    # cube corners lie on the plane x = 0.5
    (axis_plane_crack(2, 0, 0.5, ((0.25, 0.75),)), [1.0 / 16], 0.0, 1.0),
    (_simplex_crack([[0.1, 0.3], [0.8, 0.6]]), [1.0 / 16, 1.0 / 32], 0.0, 1.0),
    (_simplex_crack([[0.2, 0.2, 0.2], [0.8, 0.3, 0.5], [0.4, 0.8, 0.6]]), [1.0 / 16], 0.0, 1.0),
    (axis_plane_crack(3, 0, 0.5, ((0.0, 1.0), (0.0, 1.0))), [1.0 / 16], 0.0, 1.0),
    # the field jumps across x = 0.5 only; the second segment's bad cubes
    # zero the approximant off that plane
    (axis_plane_crack(2, 0, 0.5, ((0.1, 0.9),)).union(
        axis_plane_crack(2, 1, 0.3, ((0.1, 0.4),))), [1.0 / 32], 0.0, 1.0),
    # at coordinates near 1e13 the interpolant's rounding exceeds _EXCEED_TOL,
    # so no midpoint may be skipped
    (axis_plane_crack(2, 0, 1e13 + 5e4, ((1e13, 1e13 + 1e5),)), [3e3], 1e13, 1e13 + 1e5),
], ids=["vertical", "horizontal", "lattice-plane", "segment", "triangle", "flat-3d",
        "two-segments", "far-box"])
def test_approximate_experiment_rows_equal_the_full_grid_scan(crack, hs, lo, hi):
    n = crack.n
    rows = lab.approximate_experiment(crack, hs, (lo,) * n, (hi,) * n)
    assert _bits(rows) == _bits(_full_scan_rows(crack, hs, (lo,) * n, (hi,) * n))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 3]), axis=st.integers(0, 2),
       value=st.floats(-0.4, 1.4), ends=st.tuples(st.floats(-0.4, 1.4), st.floats(-0.4, 1.4)),
       lo=st.floats(-0.6, 0.2), width=st.floats(1.0, 1.6),
       k=st.integers(4, 5))
def test_approximate_experiment_rows_equal_the_full_grid_scan_on_random_flat_cracks(
        n, axis, value, ends, lo, width, k):
    # axis-aligned cracks, so the restriction skips midpoints; the h = 2^-k
    # lattice puts corners on the plane whenever value is a multiple of h,
    # and h <= 1/16 leaves the 2 n h margins a region inside the box
    a, b = sorted(ends)
    if b - a < 0.05:
        b = a + 0.05
    h = 2.0 ** -(k if n == 2 else 4)
    crack = axis_plane_crack(n, axis % n, value, ((a, b),) * (n - 1))
    box = ((lo,) * n, (lo + width,) * n)
    rows = lab.approximate_experiment(crack, [h], *box)
    assert _bits(rows) == _bits(_full_scan_rows(crack, [h], *box))


def test_approximate_experiment_evaluates_only_midpoints_near_the_vertical_crack(monkeypatch):
    # 1024^2 midpoints at h = 1/128; the plane x = 0.5 and the bad cubes
    # project onto a few columns of axis 0
    from platelab.interpolation import ApproximantField

    counts = []
    blocks = ApproximantField.blocks

    def spy(self, axes):
        counts.append(int(np.prod([len(a) for a in axes])))
        return blocks(self, axes)

    monkeypatch.setattr(ApproximantField, "blocks", spy)
    crack = axis_plane_crack(2, 0, 0.5, ((0.0, 1.0),))
    lab.approximate_experiment(crack, [1.0 / 128], (-0.5, -0.5), (1.5, 1.5))
    assert len(counts) == 1 and 0 < counts[0] <= 0.02 * 1024 ** 2


def test_approximate_experiment_rejects_an_empty_crack(monkeypatch):
    from platelab import interpolation
    from platelab.geometry import CrackSurface

    def unreachable(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(interpolation, "build_approximant", unreachable)
    monkeypatch.setattr(lab, "ShiftedGrid", unreachable)
    with pytest.raises(ValueError, match="no simplices"):
        lab.approximate_experiment(CrackSurface(np.zeros((0, 2, 2))), [1.0 / 16],
                                   (0.0, 0.0), (1.0, 1.0))


@pytest.mark.parametrize("crack, h, lo, hi", [
    (axis_plane_crack(2, 0, 0.5, ((0.0, 1.0),)), 1.0 / 128, -0.5, 1.5),
    (axis_plane_crack(3, 0, 0.5, ((0.0, 1.0), (0.0, 1.0))), 1.0 / 32, 0.0, 1.0),
    # the plane x = y crosses cubes in every row and column: every midpoint
    # is evaluated, so _BLOCK_POINTS alone bounds the working set
    (_simplex_crack([[0.0, 0.0], [1.0, 1.0]]), 1.0 / 128, -0.5, 1.5),
], ids=["vertical-2d", "flat-3d", "oblique-2d"])
def test_approximate_experiment_memory_stays_bounded(crack, h, lo, hi):
    # the midpoint grid holds 1024^2 (2D) or 128^3 (3D) points; evaluated in
    # blocks, the traced peak stays far below one full-grid array of
    # components (16 MB in 2D, 50 MB in 3D)
    n = crack.n
    tracemalloc.start()
    try:
        lab.approximate_experiment(crack, [h], (lo,) * n, (hi,) * n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"


def test_approximate_field_puts_points_on_an_oblique_crack_plane_on_side_zero(monkeypatch):
    # the sampled field decides the side by the same elementwise sum as the
    # reference grid, so lattice points on the plane x = y get no jump on
    # any machine (a BLAS product rounds them to either side)
    from platelab import interpolation
    from platelab.geometry import CrackSurface

    fields = []
    build = interpolation.build_approximant
    monkeypatch.setattr(interpolation, "build_approximant",
                        lambda v, *args: fields.append(v) or build(v, *args))
    crack = CrackSurface(np.array([[[0.0, 0.0], [1.0, 1.0]]]))
    lab.approximate_experiment(crack, [1.0 / 64], (-0.5, -0.5), (1.5, 1.5))
    t = np.arange(-32, 97) / 64.0
    X = np.column_stack([t, t])
    assert np.array_equal(fields[0](X), np.column_stack([t, np.zeros_like(t)]))
    # off the plane the jump is 1 on the side the normal points to
    off = X + crack.normals[0] / 128.0
    assert np.array_equal(fields[0](off)[:, 0], off[:, 0] + 1.0)
