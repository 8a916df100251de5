import numpy as np
import pytest

from platelab import lab
from platelab.cli import run_cli
from platelab.elasticity import LameParams
from platelab.geometry import axis_plane_crack
from platelab.kirchhoff_love import kl_lift

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


def test_recovery_sweep_rows_and_gap():
    s = lab.membrane_crack_state(0.5, (64,), (0.0,), (1.0,))
    rows = lab.recovery_sweep(s, P2, [1e-1, 1e-2], layers=8)
    assert [r["rho"] for r in rows] == [1e-1, 1e-2]
    assert rows[1]["gap"] <= rows[0]["gap"]
    for r in rows:
        assert r["e_an_norm"] <= r["bound_an"] + 1e-12
        assert r["e_nn_norm"] <= r["bound_nn"] + 1e-12


def test_liminf_probe_margin_nonnegative():
    s = lab.membrane_crack_state(0.5, (64,), (0.0,), (1.0,))

    def family(rho):
        return lab.recovery_sequence(s, P2, rho, np.sqrt(rho), layers=8)

    rows = lab.liminf_probe(family, s, P2, [1e-1, 1e-2])
    assert min(r["margin"] for r in rows) >= -1e-8


def test_liminf_probe_constant_sequence():
    s = lab.membrane_crack_state(0.5, (32,), (0.0,), (1.0,))
    v = kl_lift(s, 8)
    rows = lab.liminf_probe(lambda rho: v, s, P2, [1e-1, 1e-2])
    assert min(r["margin"] for r in rows) >= -1e-8


def test_jump_energy_experiment_mean_row():
    crack = axis_plane_crack(2, 0, 0.5, ((0.0, 1.0),))
    rows = lab.jump_energy_experiment(crack, 1.0 / 16, (0.0, 0.0), (1.0, 1.0),
                                      samples=10, seed=1)
    assert rows[-1]["sample"] == -1
    mean = np.mean([r["jump_energy"] for r in rows[:-1]])
    assert rows[-1]["jump_energy"] == pytest.approx(mean)
    assert rows[0]["oracle"] == pytest.approx(1.0 + 3.0 / np.sqrt(2.0))


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
     ("approximate", "recover", "liminf", "minimize", "sweep")]
    + [(cmd, flag, value) for cmd in ("recover", "liminf", "minimize", "sweep")
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
                                     "recover", "liminf", "minimize", "sweep"])
def test_cli_csv_is_byte_identical_across_runs(command, tmp_path):
    # rows carry no timings, so two runs of one config give the same bytes
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
