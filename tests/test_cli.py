"""Command-line interface: exit codes, output files, reproducibility."""

import filecmp
import json
import subprocess
import sys
from pathlib import Path

import pytest

import qkdsync
from qkdsync.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_RUNTIME, main


def write_cfg(tmp_path, name="run.cfg", **keys):
    lines = [f"{k} = {v}" for k, v in keys.items()]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_arrival_writes_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, seed=5, duration_s=0.3)
    out = tmp_path / "out"
    assert main(["arrival", "--config", cfg, "--out", str(out)]) == EXIT_OK
    for name in ("config.txt", "histogram_cdr.csv", "histogram_cable.csv",
                 "summary.csv"):
        assert (out / name).is_file(), name
    stdout = capsys.readouterr().out
    assert "[arrival] seed 5" in stdout
    assert "ratio" in stdout
    header = (out / "histogram_cdr.csv").read_text().splitlines()[0]
    assert header == "bin_start_ps,count"


def test_decimation_writes_outputs(tmp_path):
    cfg = write_cfg(tmp_path, seed=9, duration_s=0.5, n_values="1, 2, 5")
    out = tmp_path / "dec"
    assert main(["decimation", "--config", cfg, "--out", str(out)]) == EXIT_OK
    sweep = (out / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "n,delta_s_us,fwhm_ps,residual,fit_ok"
    assert len(sweep) == 4
    assert (out / "growth.csv").is_file()


def test_doppler_writes_outputs(tmp_path):
    cfg = write_cfg(tmp_path, seed=3, duration_s=0.1, beta_values="0.0, 1e-5")
    out = tmp_path / "dop"
    assert main(["doppler", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = (out / "doppler.csv").read_text().splitlines()
    assert rows[0] == "beta,fwhm_ps,delta_vs_beta0_ps"
    assert len(rows) == 3
    assert (out / "doppler_control.csv").is_file()


def test_blocking_writes_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, seed=11, duration_s=6.0,
                    block_start_s=2.0, block_end_s=4.0)
    out = tmp_path / "blk"
    assert main(["blocking", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = (out / "qber.csv").read_text().splitlines()
    assert rows[0] == "t_bin_s,qber_z,qber_x,n_z,n_x"
    assert len(rows) == 7
    assert "in-block" in capsys.readouterr().out


def test_default_out_dir_and_seed_override(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, seed=1, duration_s=0.3)
    monkeypatch.chdir(tmp_path)
    assert main(["arrival", "--config", cfg, "--seed", "2"]) == EXIT_OK
    assert (tmp_path / "arrival-seed2" / "summary.csv").is_file()
    echoed = (tmp_path / "arrival-seed2" / "config.txt").read_text()
    assert "seed = 2" in echoed


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, seed=5, duration_s=0.3)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["arrival", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["arrival", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    for name in ("config.txt", "histogram_cdr.csv", "histogram_cable.csv",
                 "summary.csv"):
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name


def stderr_payload(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    return json.loads(err)


def test_missing_config_file_is_io_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert main(["arrival", "--config", missing, "--seed", "1"]) == EXIT_IO
    assert stderr_payload(capsys)["error"] == "io"


def test_unknown_key_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, seed=1, durations="0.3")
    assert main(["arrival", "--config", cfg]) == EXIT_CONFIG
    payload = stderr_payload(capsys)
    assert payload["error"] == "config"
    assert "durations" in payload["message"]


def test_missing_seed_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, duration_s="0.3")
    assert main(["arrival", "--config", cfg]) == EXIT_CONFIG
    assert "seed" in stderr_payload(capsys)["message"]


def test_unwritable_out_dir_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    cfg = write_cfg(tmp_path, seed=1, duration_s=0.3)
    code = main(["arrival", "--config", cfg, "--out", str(blocker)])
    assert code == EXIT_IO
    assert stderr_payload(capsys)["error"] == "io"


def test_no_peak_is_runtime_error(tmp_path, capsys):
    # noise-only detections: nothing folds into a peak, the fit must refuse
    cfg = write_cfg(tmp_path, seed=1, duration_s=0.3, transmittance=1e-12)
    out = tmp_path / "flat"
    assert main(["arrival", "--config", cfg, "--out", str(out)]) == EXIT_RUNTIME
    assert stderr_payload(capsys)["error"] == "runtime"


def test_console_script_help():
    # run from the directory holding the package under test, so the child
    # imports it whether or not it is installed
    proc = subprocess.run(
        [sys.executable, "-m", "qkdsync.cli", "arrival", "--help"],
        capture_output=True, text=True, cwd=Path(qkdsync.__file__).parents[1])
    assert proc.returncode == 0
    assert "--config" in proc.stdout


def test_scenario_is_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
