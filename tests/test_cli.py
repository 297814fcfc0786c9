import yaml
from click.testing import CliRunner

from bdcs.cli import main

TINY = {
    "array": {"num_antennas": 24, "carrier_freq_hz": 30e9},
    "subcarriers": {"count": 2, "spacing_hz": 240e3},
    "channel": {"num_users": 1, "paths_per_user": 3},
    "dictionary": {"block_length": 2, "r_min_m": 0.1},
    "recovery": {"max_blocks": 3},
    "methods": ["ls", "bsomp_angular"],
    "distances": [5.0, 20.0],
    "trials": 2,
    "seed": 5,
    "partition": {"eta": 0.95, "trials": 8},
}


def write_config(tmp_path, extra=None):
    raw = {**TINY, **(extra or {})}
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def test_nmse_distance_writes_csv(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "curve.csv"
    result = CliRunner().invoke(
        main, ["nmse-distance", "--config", str(cfg), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert lines[0] == "x,method,mean_db,stderr_db,trials"
    assert len(lines) == 1 + 2 * 2  # two distances, two methods


def test_nmse_distance_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    runner = CliRunner()
    r1 = runner.invoke(main, ["nmse-distance", "--config", str(cfg), "--out", str(out1)])
    r2 = runner.invoke(main, ["nmse-distance", "--config", str(cfg), "--out", str(out2)])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    runner = CliRunner()
    runner.invoke(main, ["nmse-distance", "--config", str(cfg), "--out", str(out1)])
    runner.invoke(main, ["nmse-distance", "--config", str(cfg), "--out", str(out2), "--seed", "6"])
    assert out1.read_bytes() != out2.read_bytes()


def test_nmse_snr_command(tmp_path):
    cfg = write_config(tmp_path, {"snr_db": [0.0, 10.0], "distances": [8.0]})
    out = tmp_path / "snr.csv"
    result = CliRunner().invoke(main, ["nmse-snr", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert len(out.read_text().splitlines()) == 1 + 2 * 2


def test_se_snr_command(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "snr_db": [0.0, 10.0],
            "distances": [6.0],
            "precoding": {"num_rx_antennas": 3, "num_streams": 2, "num_rf_chains": 4},
        },
    )
    out = tmp_path / "se.csv"
    result = CliRunner().invoke(main, ["se-snr", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 3  # two SNRs, three precoder tags


def test_partition_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "profile.csv"
    result = CliRunner().invoke(main, ["partition", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "partition boundary" in result.output
    assert "sparsity upper limit" in result.output
    lines = out.read_text().splitlines()
    assert lines[0] == "distance_m,tap_count,mean_tap_count,eta"
    assert len(lines) == 1 + 2


def test_dict_info_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "atoms.csv"
    result = CliRunner().invoke(main, ["dict-info", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "angular dictionary" in result.output
    assert "polar dictionary" in result.output
    header = out.read_text().splitlines()[0]
    assert header == "column_index,domain,angle,distance"


def test_runs_without_config_flag():
    # defaults are the large reference preset; just check argument plumbing
    result = CliRunner().invoke(main, ["nmse-distance", "--help"])
    assert result.exit_code == 0
    assert "--config" in result.output and "--seed" in result.output
    assert "--out" in result.output and "--trials" in result.output


def test_trials_flag_overrides_partition_trials(tmp_path, monkeypatch):
    import bdcs.cli

    passed = []
    real = bdcs.cli.sparsity_profile

    def spy(*args, **kwargs):
        passed.append(kwargs["trials"])
        return real(*args, **kwargs)

    monkeypatch.setattr(bdcs.cli, "sparsity_profile", spy)
    cfg = write_config(tmp_path)
    runner = CliRunner()
    r1 = runner.invoke(main, ["partition", "--config", str(cfg)])
    r2 = runner.invoke(main, ["partition", "--config", str(cfg), "--trials", "3"])
    assert r1.exit_code == 0 and r2.exit_code == 0, r1.output + r2.output
    assert passed == [8, 3]  # partition.trials from the file, then --trials


def test_unknown_config_key_fails(tmp_path):
    cfg = write_config(tmp_path, {"trails": 3})
    result = CliRunner().invoke(main, ["nmse-distance", "--config", str(cfg)])
    assert result.exit_code != 0
    assert "trails" in str(result.exception)
