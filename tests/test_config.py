"""Config file parsing, scenario defaults, validation, and echo roundtrip."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qkdsync.config import (
    MAX_DOPPLER_BETA,
    SCENARIO_DEFAULTS,
    SCENARIOS,
    SCHEMA,
    ConfigError,
    defaults,
    echo,
    parse_file,
    resolve,
)
from qkdsync.simulate import (
    build_clocks,
    make_sync_train,
    run_arrival_experiment,
    run_blocking_experiment,
    run_doppler_check,
)
from qkdsync.timebase import MAX_FRACTIONAL_OFFSET


def test_schema_covers_scenario_overlays():
    for scenario, overlay in SCENARIO_DEFAULTS.items():
        for key in overlay:
            assert key in SCHEMA, f"{scenario} overlay key {key!r} not in schema"


def test_shared_defaults():
    cfg = defaults("arrival", seed=7)
    assert cfg["seed"] == 7
    assert cfg["symbol_rate_hz"] == 1.25e9
    assert cfg["qubit_rate_hz"] == 50e6
    assert cfg["sync_divisor"] == 125_000
    assert cfg["chain_jitter_ps"] == 425.0
    assert cfg["tdc_resolution_ps"] == 81.0
    assert cfg["cdr_residual_jitter_ps"] == 90.0
    assert cfg["state_prob_h"] + cfg["state_prob_v"] + cfg["state_prob_d"] == 1.0


def test_scenario_overlays():
    assert defaults("arrival", seed=1)["duration_s"] == 10.0
    dec = defaults("decimation", seed=1)
    assert dec["duration_s"] == 2.0
    assert dec["rx_freq_walk_per_sqrt_s"] > 0
    assert dec["tx_drift_per_s"] == -dec["rx_drift_per_s"] != 0.0
    assert defaults("blocking", seed=1)["duration_s"] == 60.0
    assert defaults("blocking", seed=1)["block_end_s"] == 40.0
    assert defaults("doppler", seed=1)["duration_s"] == 0.5


def test_parse_file_comments_and_blanks(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# header comment\n"
        "\n"
        "seed = 99\n"
        "duration_s = 0.25   # trailing comment\n"
        "  n_values = 1, 5, 10\n"
    )
    raw = parse_file(path)
    assert raw == {"seed": "99", "duration_s": "0.25", "n_values": "1, 5, 10"}
    cfg = resolve("decimation", raw)
    assert cfg["seed"] == 99
    assert cfg["duration_s"] == 0.25
    assert cfg["n_values"] == (1, 5, 10)


def test_parse_file_rejects_duplicates_and_garbage(tmp_path):
    dup = tmp_path / "dup.cfg"
    dup.write_text("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_file(dup)
    bad = tmp_path / "bad.cfg"
    bad.write_text("just some words\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_file(bad)


def test_resolve_rejects_unknown_keys_and_bad_types():
    with pytest.raises(ConfigError, match="unknown config key"):
        resolve("arrival", {"durations_s": "1.0"}, seed=1)
    with pytest.raises(ConfigError, match="cannot parse"):
        resolve("arrival", {"duration_s": "ten"}, seed=1)
    with pytest.raises(ConfigError, match="unknown scenario"):
        resolve("warmup", None, seed=1)


def test_seed_is_mandatory_and_cli_wins():
    with pytest.raises(ConfigError, match="seed"):
        resolve("arrival", {"duration_s": "1.0"})
    assert resolve("arrival", {"seed": "5"})["seed"] == 5
    assert resolve("arrival", {"seed": "5"}, seed=6)["seed"] == 6
    assert resolve("arrival", None, seed=7)["seed"] == 7


@pytest.mark.parametrize("key,value", [
    ("duration_s", "-1.0"),
    ("duration_s", "0"),
    ("seed", "-3"),
    ("seed", str(2**64)),
    ("transmittance", "0"),
    ("transmittance", "2"),           # a probability
    ("detector_efficiency", "1.5"),   # the same
    ("detector_efficiency", "0"),
    ("background_rate_hz", "-1"),
    ("dark_rate_hz", "-1"),
    ("tx_fractional_offset", "0.01"),  # |offset| < 1e-3
    ("rx_fractional_offset", "-1e-3"),  # the same bound
    ("chain_jitter_ps", "-10"),
    ("histogram_bins", "2"),
    ("state_prob_h", "0.9"),          # probabilities stop summing to 1
    ("n_values", "10, 5, 1"),         # must be ascending
    ("n_values", "0, 5"),             # must be >= 1
    ("beta_values", "0, 2e-4"),       # |beta| < 1e-4
    ("doppler_beta", "2e-4"),         # the same bound
    ("doppler_beta", "1e-4"),         # the bound is exclusive
    ("duration_s", "0.0001"),         # one sync pulse at the default 10 kHz
    ("sync_divisor", "7"),            # non-integer slots per sync pulse
    ("match_window_s", "30e-9"),      # wider than the 20 ns slot
    ("qubit_rate_hz", "5e9"),         # default 20 ns window now exceeds the slot
])
def test_validation_rejects(key, value):
    cli_seed = None if key == "seed" else 1
    with pytest.raises(ConfigError):
        resolve("arrival", {key: value}, seed=cli_seed)


@pytest.mark.parametrize("keys", [
    {"duration_s": "0.01"},            # 100 pulses, default factors up to 500
    {"n_values": "1, 2, 40000"},       # 20,000 pulses in the default 2 s
    {"n_values": ""},                  # nothing to sweep
])
def test_decimation_needs_more_sync_pulses_than_its_largest_factor(keys):
    with pytest.raises(ConfigError, match="n_values.*duration_s"):
        resolve("decimation", keys, seed=1)


@pytest.mark.parametrize("scenario, keys", [
    ("arrival", {"tx_fractional_offset": "9e-4", "rx_fractional_offset": "-9e-4"}),
    ("arrival", {"tx_fractional_offset": "5e-5", "rx_fractional_offset": "-5e-5",
                 "doppler_beta": "9e-5"}),
    ("arrival", {"doppler_beta": "9.9e-5", "tx_fractional_offset": "1e-6"}),
    ("arrival", {"tx_drift_per_s": "2.2e-5"}),
    ("doppler", {"tx_fractional_offset": "3e-5", "rx_fractional_offset": "-3e-5",
                 "beta_values": "0, 5e-5"}),
    ("arrival", {"tx_fractional_offset": "-9e-4", "rx_fractional_offset": "9e-4"}),
    ("blocking", {"duration_s": "12", "block_start_s": "4", "block_end_s": "8",
                  "tx_fractional_offset": "9e-4", "rx_fractional_offset": "-9e-4"}),
])
def test_mean_sync_spacing_off_nominal_meets_the_acceptance_gate(scenario, keys):
    # each key is inside its own bound; together they move the sync train's
    # mean spacing up to 1.8e-3 off nominal.  Rescaling reads each interval
    # from its own two pulses, so the scenario's acceptance gate still holds
    cfg = resolve(scenario, keys, seed=1)
    if scenario == "arrival":  # criterion 1
        result = run_arrival_experiment(cfg)
        assert result.cdr.fit_ok and result.cable.fit_ok
        assert 0.8e-9 <= result.cdr.fwhm_s <= 1.2e-9 and 0.8e-9 <= result.cable.fwhm_s <= 1.2e-9
        assert abs(result.fwhm_ratio - 1.0) <= 0.10
        assert result.n_detections >= 100_000
    elif scenario == "doppler":  # criterion 4
        result = run_doppler_check(cfg)
        nonzero = result.betas != 0.0
        assert np.all(np.abs(result.fwhm_s[nonzero] - result.fwhm_beta0_s) < 81e-12)
        assert np.all(result.control_fwhm_s[nonzero] / result.fwhm_beta0_s > 5.0)
    else:  # criterion 3, on the bins well inside and well outside the 4-8 s block
        s = run_blocking_experiment(cfg).series
        mid = (s.t_bin_s >= 5.0) & (s.t_bin_s < 7.0)
        outside = ((s.t_bin_s >= 1.0) & (s.t_bin_s < 3.0)) | (
            (s.t_bin_s >= 9.0) & (s.t_bin_s < 11.0))
        assert abs(np.nanmean(s.qber_z[mid]) - 0.50) <= 0.03
        assert abs(np.nanmean(s.qber_x[mid]) - 0.25) <= 0.03
        assert np.nanmean(s.qber_z[outside]) < 0.02 and np.nanmean(s.qber_x[outside]) < 0.02


@pytest.mark.parametrize("keys", [
    {"tx_fractional_offset": "4.9e-5", "rx_fractional_offset": "-4.9e-5"},
    {"doppler_beta": "-9.5e-5", "rx_fractional_offset": "-4e-6"},
    {"tx_drift_per_s": "1.9e-5", "duration_s": "10"},
    {"tx_fractional_offset": "-9e-4", "rx_fractional_offset": "9e-4", "doppler_beta": "9e-5"},
])
def test_accepted_spacing_gives_a_train_at_the_predicted_spacing(keys):
    cfg = resolve("arrival", {"duration_s": "0.3", **keys}, seed=1)
    (sync,) = make_sync_train(*build_clocks(cfg), cfg)
    t = sync.times_s
    spacing = (t[-1] - t[0]) / (len(sync) - 1) / sync.step_spacing_s - 1
    tx, rx, beta = (cfg[k] for k in ("tx_fractional_offset", "rx_fractional_offset",
                                     "doppler_beta"))
    drift = (cfg["tx_drift_per_s"] - cfg["rx_drift_per_s"]) * cfg["duration_s"] / 2
    assert abs(spacing) > 9e-5  # far enough off nominal to test the prediction
    assert abs(spacing - ((1 + tx) * (1 + beta) / (1 + rx) - 1 + drift)) < 1e-6


@pytest.mark.parametrize("duration_s", [
    0.002,     # 199 pulse steps: the jump is 1.8e-4 of the span
    0.003375,  # 336 steps: 1.04e-4
    0.003735,  # 372 steps: 9.4e-5
])
def test_a_block_over_the_first_pulse_adds_its_jump_to_the_spacing(duration_s):
    # a receiver blocked from its first pulse free-runs from its own time
    # zero, so once the block clears its pulses jump by the path delay
    raw = {"sync_divisor": "12500", "block_start_s": "0", "block_end_s": "0.001",
           "duration_s": repr(duration_s)}
    cfg = resolve("blocking", raw, seed=1)
    (sync,) = make_sync_train(*build_clocks(cfg), cfg, blocks=((0.0, 0.001),))
    t = sync.times_s
    spacing = (t[-1] - t[0]) / (len(sync) - 1) / sync.step_spacing_s - 1
    assert not sync.locked[0] and sync.locked[-1]
    offsets = (1 + cfg["tx_fractional_offset"]) / (1 + cfg["rx_fractional_offset"]) - 1
    jump = cfg["propagation_delay_s"] / ((len(sync) - 1) * sync.step_spacing_s)
    assert abs(spacing - (offsets + jump)) < 1e-7


_offset = st.floats(-0.999 * MAX_FRACTIONAL_OFFSET, 0.999 * MAX_FRACTIONAL_OFFSET)


@settings(max_examples=100, deadline=None)
@given(scenario=st.sampled_from(SCENARIOS), duration_s=st.floats(1e-6, 4e-3),
       slots_per_pulse=st.integers(500, 10_000),
       n_values=st.lists(st.integers(1, 400), max_size=4, unique=True).map(sorted),
       block_from_start=st.booleans(), tx_offset=_offset, rx_offset=_offset,
       doppler_beta=st.floats(-0.999 * MAX_DOPPLER_BETA, 0.999 * MAX_DOPPLER_BETA))
def test_every_accepted_config_has_a_sync_train(scenario, duration_s, slots_per_pulse, n_values,
                                                block_from_start, tx_offset, rx_offset,
                                                doppler_beta):
    # at most 200 sync pulses (25 symbol boundaries to a qubit slot).  The block
    # covers the middle third of the run, as the default one does, or its first
    # third, where the receiver free-runs from its first pulse.  Over 4 ms the
    # clocks, however far apart, drift far less than a pulse spacing
    raw = {"duration_s": repr(duration_s), "sync_divisor": str(25 * slots_per_pulse),
           "n_values": ", ".join(map(str, n_values)),
           "block_start_s": repr(0.0 if block_from_start else duration_s / 3),
           "block_end_s": repr((1 if block_from_start else 2) * duration_s / 3),
           "tx_fractional_offset": repr(tx_offset), "rx_fractional_offset": repr(rx_offset),
           "doppler_beta": repr(doppler_beta)}
    try:
        cfg = resolve(scenario, raw, seed=3)
    except ConfigError:
        return
    blocks = ((cfg["block_start_s"], cfg["block_end_s"]),) if scenario == "blocking" else ()
    (sync,) = make_sync_train(*build_clocks(cfg), cfg, blocks=blocks)
    assert len(sync) >= 2
    if scenario == "decimation":
        assert len(sync.decimate(max(n_values))) >= 2


def test_defaults_overrides_are_checked():
    cfg = defaults("arrival", seed=1, duration_s=0.5)
    assert cfg["duration_s"] == 0.5
    with pytest.raises(ConfigError, match="unknown config key"):
        defaults("arrival", seed=1, durations=0.5)
    with pytest.raises(ConfigError):
        defaults("arrival", seed=1, duration_s=-0.5)


def test_echo_roundtrips_exactly(tmp_path):
    cfg = defaults("blocking", seed=123456789, duration_s=12.5, block_start_s=2.5,
                   block_end_s=7.75, beta_values=(0.0, -3.25e-5), n_values=(1, 3, 9))
    path = tmp_path / "echo.cfg"
    echo(cfg, path)
    again = resolve("blocking", parse_file(path))
    assert again == cfg
    # echoing the reloaded config reproduces the file byte for byte
    path2 = tmp_path / "echo2.cfg"
    echo(again, path2)
    assert path.read_bytes() == path2.read_bytes()
