"""Flat key-value scenario configuration.

Config files are plain text, one `key = value` per line, `#` comments
allowed.  Keys are flat; every physical quantity carries its unit in
the key name (`_hz`, `_s`, `_ps`).  Unknown keys are rejected with the
offending name, and `seed` is mandatory — it may come from the file or
from the command line, but has no default.  Each scenario applies its
own documented defaults on top of the shared ones; `resolve` returns
the fully-expanded dict that runners consume and `echo` writes back
beside the outputs for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import rng
from .timebase import MAX_FRACTIONAL_OFFSET

MAX_DOPPLER_BETA = 1e-4


class ConfigError(ValueError):
    """A config file or value is invalid; message names the key."""


_REQUIRED = object()


@dataclass(frozen=True)
class _Key:
    type: type
    default: object
    help: str


def _float_list(text):
    return tuple(float(v) for v in text)


def _int_list(text):
    return tuple(int(v) for v in text)


# value kinds: int, float, list-of-int, list-of-float (comma separated)
SCHEMA: dict[str, _Key] = {
    "seed": _Key(int, _REQUIRED, "master seed; every random stream derives from it"),
    "duration_s": _Key(float, 10.0, "simulated span of schedule time"),
    "symbol_rate_hz": _Key(float, 1.25e9, "classical OOK symbol rate"),
    "qubit_rate_hz": _Key(float, 50e6, "qubit slot rate (slot = 1/rate)"),
    "sync_divisor": _Key(int, 125000, "symbol boundaries per sync pulse (10 kHz at defaults)"),
    "tx_fractional_offset": _Key(float, 5e-7, "transmitter clock fractional frequency offset"),
    "tx_drift_per_s": _Key(float, 0.0, "transmitter fractional-frequency drift rate"),
    "tx_jitter_ps": _Key(float, 30.0, "transmitter clock white jitter (RMS)"),
    "rx_fractional_offset": _Key(float, -5e-7, "receiver clock fractional frequency offset"),
    "rx_drift_per_s": _Key(float, 0.0, "receiver fractional-frequency drift rate"),
    "rx_jitter_ps": _Key(float, 30.0, "receiver clock white jitter (RMS)"),
    "rx_freq_walk_per_sqrt_s": _Key(
        float, 0.0, "receiver random-walk frequency noise intensity"),
    "cdr_loop_bandwidth_hz": _Key(float, 625e3, "clock-recovery loop bandwidth"),
    "cdr_residual_jitter_ps": _Key(
        float, 90.0, "residual jitter of the recovered clock after the loop (RMS)"),
    "relock_delay_s": _Key(float, 1e-5, "reacquisition time after a blocked span ends"),
    "propagation_delay_s": _Key(float, 3.5e-7, "common optical path delay"),
    "doppler_beta": _Key(float, 0.0, "fractional Doppler shift applied to both streams"),
    "transmittance": _Key(float, 4e-4, "end-to-end survival probability per emitted qubit"),
    "detector_efficiency": _Key(float, 1.0, "detector quantum efficiency"),
    "background_rate_hz": _Key(float, 50.0, "background click rate per detector"),
    "dark_rate_hz": _Key(float, 50.0, "dark count rate per detector"),
    "chain_jitter_ps": _Key(float, 425.0, "detection-chain timing jitter (RMS)"),
    "tdc_resolution_ps": _Key(float, 81.0, "time-to-digital converter bin size"),
    "state_prob_h": _Key(float, 0.25, "probability of sending H"),
    "state_prob_v": _Key(float, 0.25, "probability of sending V"),
    "state_prob_d": _Key(float, 0.5, "probability of sending D"),
    "histogram_bins": _Key(int, 247, "bins across one qubit slot (count, not width)"),
    "match_window_s": _Key(float, 20e-9, "acceptance window around the assigned slot center"),
    "anchor_search_slots": _Key(int, 50, "half-range of the whole-slot anchor scan"),
    "qber_bin_s": _Key(float, 1.0, "QBER time-bin width (blocking scenario)"),
    "block_start_s": _Key(float, 20.0, "classical-link block start (blocking scenario)"),
    "block_end_s": _Key(float, 40.0, "classical-link block end (blocking scenario)"),
    "n_values": _Key(
        _int_list, (1, 2, 5, 10, 50, 100, 200, 500),
        "sync decimation factors to sweep (decimation scenario)"),
    "beta_values": _Key(
        _float_list, (0.0, 1e-6, 1e-5, 2.6e-5),
        "Doppler shifts to check (doppler scenario)"),
}

# scenario-specific defaults layered over the shared ones above
SCENARIO_DEFAULTS: dict[str, dict] = {
    "arrival": {"duration_s": 10.0},
    "decimation": {
        "duration_s": 2.0,
        "tx_drift_per_s": 2e-6,
        "rx_drift_per_s": -2e-6,
        "rx_freq_walk_per_sqrt_s": 3.5e-6,
    },
    "blocking": {"duration_s": 60.0},
    "doppler": {"duration_s": 0.5},
}

SCENARIOS = tuple(SCENARIO_DEFAULTS)


def parse_file(path) -> dict:
    """Raw key -> value strings from a `key = value` file with # comments."""
    raw: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
            key, _, value = text.partition("=")
            key = key.strip()
            if key in raw:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            raw[key] = value.strip()
    return raw


def _convert(key: str, text: str):
    kind = SCHEMA[key].type
    try:
        if kind is int:
            value = int(text)
        elif kind is float:
            value = float(text)
        else:  # comma-separated list
            value = kind(v.strip() for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {text!r}") from exc
    return value


def _validate(cfg: dict, scenario: str) -> None:
    def positive(*keys):
        for k in keys:
            if not cfg[k] > 0:
                raise ConfigError(f"config key {k!r} must be > 0, got {cfg[k]}")

    def non_negative(*keys):
        for k in keys:
            if cfg[k] < 0:
                raise ConfigError(f"config key {k!r} must be >= 0, got {cfg[k]}")

    if cfg["seed"] < 0 or cfg["seed"] > 2**64 - 1:
        raise ConfigError(f"config key 'seed' must be a u64, got {cfg['seed']}")
    positive("duration_s", "symbol_rate_hz", "qubit_rate_hz", "sync_divisor",
             "cdr_loop_bandwidth_hz", "tdc_resolution_ps", "qber_bin_s",
             "match_window_s", "detector_efficiency", "transmittance")
    non_negative("tx_jitter_ps", "rx_jitter_ps", "rx_freq_walk_per_sqrt_s",
                 "cdr_residual_jitter_ps", "relock_delay_s", "propagation_delay_s",
                 "background_rate_hz", "dark_rate_hz", "chain_jitter_ps",
                 "block_start_s", "block_end_s")
    for k in ("transmittance", "detector_efficiency"):
        if cfg[k] > 1:
            raise ConfigError(f"config key {k!r} must be <= 1, got {cfg[k]}")
    # the detection stream releases the events below each new batch's first
    # tick, which chain jitter of a batch's span could reorder
    batch_s = rng.BLOCK_EVENTS / (cfg["qubit_rate_hz"] * cfg["transmittance"]
                                  * cfg["detector_efficiency"])
    if not cfg["chain_jitter_ps"] * 1e-12 < batch_s / 10:
        raise ConfigError(
            f"config key 'chain_jitter_ps' must be below a tenth of the {batch_s:g} s that "
            f"{rng.BLOCK_EVENTS} detected qubit slots span, got {cfg['chain_jitter_ps']:g}")
    for k in ("tx_fractional_offset", "rx_fractional_offset"):
        if abs(cfg[k]) >= MAX_FRACTIONAL_OFFSET:
            raise ConfigError(f"config key {k!r} must satisfy |offset| < {MAX_FRACTIONAL_OFFSET:g}")
    bs, be = cfg["block_start_s"], cfg["block_end_s"]
    if scenario == "blocking" and not 0.0 <= bs <= be <= cfg["duration_s"]:
        raise ConfigError(f"block_start_s = {bs:g} and block_end_s = {be:g} must satisfy 0 <= "
                          f"block_start_s <= block_end_s <= duration_s = {cfg['duration_s']:g}")
    if cfg["histogram_bins"] < 5:
        raise ConfigError(f"config key 'histogram_bins' must be >= 5, got {cfg['histogram_bins']}")
    if cfg["anchor_search_slots"] < 0:
        raise ConfigError("config key 'anchor_search_slots' must be >= 0")
    probs = (cfg["state_prob_h"], cfg["state_prob_v"], cfg["state_prob_d"])
    if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
        raise ConfigError(
            f"state_prob_h/v/d must be non-negative and sum to 1, got {probs}")
    if list(cfg["n_values"]) != sorted(cfg["n_values"]) or any(
            n < 1 for n in cfg["n_values"]):
        raise ConfigError("config key 'n_values' must be ascending integers >= 1")
    for key, betas in (("doppler_beta", [cfg["doppler_beta"]]),
                       ("beta_values", cfg["beta_values"])):
        if any(abs(beta) >= MAX_DOPPLER_BETA for beta in betas):
            raise ConfigError(f"config key {key!r} must satisfy |beta| < {MAX_DOPPLER_BETA:g}")
    if cfg["match_window_s"] > 1.0 / cfg["qubit_rate_hz"]:
        raise ConfigError(
            f"config key 'match_window_s' must not exceed the qubit slot "
            f"1/qubit_rate_hz = {1.0 / cfg['qubit_rate_hz']:g} s, got {cfg['match_window_s']}")
    slots_per_pulse = cfg["sync_divisor"] * cfg["qubit_rate_hz"] / cfg["symbol_rate_hz"]
    if abs(slots_per_pulse - round(slots_per_pulse)) > 1e-6:
        raise ConfigError(
            "sync_divisor * qubit_rate_hz / symbol_rate_hz must be an integer "
            f"(got {slots_per_pulse:g} qubit slots per sync pulse)")
    # the sync train holds floor(pulses) pulses, and floor(x) >= k iff x >= k
    # for an integer k; decimating by N keeps ceil(floor(pulses) / N) of them
    pulses = cfg["duration_s"] * cfg["symbol_rate_hz"] / cfg["sync_divisor"]
    fits = f"duration_s * symbol_rate_hz / sync_divisor = {pulses:g} sync pulses"
    if not pulses >= 2:
        raise ConfigError(f"{fits}; a run needs at least 2")
    if scenario == "decimation" and not (cfg["n_values"] and pulses >= max(cfg["n_values"]) + 1):
        raise ConfigError(
            f"config key 'n_values' must be non-empty, and each factor below the {fits}")


def resolve(scenario: str, file_values: dict | None = None,
            seed: int | None = None) -> dict:
    """Fully-expanded config: shared defaults <- scenario defaults <- file <- seed.

    `file_values` holds raw strings from parse_file; `seed` (from the
    command line) overrides any seed in the file.  Raises ConfigError on
    unknown keys, bad values, or a missing seed.
    """
    if scenario not in SCENARIO_DEFAULTS:
        raise ConfigError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    cfg = {k: spec.default for k, spec in SCHEMA.items()}
    cfg.update(SCENARIO_DEFAULTS[scenario])
    for key, text in (file_values or {}).items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = _convert(key, text)
    if seed is not None:
        cfg["seed"] = int(seed)
    if cfg["seed"] is _REQUIRED:
        raise ConfigError("config key 'seed' is mandatory (set it in the file or pass --seed)")
    _validate(cfg, scenario)
    return cfg


def defaults(scenario: str, seed: int, **overrides) -> dict:
    """Resolved default config for a scenario (library-side convenience)."""
    cfg = resolve(scenario, None, seed)
    for key, value in overrides.items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = value
    _validate(cfg, scenario)
    return cfg


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def echo(cfg: dict, path) -> None:
    """Write the fully-resolved config as a reloadable key = value file."""
    with open(path, "w") as fh:
        fh.write("# fully-resolved configuration (defaults expanded)\n")
        for key in SCHEMA:
            fh.write(f"{key} = {_format_value(cfg[key])}\n")
