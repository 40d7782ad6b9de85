"""Command-line entry point: `qkdsync <scenario> [--config] [--out] [--seed]`.

Scenarios: `arrival` (folded-peak comparison against ideal cable sync),
`decimation` (FWHM vs sync decimation), `blocking` (QBER across a
classical-link outage), `doppler` (common-shift invariance check).
Each run writes its plot-data CSVs plus the fully-resolved config into
one output directory (default `<scenario>-seed<seed>/`).

Exit codes: 0 success; 2 invalid config; 3 simulation/analysis failure;
4 I/O failure.  Failures print one JSON line to stderr with fields
`error` (the category) and `message`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import config, simulate
from .config import ConfigError
from .timebase import ClockConfigError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_IO = 4

# scenario -> (runner, help line)
_SCENARIOS = {
    "arrival": (simulate.run_arrival_experiment,
                "folded arrival-time peak, CDR sync vs ideal cable sync"),
    "decimation": (simulate.run_decimation_experiment,
                   "arrival-peak FWHM versus sync pulse decimation"),
    "blocking": (simulate.run_blocking_experiment,
                 "QBER timeline across a classical-channel blocking interval"),
    "doppler": (simulate.run_doppler_check,
                "arrival-peak width under a common Doppler shift, with control"),
}


def _fail(category: str, message: str, code: int) -> int:
    print(json.dumps({"error": category, "message": message}), file=sys.stderr)
    return code


def _nanmean(values) -> float:
    """np.nanmean, but nan without numpy's warning where every value is nan."""
    return float(np.nanmean(values)) if np.any(~np.isnan(values)) else float("nan")


def _summary_lines(scenario: str, result) -> list[str]:
    if scenario == "arrival":
        return [
            f"cdr   FWHM = {result.cdr.fwhm_s * 1e12:8.1f} ps (fit_ok={result.cdr.fit_ok})",
            f"cable FWHM = {result.cable.fwhm_s * 1e12:8.1f} ps (fit_ok={result.cable.fit_ok})",
            f"ratio = {result.fwhm_ratio:.4f}  ({result.n_detections} detections)",
        ]
    if scenario == "decimation":
        t = result.table
        lines = [
            f"N={int(n):5d}  FWHM = {w * 1e12:9.1f} ps  fit_ok={bool(ok)}"
            for n, w, ok in zip(t.n, t.fwhm_s, t.fit_ok)
        ]
        grown = "none" if result.growth_n is None else str(result.growth_n)
        lines.append(f"first N with FWHM > 2x baseline: {grown}")
        return lines
    if scenario == "blocking":
        s = result.series
        inside = (s.t_bin_s >= result.block_start_s) & (s.t_bin_s < result.block_end_s)
        outside = ~inside & ~np.isnan(s.qber_z)
        lines = [f"{result.n_detections} detections, slot anchor = {result.slot_origin}"]
        if np.any(inside & ~np.isnan(s.qber_z)):
            lines.append(
                f"in-block  mean QBER: Z = {_nanmean(s.qber_z[inside]):.3f}, "
                f"X = {_nanmean(s.qber_x[inside]):.3f}"
            )
        if np.any(outside):
            lines.append(
                f"unblocked mean QBER: Z = {_nanmean(s.qber_z[outside]):.3f}, "
                f"X = {_nanmean(s.qber_x[outside]):.3f}"
            )
        return lines
    lines = [
        f"beta = {b:.9g}  FWHM = {w * 1e12:8.1f} ps  "
        f"(control, quantum-only: {c * 1e12:9.1f} ps)"
        for b, w, c in zip(result.betas, result.fwhm_s, result.control_fwhm_s)
    ]
    lines.append(f"baseline FWHM = {result.fwhm_beta0_s * 1e12:.1f} ps")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qkdsync",
        description="QKD synchronization simulator: clock recovery from a "
                    "co-propagating classical link, arrival-time analysis, "
                    "and QBER scenarios.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True, metavar="scenario")
    for name, (_, help_line) in _SCENARIOS.items():
        p = sub.add_parser(name, help=help_line)
        p.add_argument("--config", help="key = value config file (defaults if omitted)")
        p.add_argument("--out", help="output directory (default <scenario>-seed<seed>)")
        p.add_argument("--seed", type=int, help="master seed; overrides the config file")
    args = parser.parse_args(argv)

    if args.config is not None:
        try:
            file_values = config.parse_file(args.config)
        except OSError as exc:
            return _fail("io", f"cannot read config file: {exc}", EXIT_IO)
        except ConfigError as exc:
            return _fail("config", str(exc), EXIT_CONFIG)
    else:
        file_values = None
    try:
        cfg = config.resolve(args.scenario, file_values, args.seed)
    except ConfigError as exc:
        return _fail("config", str(exc), EXIT_CONFIG)

    out_dir = Path(args.out) if args.out else Path(f"{args.scenario}-seed{cfg['seed']}")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        config.echo(cfg, out_dir / "config.txt")
    except OSError as exc:
        return _fail("io", f"cannot write to {out_dir}: {exc}", EXIT_IO)

    try:
        result = _SCENARIOS[args.scenario][0](cfg, out_dir)
    except ClockConfigError as exc:
        return _fail("config", str(exc), EXIT_CONFIG)
    except OSError as exc:
        return _fail("io", str(exc), EXIT_IO)
    except (ValueError, RuntimeError) as exc:
        return _fail("runtime", f"{type(exc).__name__}: {exc}", EXIT_RUNTIME)

    print(f"[{args.scenario}] seed {cfg['seed']} -> {out_dir}")
    for line in _summary_lines(args.scenario, result):
        print(f"  {line}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
