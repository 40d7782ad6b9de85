"""Watching the clock-recovery loop acquire lock on a PRBS-31 stream.

Runs the second-order PI tracking loop over the transition edges of an
OOK-modulated PRBS-31 stream whose transmitter timescale is off by
10 ppm, and plots the phase error and the recovered period converging.  The loop
declares lock when the rolling RMS phase error drops below a fraction of
the symbol period; afterwards a linear fit of tracked boundary phase vs
boundary index reads back the transmitter's frequency offset to ~1e-10.

Writes cdr_lock.png into --out.
"""

import argparse
from pathlib import Path

import numpy as np

from qkdsync import (
    ClockModel,
    cdr_track,
    derive_key,
    modulate_ook,
    prbs31_bits,
    recovered_fractional_offset,
)

SYMBOL_RATE = 1.25e9
OFFSET = 1e-5  # transmitter timescale 10 ppm off nominal


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out", default="demo-cdr")
    ap.add_argument("--symbols", type=int, default=200_000)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    tx = ClockModel(SYMBOL_RATE, fractional_offset=OFFSET, drift_rate_per_s=0.0,
                    white_jitter_sigma_s=30e-12, seed=derive_key(args.seed, "tx"))
    rx = ClockModel(SYMBOL_RATE, fractional_offset=0.0, drift_rate_per_s=0.0,
                    white_jitter_sigma_s=30e-12, seed=derive_key(args.seed, "rx"))
    stream = modulate_ook(prbs31_bits(0x3FFF_AB01, args.symbols), tx)
    rc = cdr_track(stream, 625e3, rx, propagation_delay_s=3.5e-7)

    lock_edge = rc.lock_index
    lock_symbol = int(rc.boundary_index[lock_edge])
    recovered = recovered_fractional_offset(rc)
    print(f"{len(stream)} edges from {args.symbols} symbols "
          f"(transition density {len(stream) / args.symbols:.3f})")
    print(f"lock declared at edge {lock_edge} = symbol {lock_symbol} "
          f"({lock_symbol / SYMBOL_RATE * 1e6:.1f} us)")
    print(f"true offset {OFFSET:+.2e}, recovered {recovered:+.6e} "
          f"(error {abs(recovered - OFFSET):.1e})")

    phase_err = rc.edge_time_s - rc.boundary_phase_s
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping the plot")
        return
    fig, (ax1, ax2) = plt.subplots(2, 1, figsize=(7, 6), sharex=True)
    sym = rc.boundary_index
    ax1.plot(sym, phase_err * 1e12, lw=0.5)
    ax1.axvline(lock_symbol, ls="--", color="maroon", label="lock declared")
    ax1.set_ylabel("phase error (ps)")
    ax1.set_ylim(-800, 800)
    ax1.legend()
    ppm = (rc.period_s * SYMBOL_RATE - 1.0) * 1e6
    ax2.plot(sym, ppm, lw=0.3, alpha=0.4, label="per-edge estimate")
    w = min(2001, len(ppm) // 2 * 2 + 1)
    smooth = np.convolve(ppm, np.ones(w) / w, mode="valid")
    ax2.plot(sym[w // 2:w // 2 + smooth.size], smooth, lw=1.2, color="C1",
             label=f"rolling mean ({w} edges)")
    ax2.axhline(OFFSET * 1e6, ls=":", color="gray",
                label="expected from the 10 ppm timescale offset")
    ax2.axvline(lock_symbol, ls="--", color="maroon")
    ax2.set_xlabel("symbol index")
    ax2.set_ylabel("period offset (ppm)")
    ax2.legend()
    fig.suptitle("PI clock-recovery loop acquiring a 10 ppm offset")
    fig.tight_layout()
    fig.savefig(out / "cdr_lock.png", dpi=120)
    print(f"wrote {out / 'cdr_lock.png'}")


if __name__ == "__main__":
    main()
