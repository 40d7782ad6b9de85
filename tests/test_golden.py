"""Golden output bytes: every file each scenario writes, by SHA-256.

Each scenario runs through the CLI at a fixed seed and its output files
(the CSVs and `config.txt`) are hashed and compared with the digests in
`golden_digests.json`.  A refactor must leave them all unchanged; a
change that alters output bytes on purpose re-records them with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md which files changed and why.  The digests depend
on the numpy version only (recorded with numpy 2.4.6).
"""

import hashlib
import json
from pathlib import Path

import pytest

from qkdsync.cli import EXIT_OK, main

DIGESTS = Path(__file__).with_name("golden_digests.json")
SEED = 42

# case -> (scenario, config-file lines); arrival, decimation and doppler
# run at their defaults, blocking is shortened to 12 s with the block at
# 4-8 s, and blocking-at-start to 8 s with the block at 0-3 s, so its
# first bins have no phase and are never matched.  The drift cases run
# the clocks 4e-5 apart, so the pulses drift ~4e-5 x t from their nominal
# times (400 us, four pulse spacings, by 10 s) and a sync window cut at a
# nominal pulse index, not where the pulses are read, loses detections
DRIFT = ["tx_fractional_offset = 2e-5", "rx_fractional_offset = -2e-5"]
SCENARIOS = {
    "arrival": ("arrival", []),
    "decimation": ("decimation", []),
    "doppler": ("doppler", []),
    "blocking": ("blocking", ["duration_s = 12", "block_start_s = 4", "block_end_s = 8"]),
    "blocking-at-start": ("blocking", ["duration_s = 8", "block_start_s = 0",
                                       "block_end_s = 3"]),
    "blocking-drift": ("blocking", ["duration_s = 12", "block_start_s = 4", "block_end_s = 8",
                                    *DRIFT]),
    "arrival-drift": ("arrival", ["duration_s = 10", *DRIFT]),
}


def run_digests(case: str, work: Path) -> dict:
    scenario, lines = SCENARIOS[case]
    cfg = work / "run.cfg"
    cfg.write_text("".join(f"{line}\n" for line in lines))
    out = work / "out"
    code = main([scenario, "--config", str(cfg), "--seed", str(SEED), "--out", str(out)])
    assert code == EXIT_OK
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.mark.parametrize("case", list(SCENARIOS))
def test_output_bytes_match_recorded(case, tmp_path):
    recorded = json.loads(DIGESTS.read_text())[case]
    assert run_digests(case, tmp_path) == recorded


if __name__ == "__main__":
    import tempfile

    digests = {}
    for name in SCENARIOS:
        with tempfile.TemporaryDirectory() as tmp:
            digests[name] = run_digests(name, Path(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
