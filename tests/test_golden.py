"""Golden output bytes: every file each scenario writes, by SHA-256.

Each scenario runs through the CLI at a fixed seed and its output files
(the CSVs and `config.txt`) are hashed and compared with the digests in
`golden_digests.json`.  A refactor must leave them all unchanged; a
change that alters output bytes on purpose re-records them with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md which files changed and why.  The digests depend
on the numpy and scipy versions (recorded with numpy 2.4.6, scipy 1.17.1).
"""

import hashlib
import json
from pathlib import Path

import pytest

from qkdsync.cli import EXIT_OK, main

DIGESTS = Path(__file__).with_name("golden_digests.json")
SEED = 42

# scenario -> config-file lines; arrival, decimation and doppler run at
# their defaults, blocking is shortened to 12 s with the block at 4-8 s
SCENARIOS = {
    "arrival": [],
    "decimation": [],
    "doppler": [],
    "blocking": ["duration_s = 12", "block_start_s = 4", "block_end_s = 8"],
}


def run_digests(scenario: str, work: Path) -> dict:
    cfg = work / "run.cfg"
    cfg.write_text("".join(f"{line}\n" for line in SCENARIOS[scenario]))
    out = work / "out"
    code = main([scenario, "--config", str(cfg), "--seed", str(SEED), "--out", str(out)])
    assert code == EXIT_OK
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_output_bytes_match_recorded(scenario, tmp_path):
    recorded = json.loads(DIGESTS.read_text())[scenario]
    assert run_digests(scenario, tmp_path) == recorded


if __name__ == "__main__":
    import tempfile

    digests = {}
    for name in SCENARIOS:
        with tempfile.TemporaryDirectory() as tmp:
            digests[name] = run_digests(name, Path(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
