"""Recompute perfbench/golden.json: the SHA-256 digest of one batch of each
workload for every seed slot.

    python3 perfbench/make_golden.py

The digests pin migsim's outputs byte for byte, so rerun this only on a
commit whose outputs are known to be right, and say so in its message.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402


def main() -> int:
    workloads.OUT_DIR.mkdir(exist_ok=True)
    golden = {}
    for name in WORKLOADS:
        golden[name] = {}
        for slot in range(workloads.SEED_SLOTS):
            w = workloads.make(name, slot)
            golden[name][str(slot)] = w.digest(w.batch(workloads.CellLog()))
        print(f"{name}: {workloads.SEED_SLOTS} slots")
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
