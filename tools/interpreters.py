"""Check that each given Python interpreter writes the shipped scenarios'
CSV reports byte for byte as committed.

    python3 tools/interpreters.py PY [PY ...]

For each interpreter, one child process runs every scenario named in
tests/scenario_digests.json (the digests tests/test_golden.py pins) from
scenarios/, with PYTHONPATH=src, and the sha256 of each CSV report is
compared with the committed one. It prints one line per interpreter: its
version and either "ok" or the scenarios whose report differs. It exits 1
if any interpreter differs or fails to run. It uses the standard library
only, so it runs on interpreters that have no pytest.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "scenario_digests.json"
# the child prints its version, then "name digest" for each scenario given
CHILD = """
import hashlib, platform, sys, tempfile
from pathlib import Path
from migsim.config import load_scenario
from migsim.harness import export_csv, run_experiment
print(platform.python_version())
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "report.csv"
    for path in sys.argv[1:]:
        export_csv(run_experiment(load_scenario(path)), out)
        print(Path(path).name, hashlib.sha256(out.read_bytes()).hexdigest())
"""


def check(python: str, want: dict[str, str]) -> tuple[bool, str]:
    """(whether python writes every report in want byte for byte, the line
    to print for it)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    paths = [str(ROOT / "scenarios" / name) for name in want]
    try:
        proc = subprocess.run([python, "-c", CHILD, *paths], cwd=ROOT,
                              env=env, capture_output=True, text=True)
    except OSError as exc:
        return False, f"{python}: cannot run: {exc}"
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return False, f"{python}: failed: {last}"
    version, *lines = proc.stdout.splitlines()
    got = dict(line.split(" ", 1) for line in lines)
    differ = [name for name in want if got.get(name) != want[name]]
    if differ:
        return False, (f"{python}: Python {version}: reports differ: "
                       f"{', '.join(differ)}")
    return True, f"{python}: Python {version}: ok ({len(want)} reports)"


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    failed = 0
    for python in argv[1:]:
        ok, line = check(python, want)
        failed += not ok
        print(line, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
