"""Run hand-made source mutants against the tier-1 tests.

Each mutant is a (name, file, old text, new text) entry. For each one, the
repository is copied into a temporary directory, the old text is replaced
by the new text in that copy, and tier-1 runs there with -x. A mutant that
fails a test is KILLED, printed with the first failing test; one that
passes every test SURVIVED. The last line gives the kill count. A run
stopped with SIGTERM still removes the copy it was testing.

    python3 tools/mutants.py

Each old text must occur exactly once
in its file (a tier-1 test checks this), so an entry cannot silently stop
applying when the code under it changes. A full run takes minutes, which
is why it stays outside tier-1.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# tier-1 without the check on this list, which any applied mutant fails
TIER1 = ["-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--ignore=tests/test_mutants.py"]
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                              ".hypothesis", ".perfbench_out", "*.egg-info")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str


MUTANTS = [
    # -- broker ---------------------------------------------------------------
    Mutant("mirror copies instead of sharing", "src/migsim/broker.py",
           "        target._payloads.append(payload)\n",
           "        target._payloads.append(bytes(bytearray(payload)))\n"),
    Mutant("mirror set before the order check", "src/migsim/broker.py",
           "        for mid, payload in zip(q._ids, q._payloads):\n",
           "        q.mirror = (target_name, start_id)\n"
           "        for mid, payload in zip(q._ids, q._payloads):\n"),
    Mutant("mirror append leaves the target's next id", "src/migsim/broker.py",
           "        if mid >= target.next_id:\n"
           "            target.next_id = mid + 1\n",
           ""),
    Mutant("unsubscribe keeps its wake", "src/migsim/broker.py",
           "        if q._wake_event is not None:\n"
           "            self.clock.cancel(q._wake_event)\n",
           "        if False:\n"
           "            self.clock.cancel(q._wake_event)\n"),
    Mutant("detach_wakes does nothing", "src/migsim/broker.py",
           "        for q in self._queues.values():\n"
           "            q._wake = None\n",
           "        pass\n"),
    Mutant("ack ignores the id", "src/migsim/broker.py",
           "        if q.inflight != message_id or message_id is None:\n",
           "        if q.inflight is None:\n"),
    Mutant("ack pops the id but not the payload", "src/migsim/broker.py",
           "        q._payloads.popleft()\n",
           ""),
    # -- clock ------------------------------------------------------------------
    Mutant("feed without seq -1", "src/migsim/simnet.py",
           "            seq, self._seq = self._seq, -1\n",
           "            seq = self._seq\n"),
    # -- service ----------------------------------------------------------------
    Mutant("stale check as <", "src/migsim/service.py",
           "    if msg.id <= state.last_processed_id:\n",
           "    if msg.id < state.last_processed_id:\n"),
    Mutant("an int value of the wrong length is decoded",
           "src/migsim/service.py",
           "        raise SerializationError(\"int value must be exactly 8 bytes\")\n",
           "        return int.from_bytes(body, \"big\", signed=True)\n"),
    Mutant("low-watermark refusal disabled", "src/migsim/service.py",
           "        if watermark < self.state.last_processed_id:\n",
           "        if False:\n"),
    Mutant("starved-replay check disabled", "src/migsim/service.py",
           "        if nxt is None or nxt.id > watermark:\n",
           "        if False:\n"),
    Mutant("switch when the next id passes the watermark",
           "src/migsim/service.py",
           "        if self.state.last_processed_id >= watermark:\n"
           "            self._handoff = None\n",
           "        nxt = self.broker.peek(self._queue, self.instance_id)\n"
           "        if (self.state.last_processed_id >= watermark\n"
           "                or (nxt is not None and nxt.id > watermark)):\n"
           "            self._handoff = None\n"),
    Mutant("leaving keeps a waiting step", "src/migsim/service.py",
           "            self._pending = None\n"
           "            self._then = None\n",
           "            self._pending = None\n"),
    Mutant("a wake that finds nothing reports idle", "src/migsim/service.py",
           "        if msg is None:\n"
           "            # a wake for what the instance already took",
           "        if msg is None:\n"
           "            if self.on_idle is not None:\n"
           "                self.on_idle()\n"
           "            # a wake for what the instance already took"),
    Mutant("a no-change mode set is reported", "src/migsim/service.py",
           "        if old is new:\n"
           "            return\n",
           ""),
    Mutant("handoff branch dropped from _complete", "src/migsim/service.py",
           "        elif self._handoff is not None:\n"
           "            self._try_next()\n",
           ""),
    # -- migration ----------------------------------------------------------------
    Mutant("a second start is accepted", "src/migsim/migration.py",
           "        if self.state is not State.IDLE:\n"
           "            raise ProtocolError(\"migration already started\")\n",
           ""),
    Mutant("< for the handoff threshold", "src/migsim/migration.py",
           "    if backlog <= policy.handoff_threshold:\n",
           "    if backlog < policy.handoff_threshold:\n"),
    Mutant(">= for the replay timeout", "src/migsim/migration.py",
           "            and elapsed_replay_ms > policy.replay_timeout_ms):\n",
           "            and elapsed_replay_ms >= policy.replay_timeout_ms):\n"),
    Mutant("> for the divergence window", "src/migsim/migration.py",
           "    if overload_streak >= policy.divergence_window:\n",
           "    if overload_streak > policy.divergence_window:\n"),
    Mutant("phase entered twice allowed", "src/migsim/migration.py",
           "            if span.name in seen:\n",
           "            if False:\n"),
    Mutant("crash in HANDOFF aborts", "src/migsim/migration.py",
           "        if self.state not in (State.IDLE, State.HANDOFF, State.DONE):\n",
           "        if self.state not in (State.IDLE, State.DONE):\n"),
    Mutant("crash keeps the monitor event", "src/migsim/migration.py",
           "            if self._monitor_event is not None:\n"
           "                self.clock.cancel(self._monitor_event)\n",
           "            if False:\n"
           "                self.clock.cancel(self._monitor_event)\n"),
    Mutant("mirror starts at checkpoint_last_id + 2", "src/migsim/migration.py",
           "                                 self.source.state.last_processed_id + 1)\n",
           "                                 self.source.state.last_processed_id + 2)\n"),
    Mutant("drain measured with the main queue still full",
           "src/migsim/migration.py",
           "        if len(self.broker.queue(MAIN_QUEUE)) == 0:\n",
           "        if True:\n"),
    Mutant("drain hook stays after the drain", "src/migsim/migration.py",
           "            self.target_instance.on_idle = None\n",
           "            pass\n"),
    Mutant("every abort reason read as overload", "src/migsim/migration.py",
           "        self.record.abort_reason = decision.value\n",
           "        self.record.abort_reason = \"overload\"\n"),
    Mutant("undeclared pick accepted", "src/migsim/migration.py",
           "            if picked not in nxt:\n",
           "            if False:\n"),
    Mutant("stale event dispatched by its name alone",
           "src/migsim/migration.py",
           "        row = self._graph.get((self.state, event))\n",
           "        row = self._graph.get((self.state, event)) or next(\n"
           "            (r for (_s, e), r in self._graph.items() if e == event),"
           " None)\n"),
    Mutant("a late discard is dropped in DONE", "src/migsim/migration.py",
           "        (State.DONE, \"discard\"): (_discard_target, State.DONE),\n",
           ""),
    # -- harness and config -------------------------------------------------------
    Mutant("compare times only completed trials", "src/migsim/harness.py",
           "        if not timed:\n"
           "            timed = cells\n",
           ""),
    Mutant("a technique listed twice is accepted", "src/migsim/config.py",
           "            if tech in techniques:\n",
           "            if False:\n"),
    Mutant("a duplicate host id is accepted", "src/migsim/config.py",
           "        if host_id in hosts:\n",
           "        if False:\n"),
    # -- simulation ---------------------------------------------------------------
    Mutant("two-serving check disabled", "src/migsim/sim.py",
           "            if len(self._serving) > 1:\n",
           "            if False:\n"),
    Mutant("run leaves the output buffer full", "src/migsim/sim.py",
           "            outputs=self.broker.queue(OUTPUT_QUEUE).take_payloads(),\n",
           "            outputs=[m.payload for m in\n"
           "                     self.broker.queue(OUTPUT_QUEUE).messages()],\n"),
]


def apply(mutant: Mutant, root: Path) -> None:
    """Replace the mutant's old text in its file under root; the old text
    must occur exactly once."""
    path = root / mutant.file
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        raise ValueError(f"{mutant.name}: old text occurs {found} times "
                         f"in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ", 1)[0]
    return output.strip().splitlines()[-1] if output.strip() else "no output"


def run(mutant: Mutant) -> tuple[bool, str]:
    """Run tier-1 on a mutated copy: (killed, first failing test)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        apply(mutant, copy)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(copy / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, *TIER1], cwd=copy, env=env,
                              capture_output=True, text=True)
    if proc.returncode == 0:
        return False, ""
    return True, first_failure(proc.stdout + proc.stderr)


def _stop(signum, frame):
    # raised inside run's with block, which then removes the copy
    raise SystemExit(128 + signum)


def main() -> int:
    killed = 0
    previous = signal.signal(signal.SIGTERM, _stop)
    try:
        for mutant in MUTANTS:
            dead, where = run(mutant)
            killed += dead
            print(f"{'KILLED' if dead else 'SURVIVED':8}  {mutant.name}"
                  + (f"  ({where})" if dead else ""), flush=True)
    finally:
        signal.signal(signal.SIGTERM, previous)
    print(f"killed {killed} of {len(MUTANTS)}")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
