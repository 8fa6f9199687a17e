"""Run hand-made source mutants against the tier-1 tests.

Each mutant is a (name, file, old text, new text, killer) entry; the killer
is the pytest node id of a test that fails on the mutant when run alone.
For each one, the repository is copied into a temporary directory, the old
text is replaced by the new text in that copy, and the killer runs there.
If it fails, the mutant is KILLED. If it passes, tier-1 runs there with -x:
a failure prints KILLER LOST with the first failing test, and no failure
prints SURVIVED. Both fail the run, since the entry's killer no longer
kills it. The last line gives the kill count. A run stopped with SIGTERM
still removes the copy it was testing.

    python3 tools/mutants.py

Each old text must occur exactly once in its file, and each killer's file
and function must exist (tier-1 tests check both), so an entry cannot
silently stop applying when the code or the tests under it change. A full
run takes minutes, which is why it stays outside tier-1.
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
PYTEST = ["-m", "pytest", "-q", "-p", "no:cacheprovider"]
# tier-1 without the check on this list, which any applied mutant fails
TIER1 = [*PYTEST, "-x", "--continue-on-collection-errors",
         "--ignore=tests/test_mutants.py"]
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                              ".hypothesis", ".perfbench_out", "*.egg-info")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    killer: str  # pytest node id, relative to the repository root


MUTANTS = [
    # -- broker ---------------------------------------------------------------
    Mutant("mirror copies instead of sharing", "src/migsim/broker.py",
           "        target._payloads.append(payload)\n",
           "        target._payloads.append(bytes(bytearray(payload)))\n",
           "tests/test_broker.py::test_mirrored_payload_is_the_source_payload"),
    Mutant("mirror set before the order check", "src/migsim/broker.py",
           "        for mid, payload in zip(q._ids, q._payloads):\n",
           "        q.mirror = (target_name, start_id)\n"
           "        for mid, payload in zip(q._ids, q._payloads):\n",
           "tests/test_broker.py::test_refused_mirror_restart_leaves_no_mirror_behind"),
    Mutant("mirror append leaves the target's next id", "src/migsim/broker.py",
           "        if mid >= target.next_id:\n"
           "            target.next_id = mid + 1\n",
           "",
           "tests/test_broker.py::test_publish_after_a_mirror_backfill_takes_the_next_id"),
    Mutant("unsubscribe keeps its wake", "src/migsim/broker.py",
           "        if q._wake_event is not None:\n"
           "            self.clock.cancel(q._wake_event)\n",
           "        if False:\n"
           "            self.clock.cancel(q._wake_event)\n",
           "tests/test_broker.py::test_unsubscribing_cancels_the_wake_it_was_owed"),
    Mutant("detach_wakes does nothing", "src/migsim/broker.py",
           "        for q in self._queues.values():\n"
           "            q._wake = None\n",
           "        pass\n",
           "tests/test_service.py::test_detached_instance_is_freed_without_the_cycle_collector"),
    Mutant("ack ignores the id", "src/migsim/broker.py",
           "        if q.inflight != message_id or message_id is None:\n",
           "        if q.inflight is None:\n",
           "tests/test_broker.py::test_ack_wrong_id_rejected"),
    Mutant("ack pops the id but not the payload", "src/migsim/broker.py",
           "        q._payloads.popleft()\n",
           "",
           "tests/test_broker.py::test_poll_ack_cycle"),
    # -- clock ------------------------------------------------------------------
    Mutant("feed without seq -1", "src/migsim/simnet.py",
           "            seq, self._seq = self._seq, -1\n",
           "            seq = self._seq\n",
           "tests/test_simnet.py::test_feed_fires_like_scheduling_every_arrival_up_front"),
    # -- service ----------------------------------------------------------------
    Mutant("stale check as <", "src/migsim/service.py",
           "    if msg.id <= state.last_processed_id:\n",
           "    if msg.id < state.last_processed_id:\n",
           "tests/test_service.py::test_handle_stale_rejected_without_change"),
    Mutant("a failed parse is stored", "src/migsim/service.py",
           "            except ValueError:\n"
           "                raise UnknownCommand(f\"bad increment: {parts[2]!r}\") from None\n",
           "            except ValueError:\n"
           "                _parsed = (payload, True, raw, key, 0)\n"
           "                raise UnknownCommand(f\"bad increment: {parts[2]!r}\") from None\n",
           "tests/test_service.py::test_a_malformed_payload_fails_alike_every_time"),
    Mutant("a bytearray payload is parsed unconverted", "src/migsim/service.py",
           "        if type(payload) is not bytes:\n"
           "            payload = bytes(payload)\n",
           "",
           "tests/test_service.py::test_a_set_from_a_bytearray_can_be_checkpointed"),
    Mutant("the counter check is skipped on a hit", "src/migsim/service.py",
           "        if not isinstance(old, int):\n",
           "        if not isinstance(old, int) and payload != parsed[0]:\n",
           "tests/test_service.py::test_the_counter_check_runs_on_a_reused_parse"),
    Mutant("an int value of the wrong length is decoded",
           "src/migsim/service.py",
           "        if len(body) != 8:\n"
           "            raise SerializationError(\"int value must be exactly 8 bytes\")\n"
           "        return _I64.unpack(body)[0]\n",
           "        return int.from_bytes(body, \"big\", signed=True)\n",
           "tests/test_service.py::test_int_value_of_the_wrong_length_is_refused"),
    Mutant("plain decode returns an int's body raw", "src/migsim/service.py",
           "        return _I64.unpack(body)[0]\n",
           "        return body\n",
           "tests/test_service.py::test_serialize_round_trip"),
    Mutant("plain encode accepts bool", "src/migsim/service.py",
           "    if isinstance(value, bool):\n"
           "        raise SerializationError(\"bool values are not part of the state schema\")\n",
           "",
           "tests/test_service.py::test_rejects_bool_and_oversized_int"),
    Mutant("counter-table decode skips the tag check", "src/migsim/service.py",
           "            if n != klen or vlen != 9 or tag != _TAG_INT or raw <= prev:\n",
           "            if n != klen or vlen != 9 or raw <= prev:\n",
           "tests/test_service.py::test_eight_byte_bytes_value_among_ints_round_trips"),
    Mutant("counter-table decode skips the value-length check",
           "src/migsim/service.py",
           "            if n != klen or vlen != 9 or tag != _TAG_INT or raw <= prev:\n",
           "            if n != klen or tag != _TAG_INT or raw <= prev:\n",
           "tests/test_service.py::test_int_sized_entry_with_a_short_value_length_is_refused"),
    Mutant("counter-table decode skips the key-length check",
           "src/migsim/service.py",
           "            if n != klen or vlen != 9 or tag != _TAG_INT or raw <= prev:\n",
           "            if vlen != 9 or tag != _TAG_INT or raw <= prev:\n",
           "tests/test_service.py::test_int_sized_entry_with_a_shorter_key_is_refused"),
    Mutant("counter-table decode skips the order check",
           "src/migsim/service.py",
           "            if n != klen or vlen != 9 or tag != _TAG_INT or raw <= prev:\n",
           "            if n != klen or vlen != 9 or tag != _TAG_INT:\n",
           "tests/test_service.py::test_keys_out_of_order_or_repeated_are_refused"),
    Mutant("counter-table decode lets UnicodeDecodeError out",
           "src/migsim/service.py",
           "    except UnicodeDecodeError:\n"
           "        return None\n",
           "    except ZeroDivisionError:\n"
           "        return None\n",
           "tests/test_service.py::test_truncated_or_invalid_utf8_raises_serialization_error_only"),
    Mutant("counter-table encode accepts bool", "src/migsim/service.py",
           "set(map(type, data.values())) == {int}",
           "set(map(type, data.values())) <= {int, bool}",
           "tests/test_service.py::test_a_value_outside_the_counter_layout_is_found_anywhere"),
    Mutant("counter-table encode skips the ASCII check",
           "src/migsim/service.py",
           "{int}\n            and \"\".join(keys).isascii()):\n",
           "{int}):\n",
           "tests/test_service.py::test_counter_tables_off_the_one_layout_encode_alike"),
    Mutant("counter-table encode skips the one-length check",
           "src/migsim/service.py",
           "    if (set(map(len, keys)) == {n} and ",
           "    if (",
           "tests/test_service.py::test_counter_tables_off_the_one_layout_encode_alike"),
    Mutant("low-watermark refusal disabled", "src/migsim/service.py",
           "        if watermark < self.state.last_processed_id:\n",
           "        if False:\n",
           "tests/test_service.py::test_finish_replay_refuses_watermark_below_applied"),
    Mutant("starved-replay check disabled", "src/migsim/service.py",
           "        if nxt is None or nxt.id > watermark:\n",
           "        if False:\n",
           "tests/test_service.py::test_finish_replay_refuses_a_queue_that_starves_below_the_watermark"),
    Mutant("switch when the next id passes the watermark",
           "src/migsim/service.py",
           "        if self.state.last_processed_id >= watermark:\n"
           "            self._hold = None\n",
           "        nxt = self.broker.peek(self._queue, self.instance_id)\n"
           "        if (self.state.last_processed_id >= watermark\n"
           "                or (nxt is not None and nxt.id > watermark)):\n"
           "            self._hold = None\n",
           "tests/test_service.py::test_finish_replay_refuses_a_queue_that_skips_past_the_watermark"),
    Mutant("leaving keeps a waiting step", "src/migsim/service.py",
           "            self._pending = None\n"
           "        self._hold = None\n",
           "            self._pending = None\n",
           "tests/test_service.py::test_pause_drops_a_waiting_stop"),
    Mutant("detaching keeps the hold", "src/migsim/service.py",
           "        self.on_mode_change = self.on_idle = self._hold = None\n",
           "        self.on_mode_change = self.on_idle = None\n",
           "tests/test_service.py::test_detached_instance_is_freed_without_the_cycle_collector"),
    Mutant("a frozen replay lets a poll through", "src/migsim/service.py",
           "            self._hold = lambda: True  # frozen until finish_replay\n",
           "            self._hold = lambda: False\n",
           "tests/test_service.py::test_a_frozen_replay_takes_nothing_until_finish_replay"),
    Mutant("reporting the freeze lets a poll through", "src/migsim/service.py",
           "            on_frozen()\n"
           "            return True\n",
           "            on_frozen()\n"
           "            return False\n",
           "tests/test_service.py::test_a_frozen_replay_takes_nothing_until_finish_replay"),
    Mutant("a wake that finds nothing reports idle", "src/migsim/service.py",
           "        if msg is None:\n"
           "            # a wake for what the instance already took",
           "        if msg is None:\n"
           "            if self.on_idle is not None:\n"
           "                self.on_idle()\n"
           "            # a wake for what the instance already took",
           "tests/test_service.py::test_idle_hook_edge_triggered"),
    Mutant("a no-change mode set is reported", "src/migsim/service.py",
           "        if old is new:\n"
           "            return\n",
           "",
           "tests/test_golden.py::test_fault_grid_matches_golden"),
    Mutant("handoff branch dropped from _complete", "src/migsim/service.py",
           "        if self._hold is not None:\n"
           "            self._try_next()\n"
           "        elif left:\n",
           "        if left:\n",
           "tests/test_service.py::test_finish_replay_switches_to_main_at_watermark"),
    # -- migration ----------------------------------------------------------------
    Mutant("checkpoint span sized off its snapshot", "src/migsim/migration.py",
           "        size = len(serialize_state(self.source.state))\n",
           "        size = len(serialize_state(self.source.state)) + 100\n",
           "tests/test_timing_model.py::test_non_replay_spans_follow_the_cost_models"),
    Mutant("a second start is accepted", "src/migsim/migration.py",
           "        if self.state is not State.IDLE:\n"
           "            raise ProtocolError(\"migration already started\")\n",
           "",
           "tests/test_migration.py::test_a_second_start_is_refused"),
    Mutant("< for the handoff threshold", "src/migsim/migration.py",
           "    if backlog <= policy.handoff_threshold:\n",
           "    if backlog < policy.handoff_threshold:\n",
           "tests/test_migration.py::test_handoff_threshold_is_inclusive"),
    Mutant(">= for the replay timeout", "src/migsim/migration.py",
           "            and elapsed_replay_ms > policy.replay_timeout_ms):\n",
           "            and elapsed_replay_ms >= policy.replay_timeout_ms):\n",
           "tests/test_migration.py::test_timeout_aborts_strictly_after_deadline"),
    Mutant("> for the divergence window", "src/migsim/migration.py",
           "    if overload_streak >= policy.divergence_window:\n",
           "    if overload_streak > policy.divergence_window:\n",
           "tests/test_migration.py::test_sustained_overload_aborts_at_window"),
    Mutant("phase entered twice allowed", "src/migsim/migration.py",
           "            if span.name in seen:\n",
           "            if False:\n",
           "tests/test_migration.py::test_validate_timeline_rejects_a_phase_entered_twice"),
    Mutant("crash in HANDOFF aborts", "src/migsim/migration.py",
           "        if self.state not in (State.IDLE, State.HANDOFF, State.DONE):\n",
           "        if self.state not in (State.IDLE, State.DONE):\n",
           "tests/test_migration.py::test_stop_and_copy_crash_after_transfer_still_completes"),
    Mutant("exit keeps its pending timer", "src/migsim/migration.py",
           "        self._cancel_timer()\n"
           "        if outcome is Outcome.ABORTED_SOURCE_CRASH:\n",
           "        if outcome is Outcome.ABORTED_SOURCE_CRASH:\n",
           "tests/test_migration.py::test_no_timer_fires_after_the_migration_ends"),
    Mutant("a decision keeps its pending check", "src/migsim/migration.py",
           "        self._cancel_timer()\n"
           "        self.target_instance.on_idle = None\n",
           "        self.target_instance.on_idle = None\n",
           "tests/test_migration.py::test_no_check_fires_after_the_monitor_hands_off"),
    Mutant("the replay hook outlives replay", "src/migsim/migration.py",
           "        self.target_instance.on_idle = None\n"
           "        if decision is Decision.HANDOFF:\n",
           "        if decision is Decision.HANDOFF:\n",
           "tests/test_migration.py::test_every_control_message_is_sent_where_it_can_be_consumed"),
    Mutant("a fired timer stays pending", "src/migsim/migration.py",
           "            self._timer = None\n"
           "            self._on_event(event)\n",
           "            self._on_event(event)\n",
           "tests/test_migration.py::test_every_cancel_hits_a_live_entry"),
    Mutant("a phase fault outlives its phase", "src/migsim/migration.py",
           "        if self._fault is not None:\n"
           "            self.clock.cancel(self._fault)\n"
           "            self._fault = None\n",
           "",
           "tests/test_migration.py::test_a_replay_fault_past_a_divergence_abort_does_not_fire"),
    Mutant("a backlog that held grows the streak", "src/migsim/migration.py",
           "if backlog > self._backlog else 0\n",
           "if backlog >= self._backlog else 0\n",
           "tests/test_migration.py::test_a_backlog_that_holds_is_not_divergence"),
    Mutant("mirror starts at checkpoint_last_id + 2", "src/migsim/migration.py",
           "                                 self.source.state.last_processed_id + 1)\n",
           "                                 self.source.state.last_processed_id + 2)\n",
           "tests/test_migration.py::test_exactly_once_matches_control"),
    Mutant("drain measured with the main queue still full",
           "src/migsim/migration.py",
           "        if len(self.broker.queue(MAIN_QUEUE)) == 0:\n",
           "        if True:\n",
           "tests/test_migration.py::test_drain_waits_for_a_message_published_after_the_switch"),
    Mutant("drain hook stays after the drain", "src/migsim/migration.py",
           "            self.target_instance.on_idle = None\n",
           "            pass\n",
           "tests/test_golden.py::test_shipped_scenario_reports_match_golden"),
    Mutant("every abort reason read as overload", "src/migsim/migration.py",
           "        self.record.abort_reason = decision.value\n",
           "        self.record.abort_reason = \"overload\"\n",
           "tests/test_migration.py::test_replay_timeout_abort"),
    Mutant("undeclared pick accepted", "src/migsim/migration.py",
           "            if picked not in nxt:\n",
           "            if False:\n",
           "tests/test_migration.py::test_a_choice_step_may_only_pick_a_declared_state"),
    Mutant("stale event dispatched by its name alone",
           "src/migsim/migration.py",
           "        row = self._graph.get((self.state, event))\n",
           "        row = self._graph.get((self.state, event)) or next(\n"
           "            (r for (_s, e), r in self._graph.items() if e == event),"
           " None)\n",
           "tests/test_migration.py::test_a_known_event_with_no_row_is_dropped"),
    # -- harness and config -------------------------------------------------------
    Mutant("compare times only completed trials", "src/migsim/harness.py",
           "        if not timed:\n"
           "            timed = cells\n",
           "",
           "tests/test_harness.py::test_compare_summarizes_a_technique_with_no_completed_trial"),
    Mutant("a technique listed twice is accepted", "src/migsim/config.py",
           "            if tech in techniques:\n",
           "            if False:\n",
           "tests/test_harness.py::test_parse_refuses_repeats_and_entries_that_are_not_objects"),
    Mutant("a duplicate host id is accepted", "src/migsim/config.py",
           "        if host_id in hosts:\n",
           "        if False:\n",
           "tests/test_harness.py::test_parse_refuses_repeats_and_entries_that_are_not_objects"),
    Mutant("an unknown host passes as known", "src/migsim/config.py",
           "    if hosts and host_id not in hosts:\n",
           "    if False:\n",
           "tests/test_harness.py::test_parse_validates_topology"),
    Mutant("the migration's link is looked up reversed",
           "src/migsim/config.py",
           "    link = links[source, target]\n",
           "    link = links.get((target, source)) or links[source, target]\n",
           "tests/test_golden.py::test_shipped_scenario_reports_match_golden"),
    Mutant("a replay over the event budget is accepted",
           "src/migsim/config.py",
           "        if checks > EVENT_BUDGET:\n",
           "        if False:\n",
           "tests/test_harness.py::test_validate_refuses_a_replay_the_event_budget_cannot_hold"),
    Mutant("the check bound leaves out the messages' processing",
           "src/migsim/config.py",
           "            + messages * (params.processing_ms"
           " + params.delivery_latency_ms))\n",
           "            + messages * params.delivery_latency_ms)\n",
           "tests/test_harness.py::test_the_replay_monitor_stays_within_its_check_bound"),
    # -- simulation ---------------------------------------------------------------
    Mutant("two-serving check disabled", "src/migsim/sim.py",
           "            if len(self._serving) > 1:\n",
           "            if False:\n",
           "tests/test_migration.py::test_a_second_serving_instance_fails_the_run_at_once"),
    Mutant("run leaves the output buffer full", "src/migsim/sim.py",
           "            outputs=self.broker.queue(OUTPUT_QUEUE).take_payloads(),\n",
           "            outputs=[m.payload for m in\n"
           "                     self.broker.queue(OUTPUT_QUEUE).messages()],\n",
           "tests/test_migration.py::test_run_moves_the_outputs_into_the_result"),
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


def run(mutant: Mutant) -> tuple[str, str]:
    """Run the killer, then tier-1 if it passes, on a mutated copy: (verdict,
    the killer or tier-1's first failing test)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        apply(mutant, copy)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(copy / "src"), env.get("PYTHONPATH")) if p)

        def pytest(*args: str) -> subprocess.CompletedProcess:
            return subprocess.run([sys.executable, *args], cwd=copy, env=env,
                                  capture_output=True, text=True)

        # 1: a test failed; 2: collection failed. 4 and 5 mean the node id
        # matched nothing, which must not pass for a kill
        if pytest(*PYTEST, mutant.killer).returncode in (1, 2):
            return "KILLED", mutant.killer
        proc = pytest(*TIER1)
    if proc.returncode == 0:
        return "SURVIVED", ""
    return "KILLER LOST", first_failure(proc.stdout + proc.stderr)


def _stop(signum, frame):
    # raised inside run's with block, which then removes the copy
    raise SystemExit(128 + signum)


def main() -> int:
    killed = 0
    previous = signal.signal(signal.SIGTERM, _stop)
    try:
        for mutant in MUTANTS:
            verdict, where = run(mutant)
            killed += verdict == "KILLED"
            print(f"{verdict:11}  {mutant.name}"
                  + (f"  ({where})" if where else ""), flush=True)
    finally:
        signal.signal(signal.SIGTERM, previous)
    print(f"killed {killed} of {len(MUTANTS)}")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
