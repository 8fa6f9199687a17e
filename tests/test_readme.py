"""The README's library examples run as written, so a change to a documented
signature cannot leave them silently broken, and its protocol tables say
what the declared migration graphs say."""

import contextlib
import io
import itertools
import re
from pathlib import Path

from migsim.migration import MigrationManager, State, Technique

README = Path(__file__).resolve().parents[1] / "README.md"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)


def test_readme_python_blocks_run():
    blocks = PYTHON_BLOCK.findall(README.read_text(encoding="utf-8"))
    assert blocks
    for i, code in enumerate(blocks):
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(code, f"README.md python block {i}", "exec"), {})


NAME = re.compile(r"`(\w+)`")
GRAPHS = {Technique.MS2M: MigrationManager._MS2M,
          Technique.STOP_AND_COPY: MigrationManager._STOP_AND_COPY}


def _protocol_table(technique: Technique) -> dict[State, tuple]:
    """The README table under '### <technique>': state -> (events, next)."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## How a migration runs", 1)[1]
    body = section.split(f"### {technique.value}\n", 1)[1].lstrip()
    rows = itertools.takewhile(lambda line: line.startswith("|"),
                               body.splitlines())
    table = {}
    for line in list(rows)[2:]:  # past the header and its rule
        cell, events, _steps, nxt = line.strip("|").split("|")
        state = State[NAME.fullmatch(cell.strip())[1]]
        assert state not in table, f"{state} listed twice"
        table[state] = (set(NAME.findall(events)),
                        {State[n] for n in NAME.findall(nxt)})
    return table


def test_protocol_tables_match_the_graphs():
    for technique, graph in GRAPHS.items():
        declared = {}
        for (state, event), (_step, nxt) in graph.items():
            events, nexts = declared.setdefault(state, (set(), set()))
            events.add(event)
            nexts.update(nxt if type(nxt) is tuple else (nxt,))
        assert _protocol_table(technique) == declared
