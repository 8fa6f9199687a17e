"""tools/interpreters.py, which checks the shipped scenarios' report bytes
under other Python interpreters against the digests tests/test_golden.py
pins: it passes on this interpreter, names a report that differs, and fails
on an interpreter it cannot run."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "interpreters.py"


def _load_tool():
    # tools/ is not a package, so the module is loaded from its file
    spec = importlib.util.spec_from_file_location("interpreters", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


interpreters = _load_tool()


def test_this_interpreter_writes_the_committed_reports(capsys):
    assert interpreters.main(["interpreters.py", sys.executable]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{sys.executable}: Python {sys.version.split()[0]}: ok (6 reports)"]


def test_a_report_that_differs_is_named(tmp_path):
    ok, line = interpreters.check(sys.executable, {"zero_cost.json": "0" * 64})
    assert not ok
    assert line.endswith(": reports differ: zero_cost.json")
    ok, line = interpreters.check(str(tmp_path / "python"), {})
    assert not ok
    assert line.startswith(f"{tmp_path / 'python'}: cannot run: ")
