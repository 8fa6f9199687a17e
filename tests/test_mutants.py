"""tools/mutants.py stays appliable: each mutant's old text occurs exactly
once in its file, and its killer's test file and function exist, so an
entry cannot silently stop applying when the code or the tests under it
change. Running the mutants is left to the tool itself."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "mutants.py"


def _load_tool():
    # tools/ is not a package, so the module is loaded from its file
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


mutants = _load_tool()


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_exactly_once(mutant):
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_killer_file_and_function_exist(mutant):
    path, *names = mutant.killer.split("::")
    assert path.startswith("tests/") and names
    function = names[-1].split("[", 1)[0]
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    assert function in {node.name for node in ast.walk(tree)
                        if isinstance(node, ast.FunctionDef)}


def test_apply_refuses_old_text_that_is_not_unique(tmp_path):
    (tmp_path / "f.py").write_text("x = 1\nx = 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="occurs 2 times in f.py"):
        mutants.apply(mutants.Mutant("m", "f.py", "x = 1\n", "x = 2\n", ""),
                      tmp_path)
