"""Every public top-level function under src/treecast is named somewhere
outside its own `def`: in src/, benchmarks/, the acceptance suite or the
README.  A function that only its own unit tests call is dead code."""

import ast
import re
from pathlib import Path

import treecast

SRC = Path(treecast.__file__).parent
ROOT = SRC.parents[1]

# Public functions only the unit tests name, each with why it stays.
ALLOWED = {
    "experiments.read_csv": "the CLI tests read the CSVs the grid commands emit back with it",
    "a5.reconstruct.identity_first_tallies": "the tally reference TestDrawDecode checks the draw decode against",
}


def _unnamed_functions(modules: dict[str, str], corpus: str) -> list[str]:
    """module.name of each public top-level function in `modules` (dotted
    name -> source) that `corpus` names only once, in its `def`."""
    unnamed = []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                if len(re.findall(rf"\b{node.name}\b", corpus)) < 2:
                    unnamed.append(f"{module}.{node.name}")
    return sorted(unnamed)


def test_every_public_function_is_named_outside_its_own_def():
    modules = {
        ".".join(path.relative_to(SRC).with_suffix("").parts): path.read_text(encoding="utf-8")
        for path in sorted(SRC.rglob("*.py"))
    }
    readers = [*(ROOT / "benchmarks").rglob("*.py"), ROOT / "tests" / "test_acceptance.py", ROOT / "README.md"]
    corpus = "\n".join([*modules.values(), *(path.read_text(encoding="utf-8") for path in readers)])
    assert _unnamed_functions(modules, corpus) == sorted(ALLOWED)


def test_a_function_named_only_in_its_def_is_flagged():
    source = "def reader(doc):\n    return doc\n\n\ndef writer(x):\n    return reader(x)\n"
    assert _unnamed_functions({"m": source}, source) == ["m.writer"]
