"""Every public name under src/treecast is used somewhere outside its own
definition: in src/, benchmarks/, the acceptance suite or the README.  A
name that only its own unit tests use is dead code.

The scan covers public top-level functions and classes, which count as used
when their name appears outside their `def` or `class`, and the public
methods of top-level classes, which count as used when `.name` appears
anywhere (a `def` never writes it).  The package `__init__.py` files are not
read: a re-export is not a use.

It matches names as text, so it has limits.  A method that shares its name
with another class's used method passes: `JointDistribution.to_json` would
pass because `LabelArray.to_json` is used.  A name written in a comment or
docstring counts as used, and functions that only call each other pass."""

import ast
import re
from pathlib import Path

import treecast

SRC = Path(treecast.__file__).parent
ROOT = SRC.parents[1]

# Public names only the unit tests use, each with why it stays.
ALLOWED = {
    "experiments.read_csv": "the CLI tests read the CSVs the grid commands emit back with it",
    "a5.reconstruct.identity_first_tallies": "the tally reference TestDrawDecode checks the draw decode against",
    "a5.barrington.evaluate_program": "the scalar reference evaluate_program_batch is checked against",
    "generators.add_leaf_noise": "README's leaf-noise channel on a generated tree",
    "generators.biased_bit_exact": "README's exact dyadic-bias coin",
}


def _unused_names(modules: dict[str, str], corpus: str) -> list[str]:
    """module.name (module.Class.method for methods) of each public name
    defined in `modules` (dotted name -> source) that `corpus` does not use
    outside its definition."""
    unused = []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if len(re.findall(rf"\b{node.name}\b", corpus)) < 2:
                unused.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                        if not re.search(rf"\.{method.name}\b", corpus):
                            unused.append(f"{module}.{node.name}.{method.name}")
    return sorted(unused)


def _scan(src: Path, readers: list[Path]) -> list[str]:
    """`_unused_names` of the package at `src`, read with `readers` but
    without the package's `__init__.py` files."""
    modules = {
        ".".join(path.relative_to(src).with_suffix("").parts): path.read_text(encoding="utf-8")
        for path in sorted(src.rglob("*.py"))
        if path.name != "__init__.py"
    }
    corpus = "\n".join([*modules.values(), *(path.read_text(encoding="utf-8") for path in readers)])
    return _unused_names(modules, corpus)


def test_every_public_function_is_named_outside_its_own_def():
    readers = [*(ROOT / "benchmarks").rglob("*.py"), ROOT / "tests" / "test_acceptance.py", ROOT / "README.md"]
    assert _scan(SRC, readers) == sorted(ALLOWED)


def test_a_function_named_only_in_its_def_is_flagged():
    source = "def reader(doc):\n    return doc\n\n\ndef writer(x):\n    return reader(x)\n"
    assert _unused_names({"m": source}, source) == ["m.writer"]


def test_a_method_named_only_in_its_def_is_flagged():
    source = (
        "class Law:\n    def read(self):\n        return self.write()\n\n    def write(self):\n        return 1\n\n"
        "    def _hidden(self):\n        return 2\n\n\nprint(Law().write())\n"
    )
    assert _unused_names({"m": source}, source) == ["m.Law.read"]


def test_a_re_export_alone_is_not_a_use(tmp_path):
    (tmp_path / "m.py").write_text("class Tree:\n    pass\n\n\ndef grow():\n    return Tree()\n")
    (tmp_path / "__init__.py").write_text("from .m import Tree, grow\n\n__all__ = ['Tree', 'grow']\n")
    assert _scan(tmp_path, []) == ["m.grow"]
