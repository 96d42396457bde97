"""Every function, method and class in the package has a use, and the
README names none that is gone.

A name defined in src/qso_spectra/ is used when the program refers to
it in code, beyond its own definitions: a name, an attribute or an
imported name in src/ (the __init__.py re-exports do not count) or
perfbench/.  A string, a comment or a docstring that spells the name is
no use.  A name that only tests call is dead code unless
TEST_REFERENCES lists it as a reference the tests check the program
against.  Dunder methods are called by the language and are exempt.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qso_spectra"

# (module, name) of the package's test-only references; the tests keep
# their oracles to themselves, so there are none
TEST_REFERENCES = ()


def _trees(*subs):
    trees = []
    for sub in subs:
        trees += [ast.parse(f.read_text(encoding="utf-8"))
                  for f in sorted((ROOT / sub).rglob("*.py"))
                  if f.parent != PACKAGE or f.name != "__init__.py"]
    return trees


def _uses(trees) -> Counter:
    """The code references of each name: Name and Attribute nodes and
    the names an import binds from a module."""
    uses = Counter()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id] += 1
            elif isinstance(node, ast.Attribute):
                uses[node.attr] += 1
            elif isinstance(node, ast.alias):
                uses[node.name.rpartition(".")[2]] += 1
    return uses


def _definitions(trees) -> set:
    return {node.name for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def _dead(defined, used) -> list:
    uses = _uses(used)
    return sorted(name for name in _definitions(defined) if not uses[name])


def test_no_function_is_defined_without_a_use():
    package = [ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py"))]
    listed = {name for _, name in TEST_REFERENCES}
    dead = _dead(package, _trees("src", "perfbench"))
    unlisted = [name for name in dead if name not in listed]
    assert not unlisted, f"defined but never used by the program: {unlisted}"
    # a listed reference is a package name that only tests use
    test_uses = _uses(_trees("tests"))
    for mod, name in TEST_REFERENCES:
        assert hasattr(importlib.import_module(f"qso_spectra.{mod}"), name)
        assert name in dead, f"{name} is used by the program"
        assert test_uses[name], f"{name} is used by no test"


def test_a_name_only_spelled_in_text_is_dead():
    # negative control: a docstring, a comment and a string that spell
    # the name are no use; a call is
    source = ('def helper():\n    """helper() is named here."""\n\n\n'
              'COMMAND = "helper"  # helper\n')
    tree = ast.parse(source)
    assert _dead([tree], [tree]) == ["helper"]
    called = ast.parse(source + "helper()\n")
    assert _dead([called], [called]) == []


def test_readme_module_references_resolve():
    # a backticked `module.name` (or `module.name(...)`) whose module is
    # one of the package's resolves to an attribute of qso_spectra.module;
    # file names such as `field.py` are not references
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    refs = [(mod, attr) for mod, attr in
            re.findall(r"`(\w+)\.([\w.]+)(?:\([^`]*\))?`", text)
            if mod in modules and attr != "py"]
    assert refs
    missing = []
    for mod, attr in refs:
        owner = importlib.import_module(f"qso_spectra.{mod}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{mod}.{attr}")
    assert not missing, f"README names what the package lacks: {missing}"
