"""Every function, method and class in the package has a use, and the
README names none that is gone.

A name defined in src/qso_spectra/ is used when it appears, beyond its
own definitions, in the program: src/ (the __init__.py re-exports do
not count) or perfbench/.  A name that only tests call is dead code
unless TEST_REFERENCES lists it as a reference the tests check the
program against.  Dunder methods are called by the language and are
exempt.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qso_spectra"

# (module, name) of the package's test-only references: r_entry is the
# independent R-matrix formula that frt._r_tables is compared against
TEST_REFERENCES = (("frt", "r_entry"),)


def _corpus(*subs):
    files = []
    for sub in subs:
        files += [f for f in sorted((ROOT / sub).rglob("*.py"))
                  if f.parent != PACKAGE or f.name != "__init__.py"]
    return "\n".join(f.read_text(encoding="utf-8") for f in files)


def _definitions():
    defs = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs[node.name] += 1
    return defs


def test_no_function_is_defined_without_a_use():
    # an identifier's word-boundary matches are exactly its \w+ tokens,
    # so one pass counts every name
    uses = Counter(re.findall(r"\w+", _corpus("src", "perfbench")))
    defs = _definitions()
    listed = {name for _, name in TEST_REFERENCES}
    dead = sorted(name for name, n in defs.items()
                  if uses[name] <= n and name not in listed)
    assert not dead, f"defined but never used by the program: {dead}"
    # a listed reference is a package name that only tests use
    test_uses = set(re.findall(r"\w+", _corpus("tests")))
    for mod, name in TEST_REFERENCES:
        assert hasattr(importlib.import_module(f"qso_spectra.{mod}"), name)
        assert uses[name] <= defs[name], f"{name} is used by the program"
        assert name in test_uses, f"{name} is used by no test"


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
