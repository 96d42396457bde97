"""Every function, method and class in the package has a use, and the
README names none that is gone.

A name defined in src/qso_spectra/ that appears nowhere but in its own
definition, across src/, tests/, perfbench/ and README.md, is dead code.
Dunder methods are called by the language and are exempt.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qso_spectra"


def _corpus():
    files = [ROOT / "README.md"]
    for sub in ("src", "tests", "perfbench"):
        files += sorted((ROOT / sub).rglob("*.py"))
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
    uses = Counter(re.findall(r"\w+", _corpus()))
    dead = sorted(name for name, n in _definitions().items() if uses[name] <= n)
    assert not dead, f"defined but never used: {dead}"


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
