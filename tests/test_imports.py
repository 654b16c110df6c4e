"""Every name a `src/lpic` module imports is used in that module's code, and
every top-level function and class is used somewhere in the package.

An unused import costs import time in every `lpic` process and reads as a
dependency that is not there.  A mention in a docstring or comment is not a
use.  `__init__.py` imports only to re-export, and `from __future__` binds
nothing, so both are exempt.  A helper that no code of the package refers
to, such as one a refactor leaves behind, is dead code; a re-export in
`__init__.py` counts as a use.

In `tests/`, only the reference simulator (`reference.py`) replays the seed
tree: no other test module names `SeedSequence`, so per-path replay loops do
not grow back, and `reference.py` imports no `_`-prefixed `lpic` name.

`model.py` owns every spectral certificate: no other module defines one, or
defines, imports or reads the thresholds and Cholesky tests they share.

Every private name the README cites in backticks (`_name`, or
`module._name` for a module of the package) is a top-level name of
`src/lpic`, of that module when one is named, so the README cannot keep
citing a helper that a refactor removed.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "lpic"
README = TESTS.parent / "README.md"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_the_check_sees_an_unused_import():
    assert _unused_imports("from math import sqrt\n'''sqrt(x)'''\nimport os\nos.sep\n") == ["sqrt"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _references(node) -> Counter:
    """Names node refers to: bare names, attributes and imported names."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name] += 1
    return found


def _unreferenced(sources: dict[str, str]) -> list[str]:
    """module.name of each top-level function or class in sources (module: text)
    that no code in sources refers to outside its own definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and everywhere[node.name] == _references(node)[node.name]
    ]


def test_the_check_sees_a_dead_helper():
    sources = {
        "a": "def f(n):\n    return f(n - 1)\n'''g()'''\ndef g():\n    pass\n",
        "b": "from .a import g\nclass C:\n    pass\n",
    }
    assert _unreferenced(sources) == ["a.f", "b.C"]


def test_every_top_level_definition_is_used():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert _unreferenced(sources) == []



def test_only_the_reference_replays_the_seed_tree():
    assert _references(ast.parse("from numpy.random import SeedSequence\n"))["SeedSequence"]
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in TESTS.glob("*.py")}
    assert [name for name, tree in trees.items()
            if name != "reference.py" and _references(tree)["SeedSequence"]] == []
    imported = [alias.name for node in ast.walk(trees["reference.py"])
                if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "lpic"
                for alias in node.names]
    assert imported and not [name for name in imported if name.startswith("_")]


# what the certificates share, and the certificates themselves
_CERT_INTERNALS = {"_PIVOT_RTOL", "_CERT_MARGIN", "_CERT_RANK", "_WS_ALLOWANCE",
                   "_factorizes", "_proved_regular"}
_CERTIFICATES = {"singular_draws", "_low_rank_bound", "_unsettled", "_trace_settled",
                 "_gram_moments", "_count_nonconvergent"}


def _defined(tree) -> set[str]:
    """Top-level names a module defines: functions, classes and assigned names."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def _certificate_leaks(source: str) -> list[str]:
    """Certificate names a module defines, and shared internals it defines or refers to."""
    tree = ast.parse(source)
    defined = _defined(tree) & (_CERT_INTERNALS | _CERTIFICATES)
    return sorted(defined | (_references(tree).keys() & _CERT_INTERNALS))


def test_model_alone_owns_the_spectral_certificates():
    leaky = "from .model import _CERT_MARGIN, _factorizes, _unsettled\nmodel._PIVOT_RTOL\n"
    assert _certificate_leaks(leaky + "_CERT_RANK = 3\n") == [
        "_CERT_MARGIN", "_CERT_RANK", "_PIVOT_RTOL", "_factorizes"]
    model = ast.parse((SRC / "model.py").read_text(encoding="utf-8"))
    assert _CERT_INTERNALS | _CERTIFICATES <= _defined(model)
    leaks = {p.name: _certificate_leaks(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py")) if p.name != "model.py"}
    assert {name: found for name, found in leaks.items() if found} == {}


# a backticked `_name` or `module._name`, bare or called: `_name(...)`
_CITED = re.compile(r"`(?:(\w+)\.)?(_\w+)(?:\([^`]*\))?`")


def _stale_citations(text: str, defined: dict[str, set[str]]) -> list[str]:
    """Private names text cites that are not top-level names of defined (module: names)."""
    stale = []
    for module, name in _CITED.findall(text):
        known = defined[module] if module in defined else set().union(*defined.values())
        if name not in known:
            stale.append(f"{module}.{name}" if module else name)
    return stale


def test_the_check_sees_a_stale_citation():
    defined = {"model": {"_a"}, "simulate": {"_b"}}
    text = "`_a`, `simulate._b`, `model._b`, `_c(x, y)`, `np._a`, `a_b`, `__init__.py`"
    assert _stale_citations(text, defined) == ["model._b", "_c"]  # a file name is no citation


def test_readme_cites_only_defined_private_names():
    defined = {p.stem: _defined(ast.parse(p.read_text(encoding="utf-8")))
               for p in sorted(SRC.glob("*.py"))}
    text = README.read_text(encoding="utf-8")
    assert _CITED.search(text)
    assert _stale_citations(text, defined) == []
