"""The traced benchmark patches names in the package; they must all exist.

``perfbench/spans.py`` wraps callees that ``lpic.cli`` and ``lpic.simulate``
look up at call time.  A refactor that renames or removes one of them would
leave the traced benchmark timing nothing, so the names are checked here.
The file is loaded by path and only read.
"""

import importlib.util
from pathlib import Path

import lpic.cli
import lpic.simulate

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
MODULES = {"cli": lpic.cli, "simulate": lpic.simulate}


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._PATCHES


def test_every_patched_name_exists():
    patches = _patches()
    assert patches
    for module, name, _span, _attr in patches:
        assert callable(getattr(MODULES[module], name, None)), f"{module}.{name}"
