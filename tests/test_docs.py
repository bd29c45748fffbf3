"""Every library name the documentation cites resolves."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import pmspace

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(pmspace.__path__))


def resolve(dotted: str, namespace) -> bool:
    """True when ``dotted`` names an attribute of ``namespace``, a pmspace
    module, or pmspace itself, followed by attributes."""
    head, *rest = dotted.split(".")
    if head == "pmspace":
        obj = pmspace
    elif hasattr(namespace, head):
        obj = getattr(namespace, head)
    elif head in MODULES:
        obj = importlib.import_module(f"pmspace.{head}")
    else:
        return False
    for name in rest:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_readme_names_resolve():
    # `module.name` in README.md, for names rooted in pmspace, one of its
    # modules or one of its exports
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    names = {
        t
        for t in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", text)
        if t.split(".")[0] in ("pmspace", *MODULES) or hasattr(pmspace, t.split(".")[0])
    }
    assert len(names) >= 10
    assert sorted(t for t in names if not resolve(t, pmspace)) == []


@pytest.mark.parametrize("module", MODULES)
def test_docstring_references_resolve(module):
    # :func:`name` and its kin, read in the module that writes them
    mod = importlib.import_module(f"pmspace.{module}")
    text = Path(mod.__file__).read_text(encoding="utf-8")
    refs = re.findall(r":[a-z]+:`([^`]+)`", text)
    assert sorted(r for r in refs if not resolve(r, mod)) == []
