#!/usr/bin/env python
"""Generate docs/API.md from the package's docstrings.

Walks every public module of :mod:`repro`, collects public classes and
functions with their signatures and first docstring lines, and writes a
single markdown index. Regenerate after API changes::

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from pathlib import Path

import repro

HEADER = """\
# API reference

One-line index of the public API, generated from docstrings by
`tools/gen_api_docs.py` — regenerate after API changes; do not edit by
hand. See module docstrings for the full discussions.
"""


def first_line(obj) -> str:
    """First non-empty docstring line of *obj* (or a placeholder)."""
    doc = inspect.getdoc(obj) or ""
    for line in doc.splitlines():
        line = line.strip()
        if line:
            return line
    return "(undocumented)"


class _ByName:
    """A default value shown by its qualified name instead of its repr."""

    def __init__(self, obj) -> None:
        self.name = getattr(obj, "__qualname__", type(obj).__qualname__)

    def __repr__(self) -> str:
        return self.name


def signature_of(obj) -> str:
    """Best-effort compact signature.

    A callable default's repr carries its memory address, which would
    change the generated file on every run: it is shown by name.
    """
    try:
        sig = inspect.signature(obj)
    except (TypeError, ValueError):
        return "(...)"
    params = [
        p.replace(default=_ByName(p.default))
        if callable(p.default) and not inspect.isclass(p.default)
        else p
        for p in sig.parameters.values()
    ]
    return str(sig.replace(parameters=params))


def walk_modules():
    """Public repro modules in name order (CLI shims excluded)."""
    names = sorted(
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if not info.name.endswith("__main__")
    )
    return [importlib.import_module(name) for name in names]


def document_module(module) -> list[str]:
    lines = [f"## `{module.__name__}`", "", first_line(module), ""]
    entries = []
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            entries.append(f"- **class `{name}`** — {first_line(obj)}")
            for mname, member in sorted(vars(obj).items()):
                if mname.startswith("_"):
                    continue
                if inspect.isfunction(member):
                    entries.append(
                        f"  - `{mname}{signature_of(member)}` — {first_line(member)}"
                    )
                elif isinstance(member, property):
                    entries.append(f"  - `{mname}` (property) — {first_line(member)}")
        elif inspect.isfunction(obj):
            entries.append(f"- `{name}{signature_of(obj)}` — {first_line(obj)}")
    if not entries:
        return []
    return lines + entries + [""]


def generate() -> str:
    """Build the full API document text."""
    blocks = [HEADER]
    for module in walk_modules():
        blocks.extend(document_module(module))
    return "\n".join(blocks)


def main() -> None:
    """Write docs/API.md next to the repository root."""
    out = Path(__file__).resolve().parent.parent / "docs" / "API.md"
    out.write_text(generate(), encoding="utf-8")
    print(f"wrote {out} ({len(generate().splitlines())} lines)")


if __name__ == "__main__":
    main()
