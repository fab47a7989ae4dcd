"""Generate docs/API.md from the package's public surface.

Walks every ``repro`` subpackage, lists each module's ``__all__``
members with the first line of their docstrings. Checked in; the test
suite regenerates it and fails on drift, so the reference cannot rot.

Run: ``python tools/gen_api_docs.py [--check]``
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import pkgutil
import sys

import repro

OUTPUT = pathlib.Path(__file__).parent.parent / "docs" / "API.md"

HEADER = """# API reference

Auto-generated by `python tools/gen_api_docs.py` — do not edit by hand
(the test suite checks it is in sync). One line per public symbol: the
first sentence of its docstring.
"""


def first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return "(undocumented)"
    return doc.strip().splitlines()[0].rstrip()


def iter_modules():
    prefix = repro.__name__ + "."
    yield repro.__name__
    for info in pkgutil.walk_packages(repro.__path__, prefix):
        yield info.name


def render() -> str:
    sections = [HEADER]
    for module_name in sorted(iter_modules()):
        module = importlib.import_module(module_name)
        exported = getattr(module, "__all__", None)
        if not exported:
            continue
        sections.append(f"\n## `{module_name}`\n")
        doc = first_line(module)
        sections.append(f"{doc}\n")
        for name in exported:
            # No default: a lazy package resolves the name here, and one
            # that cannot must fail the run, not drop out of the page.
            member = getattr(module, name)
            if inspect.isclass(member):
                kind, summary = "class", first_line(member)
            elif callable(member):
                kind, summary = "func", first_line(member)
            else:
                kind = "const"
                summary = f"constant ({type(member).__name__})"
            sections.append(f"- **`{name}`** ({kind}) — {summary}")
        sections.append("")
    return "\n".join(sections)


def main() -> int:
    content = render()
    if "--check" in sys.argv:
        if not OUTPUT.exists() or OUTPUT.read_text() != content:
            print("docs/API.md is out of date; regenerate it")
            return 1
        print("docs/API.md is up to date")
        return 0
    OUTPUT.parent.mkdir(exist_ok=True)
    OUTPUT.write_text(content)
    print(f"wrote {OUTPUT} ({len(content.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
