"""Every module imports, and every documented ``repro`` import resolves.

No command imports modules such as ``repro.trace.synthetic`` or
``repro.experiments.calibrate`` any more, and the packages re-export
nothing, so a broken import there, or a doc snippet still naming a
package-level name, would otherwise go unnoticed.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def repro_imports(nodes) -> list[ast.stmt]:
    return [
        node for node in nodes
        if (isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").split(".")[0] == "repro")
        or (isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == "repro" for a in node.names))
    ]


def documented_imports() -> list[tuple[str, ast.stmt]]:
    """``(source, statement)`` for every ``repro`` import in the docs:
    ``README.md``, the ``python`` blocks of ``docs/*.md``, and the top
    level of ``examples/*.py``."""
    found = []
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        for block in PYTHON_BLOCK.findall(path.read_text()):
            for node in repro_imports(ast.walk(ast.parse(block))):
                found.append((path.name, node))
    for path in sorted((ROOT / "examples").glob("*.py")):
        for node in repro_imports(ast.parse(path.read_text()).body):
            found.append((path.name, node))
    return found


def test_every_module_imports():
    names = [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith(".__main__")  # importing runs the CLI
    ]
    assert len(names) > 100  # the walk found the package
    for name in names:
        importlib.import_module(name)


def test_documented_imports_resolve():
    statements = documented_imports()
    assert len(statements) > 20  # the collector found the docs
    failed = []
    for source, node in statements:
        code = compile(ast.Module(body=[node], type_ignores=[]), source, "exec")
        try:
            exec(code, {})
        except ImportError as exc:
            failed.append(f"{source}: {ast.unparse(node)} ({exc})")
    assert not failed, "documented imports that do not resolve:\n" + "\n".join(failed)
