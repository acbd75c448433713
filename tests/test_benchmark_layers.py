"""The end-to-end benchmark's layer wrappers still name real functions.

``benchmarks/e2e/layers.py`` times each layer from outside the package
by replacing the functions listed in its ``WRAPPED`` table. A refactor
that renames or deletes one of them would only surface when someone
runs ``benchmarks/e2e/run.py --trace 1``; this test fails first.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("e2e_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves():
    missing = []
    for module_name, attribute, *_ in load_layers().WRAPPED:
        target = importlib.import_module(module_name)
        try:
            for part in attribute.split("."):
                target = getattr(target, part)
        except AttributeError:
            missing.append(f"{module_name}.{attribute}")
            continue
        if not callable(target):
            missing.append(f"{module_name}.{attribute} (not callable)")
    assert not missing, f"layers.py wraps names that no longer exist: {missing}"
