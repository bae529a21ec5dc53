"""Load the `autoft` package of another checkout beside this one's.

The before/after scripts of `bench/` run both checkouts in one process; each
side's package is imported under its own name, so the two can coexist.
"""
from __future__ import annotations

import argparse
import importlib
import importlib.util
import sys
from pathlib import Path


def load(src: Path, alias: str, modules: tuple[str, ...]) -> argparse.Namespace:
    """The `autoft` package under `src`, imported as `alias`, with `modules` as attributes."""
    pkg = src / "autoft"
    spec = importlib.util.spec_from_file_location(alias, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return argparse.Namespace(**{m: importlib.import_module(f"{alias}.{m}") for m in modules})
