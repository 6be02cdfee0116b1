"""The metric catalogue in ``docs/observability.md`` lists every family
the program registers, and nothing else."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import repro
from repro.obs import REGISTRY

CATALOGUE = (
    Path(__file__).resolve().parents[2] / "docs" / "observability.md"
)


def _catalogued() -> set[str]:
    names: set[str] = set()
    for line in CATALOGUE.read_text(encoding="utf-8").splitlines():
        if line.startswith("| `repro_"):
            names.update(re.findall(r"repro_[a-z0-9_]+", line.split("|")[1]))
    return names


def test_catalogue_equals_registry():
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if module.name.endswith("__main__"):
            continue
        importlib.import_module(module.name)
    registered = {family.name for family in REGISTRY}
    catalogued = _catalogued()
    assert sorted(registered - catalogued) == [], "registered, not documented"
    assert sorted(catalogued - registered) == [], "documented, not registered"
