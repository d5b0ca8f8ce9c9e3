"""Every hard dependency declared in pyproject.toml must be installed, so a
dependency that cannot be installed is not declared."""

import importlib.metadata
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_dependencies() -> list[str]:
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]["dependencies"]


@pytest.mark.parametrize("requirement", declared_dependencies())
def test_declared_dependency_is_installed(requirement):
    name = re.match(r"[A-Za-z0-9._-]+", requirement).group(0)
    importlib.metadata.version(name)  # raises PackageNotFoundError if missing
