"""Setuptools metadata and the ``repro`` console entry point.

Kept as a plain ``setup.py`` (no ``pyproject.toml``) so that
``pip install -e .`` works in offline environments where the ``wheel``
package (required for PEP 660 editable wheels) is unavailable and pip falls
back to the legacy ``setup.py develop`` code path.
"""

import pathlib
import re

from setuptools import find_packages, setup

# Single source of truth: __version__ in src/repro/__init__.py (parsed, not
# imported -- importing would require networkx at build time).
_INIT = pathlib.Path(__file__).parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.M).group(1)

setup(
    name="repro-maus-peltonen-uitto-podc23",
    version=_VERSION,
    description=("Distributed symmetry breaking on power graphs via "
                 "sparsification (PODC 2023) -- simulation-grade reproduction "
                 "with a typed solver API and a content-addressed solve "
                 "service (repro serve)"),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["networkx", "numpy", "scipy"],
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
        ],
    },
)
