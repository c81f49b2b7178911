"""Package metadata for ``repro`` (sources under ``src/``).

A plain ``setup.py`` so the package builds and installs without network
access; the version is read from ``repro.__version__`` so the two cannot
drift.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    description=("Robust trajectory embedding for similarity computation "
                 "under triangle-inequality violations (LH-plugin reproduction)"),
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    python_requires=">=3.9",
)
