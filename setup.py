"""Setuptools entry point: the ``repro`` package lives under ``src/``.

``pip install -e .`` works offline with this file alone (legacy editable
installs do not need the ``wheel`` package); the runtime dependencies are
listed in ``requirements.txt``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
)
