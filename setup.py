"""Package metadata and legacy setup shim.

This file is the package's only build metadata; there is no
``pyproject.toml``.  Without the ``wheel`` package (e.g. an offline
environment), ``pip install -e .`` cannot build an editable wheel; the
legacy ``python setup.py develop`` path needs only setuptools.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.23"],
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
)
