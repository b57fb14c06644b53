"""Setuptools shim.

The execution environment has no network access and an older setuptools
without the ``bdist_wheel``-based editable-install path, so a classic
``setup.py`` is provided to make ``pip install -e . --no-build-isolation
--no-use-pep517`` work offline.  This file is the package's only metadata;
there is no ``pyproject.toml``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of DEFT: Exploiting Gradient Norm Difference between "
        "Model Layers for Scalable Gradient Sparsification (ICPP 2023)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
