"""Fixture project for the undeclared-dependency rule (never executed)."""

from setuptools import setup

setup(
    name="fixturepkg",
    package_dir={"": "src"},
    install_requires=["numpy>=1.24", "SciPy"],
)
