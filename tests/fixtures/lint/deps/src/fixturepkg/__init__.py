"""Fixture package: seeded undeclared third-party imports."""
