"""Symmetric Jordan bases and symmetric chain decompositions of the
subset lattice, built inductively and verified with exact arithmetic."""

__version__ = "0.1.0"
