"""Temporal-logic preference engine for smart parking spaces."""

__version__ = "0.1.0"
