"""Shared exception types for capacity and truncation bookkeeping."""


class CapacityError(RuntimeError):
    """A computation would exceed a configured desk-scale capacity bound."""


class WindowError(RuntimeError):
    """A truncation window is too small to certify the requested result."""
