"""Exception types shared across the toolkit.

The CLI maps them to exit codes: usage 1, data/contract 2, numeric 3;
it maps MemoryError to 4.
"""


class UsageError(Exception):
    """Bad command-line usage."""


class DataError(Exception):
    """Invalid, inconsistent or contract-violating input data."""


class NumericError(Exception):
    """Numeric failure (non-finite values, degenerate normalization)."""
