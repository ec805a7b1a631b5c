"""Shared exception types.

Split by how the CLI maps them to exit codes: domain inconsistencies
(the input data describes something impossible) versus schema/usage
problems (the input is malformed before any mathematics happens).
"""


class InconsistentDataError(Exception):
    """Intersection data contradicts itself; message names the failing formula."""


class MissingIntersectionError(LookupError):
    """A pairing was requested that the registered profiles do not determine."""


class SchemaError(ValueError):
    """Config document violates the schema (unknown keys, bad types, bad values)."""


class DegenerateArrangementError(ValueError):
    """Arrangement parameters hit an excluded degenerate configuration."""
