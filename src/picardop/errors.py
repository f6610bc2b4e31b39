"""Shared exception types and the config-field reader."""

import math
import numbers


class NonFiniteError(ValueError):
    """A value that must be finite contains NaN or Inf."""


class DivergenceError(RuntimeError):
    """An iteration produced non-finite values or runaway step norms.

    Carries the partial ``trace`` accumulated before the failure, when one exists.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class ConfigError(ValueError):
    """Invalid run configuration; ``field`` names the offending entry."""

    def __init__(self, field, message):
        super().__init__(f"config error at '{field}': {message}")
        self.field = field


def integer(value) -> int:
    """``value`` as an int: ints and integral floats pass, booleans and anything else raise."""
    if isinstance(value, (int, numbers.Integral)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"not an integer: {value!r}")


def number(value) -> float:
    """``value`` as a float: ints and floats pass, booleans, strings and anything else raise."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"not a number: {value!r}")


REQUIRED = object()  # the default of a field that must be present


def config_value(cfg: dict, path: str, need: str, valid=None, cast=number, default=REQUIRED):
    """The field at dotted ``path`` of ``cfg``, converted by ``cast`` and checked by ``valid``.

    A missing (or null) section or field gives ``default``, unchecked. Every
    other failure is a ConfigError: a section that is not an object names the
    section; a missing required field, a failed cast, a non-finite number or a
    value that ``valid`` rejects names ``path`` and says it must be ``need``.
    The default ``cast=number`` refuses booleans and strings; ``cast=None`` keeps
    the JSON value as it is; integer fields use ``cast=integer``.
    """
    node, parts = cfg, path.split(".")
    for depth, key in enumerate(parts):
        if not isinstance(node, dict):
            raise ConfigError(".".join(parts[:depth]), f"must be an object, got {node!r}")
        node = node.get(key)
        if node is None:
            if default is REQUIRED:
                raise ConfigError(path, f"missing required field; must be {need}")
            return default
    try:
        value = node if cast is None else cast(node)
        ok = ((not isinstance(value, float) or math.isfinite(value))
              and (valid is None or valid(value)))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ConfigError(path, f"must be {need}, got {node!r}")
    return value
