"""Exception hierarchy. Every message names the module that raised it."""

import math


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(PipelineError, ValueError):
    """Invalid argument or configuration value."""


class FormatError(PipelineError):
    """On-disk corpus/checkpoint data violates its declared format."""


class InsufficientDataError(PipelineError):
    """Too few samples for the requested statistic."""


class NumericalError(PipelineError):
    """A numerical routine failed (e.g. factorization after regularization)."""


class GenerationError(PipelineError):
    """Pseudo-OOD synthesis could not satisfy its constraints."""


class TrainingError(PipelineError):
    """Training diverged or violated an internal contract."""


class MetricError(PipelineError):
    """A metric is undefined for the given inputs."""


# the rules a config table may give a field; every float rule is finite,
# and a tuple of values is the rule "one of" them
RULES = {
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    ">= 2": lambda v: v >= 2,
    "even and >= 2": lambda v: v >= 2 and v % 2 == 0,
    "finite and > 0": lambda v: math.isfinite(v) and v > 0,
    "finite and >= 0": lambda v: math.isfinite(v) and v >= 0,
    "none or finite and >= 0":
        lambda v: v is None or (math.isfinite(v) and v >= 0),
    "in [0, 1)": lambda v: 0 <= v < 1,
}


def check_fields(module: str, table: dict, obj, suffix: str = "") -> None:
    """Check each ``field: rule`` row of ``table`` against ``obj``; the first
    broken one raises ``<module>: <field><suffix> must be <rule>, got <v>``."""
    for key, rule in table.items():
        value = getattr(obj, key)
        if isinstance(rule, tuple):
            ok, rule = value in rule, f"one of {rule}"
        else:
            ok = RULES[rule](value)
        if not ok:
            raise ParameterError(
                f"{module}: {key}{suffix} must be {rule}, got {value!r}")
