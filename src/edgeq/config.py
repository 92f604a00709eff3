"""Key tables and casts shared by ``edgeq simulate`` configs and scenario files.

A key table maps each key of a JSON object to ``(cast, default)``, or to
``(nested table, default)`` for a nested object. A cast wrapped by
``ranged`` checks the key's domain, so a bad value fails on load, naming
the key: ``positive`` reads ``"inf"``, ``finite_positive`` and
``finite_nonnegative`` refuse it and NaN, and ``rate`` and
``finite_rate`` add to ``positive`` and ``finite_positive`` that the
reciprocal is finite, so each rate a run or a form divides by owns that
rule on its own field; numbers go through ``real``, which refuses a
boolean, switches through ``flag``, counts through ``integral`` and
free text through ``text``.

A dataclass field declared ``checked(default, cast)`` carries its domain:
``table_of`` puts its cast and default in a key table, and ``check``
casts the field when its record is built (None passes only as the
default). Each file format lives beside its dataclass,
in ``edgeq.desim`` and ``edgeq.harness``; the spec records of
``edgeq.specs`` and ``edgeq.workload`` declare the domains both formats read.
"""
from __future__ import annotations

import math
from dataclasses import field, fields
from functools import cache

from .errors import ConfigError, DomainError

REQUIRED = object()  # marks a key that has no default


def read(key: str, cast, value, error=ConfigError):
    """``cast(value)``; a value the cast rejects raises ``error`` naming ``key``."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{key}: {exc}") from None


def take(body, table: dict, where: str) -> dict:
    """The keys of ``body`` cast by ``table``, with every default filled in.

    An unknown key, a missing REQUIRED key or a value the cast rejects
    raises ConfigError naming the key. JSON null counts as absent. A
    table with ``period_s`` stores the frequency as ``gamma_rad_s`` only.
    """
    if not isinstance(body, dict):
        raise ConfigError(f"{where}: expected an object, got {body!r}")
    unknown = set(body) - set(table)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    out = {}
    for key, (cast, default) in table.items():
        value = default if body.get(key) is None else body[key]
        if value is REQUIRED:
            raise ConfigError(f"{where}: missing key {key!r}")
        if value is None:
            out[key] = None
        elif isinstance(cast, dict):
            out[key] = take(value, cast, f"{where}.{key}")
        else:
            out[key] = read(f"{where}.{key}", cast, value)
    if "period_s" in out:
        gamma, period = out["gamma_rad_s"], out.pop("period_s")
        if (gamma is None) == (period is None):
            raise ConfigError(f"{where}: give exactly one of gamma_rad_s, period_s")
        out["gamma_rad_s"] = 2.0 * math.pi / period if gamma is None else gamma
    return out


def flag(value) -> bool:
    """A JSON boolean; ``bool`` would read the string "false" as true."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def real(value) -> float:
    """A JSON number, or a numeric string such as "inf", as a float; ``float`` would read true as 1.0."""
    if isinstance(value, bool):
        raise ValueError(f"must be a number, got {value!r}")
    return float(value)


def text(value) -> str:
    """A JSON string; ``str`` would name a file "False"."""
    if not isinstance(value, str):
        raise ValueError(f"must be a string, got {value!r}")
    return value


def listed(value) -> tuple:
    """A JSON list (or the tuple default) as a tuple; ``tuple`` would split "csv" into letters."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"must be a list, got {value!r}")
    return tuple(value)


def integral(value) -> int:
    """A whole number; ``int`` would truncate 1.5 to 1 and overflow on inf."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def ranged(cast, test, domain: str):
    """``cast``, then ``test`` on the value, which fails as "must be <domain>, got <value>"."""
    def within(value):
        if test(value := cast(value)):
            return value
        raise ValueError(f"must be {domain}, got {value!r}")
    return within


positive = ranged(real, lambda x: x > 0, "> 0")  # may be infinite
finite = ranged(real, math.isfinite, "finite")
unit = ranged(real, lambda x: 0 <= x <= 1, "in [0, 1]")  # a probability or a relative amplitude
fraction = ranged(real, lambda x: 0 <= x < 1, "in [0, 1)")  # a warm-up share or a stable utilization
finite_positive = ranged(real, lambda x: 0 < x < math.inf, "finite and > 0")  # a span or a frequency
# a rate something divides by: 1/x must not overflow; ``rate`` passes inf (1/inf is 0), ``finite_rate`` refuses it first
rate = ranged(positive, lambda x: 1.0 / x < math.inf, "> 0 with a finite reciprocal")
finite_rate = ranged(finite_positive, lambda x: 1.0 / x < math.inf, "finite and > 0 with a finite reciprocal")
finite_nonnegative = ranged(real, lambda x: 0 <= x < math.inf, "finite and >= 0")
count = ranged(integral, lambda n: n >= 1, ">= 1")
whole = ranged(integral, lambda n: n >= 0, ">= 0")


def evaluated(what: str, form, cast=finite_nonnegative):
    """``form()``, a closed form's value, read by ``cast``.

    A power that overflows or a divisor that underflows to 0 reads as inf;
    a value the cast refuses raises DomainError "``what`` out of float range".
    """
    try:
        value = form()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    try:
        return cast(value)
    except ValueError:
        raise DomainError(f"{what} out of float range, got {value!r}") from None


def checked(default, cast):
    """A dataclass field that keeps ``default`` (REQUIRED for none; a dict is copied) and ``cast``."""
    meta = {"default": default, "cast": cast}
    if default is REQUIRED:
        return field(metadata=meta)
    if isinstance(default, dict):
        return field(default_factory=default.copy, metadata=meta)
    return field(default=default, metadata=meta)


@cache
def _casts(cls) -> tuple:
    """``(name, cast, whether None passes)`` of each ``checked`` field of the dataclass ``cls``."""
    return tuple((f.name, f.metadata["cast"], f.metadata["default"] is None) for f in fields(cls) if "cast" in f.metadata)


def check(obj, name=None, error=DomainError) -> None:
    """Cast each ``checked`` field of ``obj`` in place, None only if it is the default.

    A value that fails raises ``error`` naming ``name(field)``, or ``Class.field``; no name is built before that.
    """
    for key, cast, none_passes in _casts(type(obj)):
        value = getattr(obj, key)
        if value is None and none_passes:
            continue
        try:
            if value is None:
                raise ValueError("must be set, got None")
            cast_value = cast(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise error(f"{name(key) if name else type(obj).__name__ + '.' + key}: {exc}") from None
        if cast_value is not value:
            object.__setattr__(obj, key, cast_value)


class Checked:
    """Base of a frozen dataclass whose ``checked`` fields are cast on construction.

    Each field keeps its cast value (``CloudSpec(2.0, ...)`` stores k = 2);
    a value outside its field's domain raises DomainError naming
    ``Class.field``. A subclass's own ``__post_init__`` adds only the
    rules that span fields, after calling this one.
    """

    __post_init__ = check


def table_of(cls, *names, **defaults) -> dict:
    """A key table over the ``checked`` fields ``names`` of the dataclass ``cls``.

    A name is a field, or a ``(key, field)`` pair where the file key
    differs from the field; ``defaults`` maps a file key to its file
    default where that differs from the field's.
    """
    declared = {f.name: f.metadata for f in fields(cls)}
    pairs = [(name, name) if isinstance(name, str) else name for name in names]
    return {key: (declared[name]["cast"], defaults.get(key, declared[name]["default"])) for key, name in pairs}
