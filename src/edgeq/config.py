"""One config loader for ``edgeq simulate`` configs and scenario files.

A key table maps each key of a JSON object to ``(cast, default)``, or to
``(nested table, default)`` for a nested object. Rates go through
``float``, which reads ``"inf"``; periods, horizons and frequencies go
through ``finite_positive``, which refuses it; switches go through
``flag``, counts through ``integral``, and a cast wrapped by ``ranged``
checks the key's domain, so a bad value fails on load, naming the key.
Defaults that a dataclass carries are read from its fields, so each is
written once.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, fields

from .desim import SimConfig
from .errors import ConfigError
from .specs import CloudSpec, NetworkSpec, QueueSpec, SinusoidProfile
from .workload import RenewalSpec

REQUIRED = object()  # marks a key that has no default


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
            try:
                out[key] = cast(value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{where}.{key}: {exc}") from None
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
    def checked(value):
        if test(value := cast(value)):
            return value
        raise ValueError(f"must be {domain}, got {value!r}")
    return checked


positive = ranged(float, lambda x: x > 0, "> 0")  # a rate: "inf" is allowed
finite_positive = ranged(float, lambda x: 0 < x < math.inf, "finite and > 0")  # a span or a frequency
count = ranged(integral, lambda n: n >= 1, ">= 1")


def table_of(cls, **casts) -> dict:
    """A key table over fields of the dataclass ``cls``, with the defaults they carry."""
    defaults = {
        f.name: f.default if f.default is not MISSING
        else f.default_factory() if f.default_factory is not MISSING
        else REQUIRED
        for f in fields(cls)
    }
    return {key: (cast, defaults[key]) for key, cast in casts.items()}


# ---------------------------------------------------------------------------
# ``edgeq simulate`` config sections

_PROFILE = {
    "lambda_bar": (float, REQUIRED), "amplitude": (float, REQUIRED),
    "gamma_rad_s": (finite_positive, None), "period_s": (finite_positive, None), "phase": (float, 0.0),
}
_RENEWAL = table_of(RenewalSpec, mean=float, scv=float, family=str)


_CONFIG = {
    "model": (str, REQUIRED),
    "edge": ({"lambda": (float, REQUIRED), "mu1": (float, REQUIRED), "mu2": (float, REQUIRED),
              "r": (float, 0.0)}, None),
    "cloud": ({"k": (integral, REQUIRED), "mu": (float, REQUIRED), "rho": (float, REQUIRED)}, None),
    "network": ({"t_edge_s": (float, 0.0), "t_cloud_s": (float, 0.0)}, None),
    "workload": ({"profile": (_PROFILE, None), "arrivals": (_RENEWAL, None),
                  "service1": (_RENEWAL, None), "service2": (_RENEWAL, None)}, {}),
    "simulation": ({
        **table_of(
            SimConfig, horizon_requests=integral,
            horizon_s=ranged(float, lambda x: 0 <= x < math.inf, "finite and >= 0"),
            warmup=float, bins_per_period=integral, rush_stat=str, two_stage_service=flag,
            dest_rate=float, dest_home_load=float, allow_unstable=flag, max_in_system=integral, event_log=str,
        ),
        "seed": (integral, None),
        "reps": (count, 1),
    }, {}),
    "output": ({"dir": (str, "."), "deterministic_names": (flag, False), "name": (str, None)}, {}),
}


def load_sim_config(raw) -> tuple[SimConfig, dict]:
    """Check a ``simulate`` config; returns (SimConfig, resolved config).

    The resolved config lists every value the run uses, defaults
    included; loading it again gives the same pair.
    """
    cfg = take(raw, _CONFIG, "config")
    edge, cloud, net, wl = cfg["edge"], cfg["cloud"], cfg["network"], cfg["workload"]
    profile = wl["profile"]
    config = SimConfig(
        model=cfg["model"],
        queue=edge and QueueSpec(edge["lambda"], edge["mu1"], edge["mu2"], edge["r"]),
        cloud=cloud and CloudSpec(cloud["k"], cloud["mu"], cloud["rho"]),
        network=net and NetworkSpec(net["t_edge_s"], net["t_cloud_s"]),
        profile=profile and SinusoidProfile(
            profile["lambda_bar"], profile["amplitude"], profile["gamma_rad_s"], profile["phase"]
        ),
        **{key: wl[key] and RenewalSpec(**wl[key]) for key in ("arrivals", "service1", "service2")},
        **{key: value for key, value in cfg["simulation"].items() if key not in ("seed", "reps")},
    )
    config.validate()
    return config, cfg
