"""Domain parameter records.

All rates are per second, times in seconds, angles in radians. ``mu2`` may
be ``math.inf``, meaning the migration phase is instantaneous; every
formula then evaluates its analytic limit (``r/mu2 -> 0``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError, UnstableQueue

# Utilization at or above this is treated as unstable to keep clear of the
# (1-rho)^-1 singularities.
STABILITY_GUARD = 1.0 - 1e-9


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


@dataclass(frozen=True)
class QueueSpec:
    """Edge queue with a mandatory service phase and an optional migration phase.

    lam:  arrival rate
    mu1:  phase-1 service rate
    mu2:  phase-2 (migration) service rate, math.inf allowed
    r:    probability an accepted request migrates after phase 1
    """

    lam: float
    mu1: float
    mu2: float
    r: float = 0.0

    def __post_init__(self):
        _require(self.lam > 0, "arrival rate must be positive")
        _require(self.mu1 > 0, "mu1 must be positive")
        _require(self.mu2 > 0, "mu2 must be positive (math.inf allowed)")
        _require(0.0 <= self.r <= 1.0, "migration probability must lie in [0, 1]")

    @property
    def inv_mu2(self) -> float:
        """1/mu2, exactly 0.0 for the infinite-rate sentinel."""
        return 0.0 if math.isinf(self.mu2) else 1.0 / self.mu2

    @property
    def utilization(self) -> float:
        """Offered load of the source server: lam/mu1 + r*lam/mu2."""
        return self.lam / self.mu1 + self.r * self.lam * self.inv_mu2

    def check_stable(self) -> None:
        """Raise UnstableQueue unless both source and destination have slack."""
        if self.utilization >= STABILITY_GUARD:
            raise UnstableQueue(
                f"source utilization {self.utilization:.6g} >= 1; "
                "lam/mu1 + r*lam/mu2 must stay below 1"
            )
        if self.r * self.lam >= self.mu1 * STABILITY_GUARD:
            raise UnstableQueue(
                f"destination load r*lam = {self.r * self.lam:.6g} >= mu1 = {self.mu1:.6g}"
            )


@dataclass(frozen=True)
class CloudSpec:
    """Centralized pool of k identical servers at utilization rho."""

    k: int
    mu_cloud: float
    rho_cloud: float

    def __post_init__(self):
        _require(self.k >= 1 and int(self.k) == self.k, "server count k must be an integer >= 1")
        _require(self.mu_cloud > 0, "mu_cloud must be positive")
        _require(0.0 <= self.rho_cloud, "rho_cloud must be non-negative")

    @property
    def arrival_rate(self) -> float:
        return self.rho_cloud * self.k * self.mu_cloud

    def check_stable(self) -> None:
        if self.rho_cloud >= STABILITY_GUARD:
            raise UnstableQueue(f"cloud utilization {self.rho_cloud:.6g} >= 1")


@dataclass(frozen=True)
class NetworkSpec:
    """Round-trip times to the edge and to the cloud; delta_t = t_cloud - t_edge."""

    t_edge: float = 0.0
    t_cloud: float = 0.0

    def __post_init__(self):
        _require(self.t_edge >= 0 and self.t_cloud >= 0, "round-trip times must be non-negative")

    @property
    def delta_t(self) -> float:
        return self.t_cloud - self.t_edge


@dataclass(frozen=True)
class VariabilitySpec:
    """Squared coefficients of variation of inter-arrival and service times."""

    ca2: float = 1.0
    cs2: float = 1.0

    def __post_init__(self):
        _require(
            math.isfinite(self.ca2) and math.isfinite(self.cs2)
            and self.ca2 >= 0 and self.cs2 >= 0,
            "squared CoVs must be finite and non-negative",
        )

    @property
    def correction(self) -> float:
        """The (ca2 + cs2)/2 variability correction factor."""
        return 0.5 * (self.ca2 + self.cs2)


@dataclass(frozen=True)
class PhaseMoments:
    """First two moments of the two service phases plus the branch probability."""

    mean1: float
    var1: float
    mean2: float
    var2: float
    r: float

    def __post_init__(self):
        _require(self.mean1 > 0 and self.mean2 > 0, "phase means must be positive")
        _require(self.var1 >= 0 and self.var2 >= 0, "phase variances must be non-negative")
        _require(0.0 <= self.r <= 1.0, "r must lie in [0, 1]")

    @classmethod
    def exponential(cls, mu1: float, mu2: float, r: float) -> "PhaseMoments":
        """Moments of exponential phases with rates mu1, mu2."""
        return cls(1.0 / mu1, 1.0 / mu1**2, 1.0 / mu2, 1.0 / mu2**2, r)


@dataclass(frozen=True)
class SinusoidProfile:
    """Arrival rate lam(t) = lambda_bar * (1 + amplitude * sin(gamma*t + phase))."""

    lambda_bar: float
    amplitude: float
    gamma: float
    phase: float = 0.0

    def __post_init__(self):
        _require(self.lambda_bar > 0, "mean rate must be positive")
        _require(0.0 <= self.amplitude <= 1.0, "relative amplitude must lie in [0, 1]")
        _require(self.gamma > 0, "angular frequency must be positive")

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.gamma

    @property
    def peak_rate(self) -> float:
        return self.lambda_bar * (1.0 + self.amplitude)

    def rate(self, t):
        """Instantaneous rate; accepts scalars or numpy arrays."""
        import numpy as np

        return self.lambda_bar * (1.0 + self.amplitude * np.sin(self.gamma * t + self.phase))

    def scaled(self, c: float) -> "SinusoidProfile":
        """Profile with mean rate multiplied by c (amplitude, frequency kept)."""
        return SinusoidProfile(c * self.lambda_bar, self.amplitude, self.gamma, self.phase)


@dataclass(frozen=True)
class DtrpSpec:
    """Parameters of the spatial (traveling-repairman) capacity model.

    ``gos`` is that model's grade-of-service constant and ``area`` the
    service-region area; they are distinct from the sinusoid amplitude and
    frequency despite the symbol overlap in common notation.
    """

    capacity: float
    rho: float
    tau: float
    q: float
    area: float = 1.0
    velocity: float = 1.0
    gos: float = 1.0

    def __post_init__(self):
        _require(self.capacity > 0, "capacity must be positive")
        _require(self.q > 0, "packing factor q must be positive")
        _require(self.tau >= 0, "upload time tau must be non-negative")
        _require(self.area > 0 and self.velocity > 0 and self.gos > 0,
                 "area, velocity and gos must be positive")
        slack = self.rho + self.tau / self.capacity
        _require(0.0 <= self.rho, "rho must be non-negative")
        if slack >= 1.0:
            raise UnstableQueue(
                f"rho + tau/C = {slack:.6g} >= 1; finite response time requires slack"
            )
