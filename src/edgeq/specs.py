"""Domain parameter records.

All rates are per second, times in seconds, angles in radians. ``mu2`` may
be ``math.inf``, meaning the migration phase is instantaneous; every
formula then evaluates its analytic limit (``r/mu2 -> 0``). Every other
rate, time and moment is finite. Each field declares its domain with
``config.checked``, which construction applies (raising DomainError
naming the field) and from which the ``simulate`` and scenario key
tables take the casts of the keys that set it. Each rate a form or a
run divides by takes ``config.rate`` or ``config.finite_rate``, whose
reciprocal is finite, and ``QueueSpec`` refuses a ``mu_eff`` of 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .config import REQUIRED, Checked, checked, count, finite, finite_nonnegative, finite_positive, finite_rate, rate, unit
from .errors import UnstableQueue

# Utilization at or above this is treated as unstable to keep clear of the
# (1-rho)^-1 singularities.
STABILITY_GUARD = 1.0 - 1e-9


@dataclass(frozen=True)
class QueueSpec(Checked):
    """Edge queue with a mandatory service phase and an optional migration phase.

    lam:  arrival rate
    mu1:  phase-1 service rate
    mu2:  phase-2 (migration) service rate, math.inf allowed
    r:    probability an accepted request migrates after phase 1
    """

    lam: float = checked(REQUIRED, finite_rate)
    mu1: float = checked(REQUIRED, finite_rate)
    mu2: float = checked(REQUIRED, rate)
    r: float = checked(0.0, unit)

    def __post_init__(self):
        super().__post_init__()
        if self.mu_eff == 0.0:  # 1/mu1 + r/mu2 overflowed: the server would have no capacity
            raise UnstableQueue(f"the effective service rate 1/(1/mu1 + r/mu2) must be > 0, got {self.mu_eff!r}")

    @property
    def inv_mu2(self) -> float:
        """1/mu2, exactly 0.0 for the infinite-rate sentinel."""
        return 0.0 if math.isinf(self.mu2) else 1.0 / self.mu2

    @property
    def utilization(self) -> float:
        """Offered load of the source server: lam/mu1 + r*lam/mu2."""
        return self.lam / self.mu1 + self.r * self.lam * self.inv_mu2

    @property
    def mu_eff(self) -> float:
        """Single-rate equivalent of the two-phase server: (1/mu1 + r/mu2)^-1."""
        return 1.0 / (1.0 / self.mu1 + self.r * self.inv_mu2)

    def check_stable(self) -> None:
        """Raise UnstableQueue unless the source has slack; then so does the destination, as r*lam <= lam < mu1."""
        if self.utilization >= STABILITY_GUARD:
            raise UnstableQueue(
                f"source utilization {self.utilization:.6g} >= 1; "
                "lam/mu1 + r*lam/mu2 must stay below 1"
            )


@dataclass(frozen=True)
class CloudSpec(Checked):
    """Centralized pool of k identical servers at utilization rho."""

    k: int = checked(REQUIRED, count)
    mu_cloud: float = checked(REQUIRED, finite_rate)
    rho_cloud: float = checked(REQUIRED, finite_nonnegative)

    @property
    def arrival_rate(self) -> float:
        return self.rho_cloud * self.k * self.mu_cloud

    def check_stable(self) -> None:
        if self.rho_cloud >= STABILITY_GUARD:
            raise UnstableQueue(f"cloud utilization {self.rho_cloud:.6g} >= 1")


@dataclass(frozen=True)
class NetworkSpec(Checked):
    """Round-trip times to the edge and to the cloud; delta_t = t_cloud - t_edge."""

    t_edge: float = checked(0.0, finite_nonnegative)
    t_cloud: float = checked(0.0, finite_nonnegative)

    @property
    def delta_t(self) -> float:
        return self.t_cloud - self.t_edge


@dataclass(frozen=True)
class VariabilitySpec(Checked):
    """Squared coefficients of variation of inter-arrival and service times."""

    ca2: float = checked(1.0, finite_nonnegative)
    cs2: float = checked(1.0, finite_nonnegative)

    @property
    def correction(self) -> float:
        """The (ca2 + cs2)/2 variability correction factor."""
        return 0.5 * (self.ca2 + self.cs2)


@dataclass(frozen=True)
class PhaseMoments(Checked):
    """First two moments of the two service phases plus the branch probability."""

    mean1: float = checked(REQUIRED, finite_positive)
    var1: float = checked(REQUIRED, finite_nonnegative)
    mean2: float = checked(REQUIRED, finite_positive)
    var2: float = checked(REQUIRED, finite_nonnegative)
    r: float = checked(REQUIRED, unit)

    @classmethod
    def exponential(cls, mu1: float, mu2: float, r: float) -> "PhaseMoments":
        """Moments of exponential phases with rates mu1, mu2."""
        return cls(1.0 / mu1, 1.0 / mu1**2, 1.0 / mu2, 1.0 / mu2**2, r)


@dataclass(frozen=True)
class SinusoidProfile(Checked):
    """Arrival rate lam(t) = lambda_bar * (1 + amplitude * sin(gamma*t + phase))."""

    lambda_bar: float = checked(REQUIRED, finite_positive)
    amplitude: float = checked(REQUIRED, unit)
    gamma: float = checked(REQUIRED, finite_positive)
    phase: float = checked(0.0, finite)

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


@dataclass(frozen=True)
class DtrpSpec(Checked):
    """Parameters of the spatial (traveling-repairman) capacity model.

    ``gos`` is that model's grade-of-service constant and ``area`` the
    service-region area; they are distinct from the sinusoid amplitude and
    frequency despite the symbol overlap in common notation.
    """

    capacity: float = checked(REQUIRED, finite_positive)
    rho: float = checked(REQUIRED, finite_nonnegative)
    tau: float = checked(REQUIRED, finite_nonnegative)
    q: float = checked(REQUIRED, rate)  # VM packing factor; inf is a perfect packing
    area: float = checked(1.0, finite_positive)
    velocity: float = checked(1.0, finite_positive)
    gos: float = checked(1.0, finite_positive)

    def __post_init__(self):
        super().__post_init__()
        slack = self.rho + self.tau / self.capacity
        if slack >= 1.0:
            raise UnstableQueue(
                f"rho + tau/C = {slack:.6g} >= 1; finite response time requires slack"
            )
