"""Closed-form waiting-time, capacity and trade-off formulas.

Steady-state models
    mm1_two_phase_wait, destination_wait, migration_service_time,
    mmk_qed_wait, erlang_c_wait, delta_t_bound_mmk
GI/G approximations
    service_scv, gg1_two_phase_wait, ggk_cloud_wait, delta_t_bound_ggk
Time-varying arrivals
    effective_service_rate, excess_wait_sinusoidal, overload_window,
    fluid_backlog, rush_hour_wait, AggregateProfile
Provisioning rules
    empirical_rule_capacities

All functions are pure and re-entrant; none keeps mutable state. A form
whose parameters are fields of spec records takes those records, which
checked each field once when they were built. A form with an input that
no record holds (``excess_wait_sinusoidal``'s ``rho``, a ``mu_eff``,
``empirical_rule_capacities``' site rate and count) takes bare numbers,
each read with the ``config`` cast of its domain, so NaN or a value
outside that domain raises DomainError naming the argument.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import takewhile
from typing import Optional, Sequence

import numpy as np

from .config import count, finite_nonnegative, finite_positive, read, unit
from .errors import DomainError, UnstableQueue
from .specs import (
    STABILITY_GUARD,
    CloudSpec,
    PhaseMoments,
    QueueSpec,
    SinusoidProfile,
    VariabilitySpec,
)

# ---------------------------------------------------------------------------
# Steady-state edge and cloud models


def mm1_source_wait(spec: QueueSpec) -> float:
    """Waiting time at the source queue whose server runs both service phases.

    This is the M/M/1-with-second-optional-service result: the server is
    occupied for Exp(mu1) per request plus, with probability r, Exp(mu2)
    of migration work.
    """
    spec.check_stable()
    lam, mu1, inv2 = spec.lam, spec.mu1, spec.inv_mu2
    num = lam * (1.0 / mu1**2 + spec.r * inv2**2 + spec.r * inv2 / mu1)
    return num / (1.0 - lam / mu1 - spec.r * lam * inv2)


def destination_wait(spec: QueueSpec) -> float:
    """Queueing delay a migrated request sees at its destination site.

    The destination is an ordinary edge site: an M/M/1 serving at mu1,
    fed only by the migrated stream (rate r*lam, no re-migration), so
    the wait is r*lam / (mu1 * (mu1 - r*lam)). Writing mu2 here instead
    of mu1 is a common slip; mu2 is the migration-transfer rate, not the
    destination's processing rate.
    """
    lam, mu1, r = spec.lam, spec.mu1, spec.r
    if r * lam >= mu1 * STABILITY_GUARD:
        raise UnstableQueue(f"destination load r*lam = {r * lam:.6g} >= mu1 = {mu1:.6g}")
    return r * lam / (mu1 * (mu1 - r * lam))


def mm1_two_phase_wait(spec: QueueSpec) -> float:
    """Total expected edge waiting time: source queue plus destination queue.

    The destination term is the per-migrant queueing delay; the total is
    the waiting a request accumulates along its path through the system.
    """
    return mm1_source_wait(spec) + destination_wait(spec)


def migration_service_time(spec: QueueSpec) -> float:
    """Expected migration work per request, averaged over all requests: r/mu2."""
    return 0.0 if math.isinf(spec.mu2) else spec.r / spec.mu2


def mmk_qed_wait(cloud: CloudSpec) -> float:
    """Heavy-traffic conditional wait of a k-server pool: 1/(mu*(1-rho)*sqrt(k)).

    This is the conditional expectation given that the request waits at
    all, so it upper-bounds the unconditional wait and yields a
    conservative trade-off threshold. For k = 1 it coincides with the
    exact M/M/1 conditional wait; compare erlang_c_wait for the exact
    unconditional value.
    """
    cloud.check_stable()
    return 1.0 / (cloud.mu_cloud * (1.0 - cloud.rho_cloud) * math.sqrt(cloud.k))


def erlang_c_delay_probability(cloud: CloudSpec) -> float:
    """Exact M/M/k probability that an arriving request must wait."""
    cloud.check_stable()
    k, rho = cloud.k, cloud.rho_cloud
    if rho == 0.0:
        return 0.0
    a = k * rho  # offered load in Erlangs
    log_a = math.log(a)
    # sum a^n/n! for n<k, plus the boosted k-th term, in log space for big k. The log-terms
    # are unimodal in n with their peak at floor(a); a term more than 800 below the peak
    # adds exactly 0.0 (exp underflows below -745), so only the terms around it are summed
    peak = min(int(a), k - 1)
    floor = peak * log_a - math.lgamma(peak + 1) - 800.0

    def walk(ns):
        """The log-terms along ``ns`` up to the first below the floor."""
        return list(takewhile(floor.__le__, (n * log_a - math.lgamma(n + 1) for n in ns)))

    window = walk(range(peak, -1, -1))[::-1] + walk(range(peak + 1, k))
    log_top = k * log_a - math.lgamma(k + 1) - math.log(1.0 - rho)
    m = max(max(window), log_top)
    denom = sum(math.exp(t - m) for t in window) + math.exp(log_top - m)
    return math.exp(log_top - m) / denom


def erlang_c_wait(cloud: CloudSpec) -> float:
    """Exact unconditional M/M/k mean wait: P(wait) / (k*mu*(1-rho))."""
    pw = erlang_c_delay_probability(cloud)
    return pw / (cloud.k * cloud.mu_cloud * (1.0 - cloud.rho_cloud))


def delta_t_bound_mmk(edge: QueueSpec, cloud: CloudSpec) -> float:
    """RTT-difference threshold above which the edge wins (Markovian models).

    The edge offers the lower response time whenever
    t_cloud - t_edge > w_edge + s_migration - w_cloud.
    """
    return (
        mm1_two_phase_wait(edge)
        + migration_service_time(edge)
        - mmk_qed_wait(cloud)
    )


# ---------------------------------------------------------------------------
# GI/G approximations (Allen-Cunneen style corrections)


def service_scv(m: PhaseMoments) -> float:
    """Squared CoV of the total two-phase service time.

    With S = v1 plus (with probability r) an independent v2, the law of
    total variance gives
        (var1 + r*var2 + r*(1-r)*mean2^2) / (mean1 + r*mean2)^2.
    """
    mean = m.mean1 + m.r * m.mean2
    var = m.var1 + m.r * m.var2 + m.r * (1.0 - m.r) * m.mean2**2
    return var / mean**2


def gg1_two_phase_wait(spec: QueueSpec, var: VariabilitySpec) -> float:
    """Edge waiting time with general inter-arrival and service variability.

    Scales the Markovian two-phase wait (source bracket plus destination
    term) by (ca2 + cs2)/2, assuming the variability is similar on source
    and destination sites. ca2 = cs2 = 1 recovers mm1_two_phase_wait.
    """
    return mm1_two_phase_wait(spec) * var.correction


def ggk_cloud_wait(cloud: CloudSpec, var: VariabilitySpec) -> float:
    """Approximate GI/G/k cloud wait: P_w/(mu*(1-rho)) * (ca2+cs2)/(2k).

    The probability of waiting P_w is (rho^k + rho)/2 in heavy traffic
    (rho >= 0.7) and rho^((k+1)/2) below; the boundary itself takes the
    heavy-traffic branch.
    """
    cloud.check_stable()
    k, rho = cloud.k, cloud.rho_cloud
    pw = 0.5 * (rho**k + rho) if rho >= 0.7 else rho ** ((k + 1) / 2.0)
    return pw / (cloud.mu_cloud * (1.0 - rho)) * (var.ca2 + var.cs2) / (2.0 * k)


def delta_t_bound_ggk(
    edge: QueueSpec,
    edge_var: VariabilitySpec,
    cloud: CloudSpec,
    cloud_var: VariabilitySpec,
) -> float:
    """RTT-difference threshold for the edge to win under general variability."""
    return (
        gg1_two_phase_wait(edge, edge_var)
        + migration_service_time(edge)
        - ggk_cloud_wait(cloud, cloud_var)
    )


# ---------------------------------------------------------------------------
# Time-varying (sinusoidal) arrivals


def effective_service_rate(spec: QueueSpec) -> float:
    """Single-rate equivalent of the two-phase server: (1/mu1 + r/mu2)^-1."""
    return 1.0 / (1.0 / spec.mu1 + spec.r * spec.inv_mu2)


def excess_wait_sinusoidal(rho: float, amplitude: float, gamma: float, mu_eff: float) -> float:
    """Second-order extra wait caused by a sinusoidal load swing.

    rho^2 A^2 / (2 mu_eff (1-rho)^3 (1 + (gamma/mu_eff)^2)). Only the
    quadratic term of the expansion, so it under-reads the simulated
    excess, increasingly so once the instantaneous rate nears capacity.
    """
    rho = read("rho", finite_nonnegative, rho, DomainError)
    amplitude = read("amplitude", unit, amplitude, DomainError)
    gamma = read("gamma", finite_positive, gamma, DomainError)
    mu_eff = read("mu_eff", finite_positive, mu_eff, DomainError)
    if rho >= STABILITY_GUARD:
        raise UnstableQueue(f"rho = {rho:.6g} must lie in [0, 1)")
    beta = gamma / mu_eff
    return rho**2 * amplitude**2 / (2.0 * mu_eff * (1.0 - rho) ** 3 * (1.0 + beta**2))


@dataclass(frozen=True)
class OverloadWindow:
    """Portion of one cycle where the arrival rate exceeds service capacity."""

    t1: float
    t2: float
    theta: float

    @property
    def duration(self) -> float:
        return self.t2 - self.t1


def overload_window(profile: SinusoidProfile, mu_eff: float) -> Optional[OverloadWindow]:
    """Overload window of one cycle, or None when the peak rate fits.

    theta = arcsin(mu_eff/lambda_bar - 1); t1 = theta/gamma and
    t2 = (pi-theta)/gamma, shifted by -phase/gamma into the first cycle.
    The tangent case (peak rate exactly mu_eff) is treated as no overload.
    For mu_eff < lambda_bar the arcsin argument goes negative and the
    window extends past the half-cycle; that analytic extension is
    provided but should be considered experimental.
    """
    mu_eff = read("mu_eff", finite_positive, mu_eff, DomainError)
    if profile.peak_rate <= mu_eff:
        return None
    # 0 < mu_eff < peak_rate <= 2 * lambda_bar puts the argument in (-1, 1)
    theta = math.asin(mu_eff / profile.lambda_bar - 1.0)
    period = profile.period
    t1 = ((theta - profile.phase) / profile.gamma) % period
    t2 = ((math.pi - theta - profile.phase) / profile.gamma) % period
    if t2 <= t1:  # the ends fold together only at theta = -pi/2: overloaded all cycle
        t2 += period
    return OverloadWindow(t1, t2, theta)


def fluid_backlog(profile: SinusoidProfile, mu_eff: float) -> float:
    """Net fluid input over the overload window, in jobs.

    (1/gamma) * [(lambda_bar - mu_eff)*(pi - 2*theta)
                 + 2*lambda_bar*A*cos(theta)], i.e. the integral of
    lam(t) - mu_eff across [t1, t2]. Returns 0.0 when no window exists.
    Near the overload threshold the signed net input can be slightly
    negative because the window brackets some sub-capacity time.
    """
    win = overload_window(profile, mu_eff)
    if win is None:
        return 0.0
    lb, a = profile.lambda_bar, profile.amplitude
    return (
        (lb - mu_eff) * (math.pi - 2.0 * win.theta)
        + 2.0 * lb * a * math.cos(win.theta)
    ) / profile.gamma


def rush_hour_wait(profile: SinusoidProfile, mu_eff: float) -> float:
    """Time to drain the rush-hour backlog: max(fluid_backlog, 0) / mu_eff.

    Estimates the wait faced at the end of the overload window, a lower
    bound on the simulated peak congestion; 0 when there is no overload.
    """
    return max(fluid_backlog(profile, mu_eff), 0.0) / mu_eff


class AggregateProfile:
    """Aggregate arrival profile a cloud sees from sinusoidal edge sites of one frequency."""

    def __init__(self, sites: Sequence[SinusoidProfile]):
        self.sites = tuple(sites)
        if not self.sites:
            raise DomainError("site list must be non-empty")
        gammas = {p.gamma for p in self.sites}
        if len(gammas) > 1:
            raise DomainError(f"sites must share one gamma, got {sorted(gammas)}")
        self.mean = sum(p.lambda_bar for p in self.sites)

    def rate(self, t):
        """Aggregate arrival rate; accepts scalar or array t."""
        t = np.asarray(t, dtype=float)
        total = np.zeros_like(t)
        for p in self.sites:
            total = total + p.rate(t)
        return total if total.ndim else float(total)

    def relative_amplitude(self) -> float:
        """Empirical (max - mean)/mean of the aggregate, sampled 4096 times over its period."""
        rates = self.rate(np.linspace(0.0, self.sites[0].period, 4096, endpoint=False))
        mean = float(np.mean(rates))
        return (float(np.max(rates)) - mean) / mean


# ---------------------------------------------------------------------------
# Provisioning rules


def empirical_rule_capacities(lambda_site: float, k: int) -> tuple[float, float]:
    """Two-sigma peak capacities: C_edge = k*(lam + 2*sqrt(lam)),
    C_cloud = k*lam + 2*sqrt(k*lam).

    Pooling k independent Poisson sites shrinks the fluctuation term, so
    C_cloud < C_edge for every k >= 2 and they agree at k = 1.
    """
    lambda_site = read("lambda_site", finite_positive, lambda_site, DomainError)
    k = read("k", count, k, DomainError)
    c_edge = k * (lambda_site + 2.0 * math.sqrt(lambda_site))
    c_cloud = k * lambda_site + 2.0 * math.sqrt(k * lambda_site)
    return c_edge, c_cloud
