"""Seeded arrival- and service-process samplers.

This module is the only sampling layer of the queue simulators: they
draw every arrival process, service law and migration mark through
these samplers:

* ``renewal_times`` -- iid draws of a renewal law at a given mean;
* ``renewal_arrivals`` -- renewal arrival instants over a horizon;
* ``poisson_arrivals`` -- Poisson arrival instants over a horizon;
* ``nhpp_sinusoidal`` -- sinusoidal NHPP arrival instants, by thinning;
* ``exponential_fill`` -- exponential draws into a reused buffer;
* ``coin_flips`` -- Bernoulli marks, such as which requests migrate;
* ``phase_shifted_sites`` -- site profiles with drawn phases.

The VM sizes, site hints and uniform site draws of ``edgeq.capacity``
are categorical marks of the packing model and are drawn there; its
lifetimes and arrivals come from the samplers above. A renewal
law is a shape only; its sampler takes the mean, so the rate of every
simulated station comes from its queue spec. Each sampler
takes a ``np.random.Generator`` and draws from it in a fixed order, so a
run builds one generator and threads it through every sampler it calls.
``SeededStream`` appears only where a run starts (``desim.run_model``,
``replicate``, the harness, the CLI and the capacity trace and packing
entry points). A stream is a seed and a spawn-key tuple; its generator
is numpy's SFC64 seeded from ``SeedSequence(seed, spawn_key=key)``, so
distinct keys give independent streams and identical (seed, key) pairs
reproduce identical draws bit for bit within one stream-format version
(see ``edgeq.__version__``). ``child`` appends to the key: the harness
keys a run by (grid point, model, replication).
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import Checked, checked, count, finite_nonnegative, finite_positive, ranged, read, unit, whole
from .errors import DomainError, UnreachableScv
from .specs import SinusoidProfile

RENEWAL_FAMILIES = ("exponential", "hyperexponential2", "erlang", "deterministic", "lognormal")


@dataclass(frozen=True)
class SeededStream:
    """One independent random stream: a seed and a spawn-key tuple (an int key is its 1-tuple)."""

    seed: int
    key: tuple[int, ...] = ()

    def __post_init__(self):
        key = (self.key,) if isinstance(self.key, numbers.Integral) else self.key
        object.__setattr__(self, "key", tuple(int(part) for part in key))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=self.key)
        return np.random.Generator(np.random.SFC64(ss))

    def child(self, *parts: int) -> "SeededStream":
        """The stream whose key is this key with ``parts`` appended; used for replications."""
        return SeededStream(self.seed, self.key + parts)


@dataclass(frozen=True)
class RenewalSpec(Checked):
    """The shape of an inter-arrival or service law, a target squared CoV; its sampler takes the mean."""

    scv: float = checked(1.0, finite_nonnegative)
    family: str = checked("exponential", ranged(str, RENEWAL_FAMILIES.__contains__, f"one of {RENEWAL_FAMILIES}"))

    def __post_init__(self):
        super().__post_init__()
        if self.family == "exponential" and abs(self.scv - 1.0) > 1e-9:
            raise UnreachableScv("exponential fixes scv = 1")
        if self.family == "deterministic" and self.scv > 1e-9:
            raise UnreachableScv("deterministic fixes scv = 0")
        if self.family == "hyperexponential2" and self.scv <= 1.0:
            raise UnreachableScv("hyperexponential2 requires scv > 1")
        if self.family == "lognormal" and self.scv <= 0.0:
            raise UnreachableScv("lognormal requires scv > 0")
        if self.family == "erlang":
            if self.scv <= 0 or self.scv > 1.0:
                raise UnreachableScv("erlang requires scv in (0, 1] (scv = 1/n)")

    @property
    def erlang_stages(self) -> int:
        return max(1, round(1.0 / self.scv))

    @property
    def effective_scv(self) -> float:
        """The scv actually realized (erlang snaps to the nearest 1/n)."""
        if self.family == "deterministic":
            return 0.0
        if self.family == "erlang":
            return 1.0 / self.erlang_stages
        return 1.0 if self.family == "exponential" else self.scv

    def hyper2_params(self, mean: float) -> tuple[float, float, float]:
        """Balanced-means fit at ``mean``: branch probability p and the two branch rates."""
        c2 = self.scv
        p = 0.5 * (1.0 + math.sqrt((c2 - 1.0) / (c2 + 1.0)))
        return p, 2.0 * p / mean, 2.0 * (1.0 - p) / mean


def renewal_times(law: RenewalSpec, mean: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` iid samples with mean `mean` and the law's squared CoV."""
    mean = read("mean", finite_positive, mean, DomainError)
    count = read("count", whole, count, DomainError)
    if law.family == "exponential":
        return rng.exponential(mean, count)
    if law.family == "deterministic":
        return np.full(count, mean)
    if law.family == "hyperexponential2":
        p, r1, r2 = law.hyper2_params(mean)
        branch = rng.uniform(size=count) < p
        return np.where(branch, rng.exponential(1.0 / r1, count), rng.exponential(1.0 / r2, count))
    if law.family == "erlang":
        n = law.erlang_stages
        if abs(1.0 / n - law.scv) > 1e-9:
            warnings.warn(
                f"erlang cannot hit scv = {law.scv:.6g}; using n = {n} stages (scv = {1.0 / n:.6g})",
                stacklevel=2,
            )
        return rng.gamma(n, mean / n, count)
    # lognormal: sigma^2 = ln(1 + c^2), mu = ln(mean) - sigma^2/2
    sigma2 = math.log1p(law.scv)
    return rng.lognormal(math.log(mean) - 0.5 * sigma2, math.sqrt(sigma2), count)


def _poisson_candidates(lam: float, horizon: float, rng: np.random.Generator) -> np.ndarray:
    """Poisson points on [0, horizon), unsorted: a Poisson count, then that many uniforms."""
    lam = read("lam", finite_positive, lam, DomainError)
    horizon = read("horizon", finite_nonnegative, horizon, DomainError)
    if horizon == 0:
        return np.empty(0)
    t = rng.random(rng.poisson(lam * horizon))
    t *= horizon  # the bits of rng.uniform(0.0, horizon, n), scaled in place
    return t


def poisson_arrivals(lam: float, horizon: float, rng: np.random.Generator) -> np.ndarray:
    """Poisson arrival instants on [0, horizon), sorted ascending."""
    t = _poisson_candidates(lam, horizon, rng)
    t.sort()
    return t


def renewal_arrivals(law: RenewalSpec, mean: float, horizon: float, rng: np.random.Generator) -> np.ndarray:
    """Renewal arrival instants of ``law`` at mean gap ``mean`` on [0, horizon), ascending.

    The gaps are drawn in chunks of about 1.2 horizons' worth (at least
    1024) until the running sum passes the horizon; the instants at or
    past it are cut off.
    """
    mean = read("mean", finite_positive, mean, DomainError)
    horizon = read("horizon", finite_nonnegative, horizon, DomainError)
    out = []
    total = 0.0
    chunk = max(1024, int(horizon / mean * 1.2))
    while total < horizon:
        t = total + np.cumsum(renewal_times(law, mean, chunk, rng))
        out.append(t)
        total = float(t[-1])
    t = np.concatenate(out) if out else np.empty(0)
    return t[:np.searchsorted(t, horizon)]


def coin_flips(p: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` independent marks, each True with probability ``p``: ``rng.random(count) < p``."""
    p = read("p", unit, p, DomainError)
    count = read("count", whole, count, DomainError)
    return rng.random(count) < p


def exponential_fill(scale: float, rng: np.random.Generator):
    """A function that fills its float64 buffer argument with the next exponential draws of mean ``scale``.

    ``rng.standard_exponential(out=buf)`` scaled in place gives the bits
    of ``rng.exponential(scale, len(buf))`` and consumes the stream the
    same way, so consecutive fills equal one draw of them all.
    """
    scale = read("scale", finite_positive, scale, DomainError)

    def fill(out: np.ndarray) -> None:
        rng.standard_exponential(out=out)
        out *= scale

    return fill


# Elements per block wherever a run streams through arrays of its own length:
# the accept draws of ``nhpp_sinusoidal``, and in desim the walk of
# ``lindley_waits`` (with the services it draws) and the phase binning. A
# block's float64 buffers (256 KiB each) stay in L2, and no temporary grows
# with the run.
BLOCK = 32768


def nhpp_sinusoidal(profile: SinusoidProfile, horizon: float, rng: np.random.Generator) -> np.ndarray:
    """Nonhomogeneous Poisson arrivals for a sinusoidal rate, by thinning.

    Candidates are drawn at the constant envelope lambda_bar*(1+A) and
    kept with probability lam(t)/envelope, which is exact for any phase
    (Lewis and Shedler 1979). The draws are a Poisson count, then that
    many uniforms for the instants, then as many for the accept test.

    The accept uniforms are drawn one block of ``BLOCK`` at a time into
    a reused buffer (``rng.random(out=...)``), which consumes the stream
    exactly as one draw of them all would. Each block's kept candidates
    are compacted with ``np.compress``, which gives the bytes of boolean
    indexing without its per-element branch, and moved to the front of
    the candidate array, which then shrinks in place to the kept count
    and is sorted, so a run holds one array of its candidates and
    buffers of one block besides.

    Every accept decision equals ``u * peak < profile.rate(t)`` bit for
    bit, but most are settled by a float32 sine, which numpy vectorizes
    while its float64 sine calls scalar libm (about 1 against 25-30 ns
    per element on a 2-vCPU Xeon with numpy 2.4).

    - Error bound: with theta = gamma*t + phase in float64, the float32
      sine of float32(theta) is within 2**-24 * (1 + |theta|) of
      sin(theta) (measured over |theta| <= 2**23).
    - Margin: delta = 2**-18 * (1 + gamma*horizon + |phase|) bounds that
      error 64 times over on the whole horizon; the margin delta*peak
      also covers the rounding of both rate expressions. The rate rises
      with the sine, so a gap ``u * peak`` minus the float32 rate below
      -margin is a sure accept and above +margin a sure reject.
    - Fallback: the candidates in between (a share of about 2*delta) are
      decided by ``profile.rate`` itself. Where delta >= 1 the float32
      sine settles nothing and every candidate takes that exact path.
    """
    t = _poisson_candidates(profile.peak_rate, horizon, rng)
    # no view of t outlives _thin; a profiler's reference to the bound method would fail the refcheck
    t.resize(_thin(profile, horizon, t, rng), refcheck=False)
    t.sort()
    return t


def _thin(profile: SinusoidProfile, horizon: float, t: np.ndarray, rng: np.random.Generator) -> int:
    """Keep the candidates ``t`` with ``u * peak < profile.rate(t)``, in order, at the front of ``t``; their count."""
    delta = 2.0**-18 * (1.0 + profile.gamma * horizon + abs(profile.phase))
    fast = delta < 1.0
    size = min(len(t), BLOCK)
    u, accept = np.empty(size), np.empty(size, dtype=bool)
    if fast:
        margin = delta * profile.peak_rate
        slope = np.float64(-profile.lambda_bar * profile.amplitude)
        work, sine = np.empty(size), np.empty(size, np.float32)
    kept = 0
    for lo in range(0, len(t), BLOCK):
        tb = t[lo:lo + BLOCK]
        ub, ab = u[:len(tb)], accept[:len(tb)]
        rng.random(out=ub)
        ub *= profile.peak_rate
        exact = slice(None)
        if fast:
            gap, s32 = work[:len(tb)], sine[:len(tb)]
            np.multiply(tb, profile.gamma, out=gap)
            np.add(gap, profile.phase, out=s32, casting="same_kind")  # theta, rounded once to float32
            np.sin(s32, out=s32)
            np.multiply(s32, slope, out=gap)
            gap += ub
            gap -= profile.lambda_bar  # u - lambda_bar * (1 + A * s32)
            np.less(gap, -margin, out=ab)
            exact = np.flatnonzero(np.abs(gap, out=gap) <= margin)
        ab[exact] = ub[exact] < profile.rate(tb[exact])
        block = np.compress(ab, tb)  # a copy, so the move below may overlap its source
        t[kept:kept + len(block)] = block
        kept += len(block)
    return kept


def phase_shifted_sites(
    k: int,
    base: SinusoidProfile,
    phase_law: str | Sequence[float],
    rng: np.random.Generator,
) -> list[SinusoidProfile]:
    """k copies of `base` with phases drawn from the law.

    phase_law is either "uniform" (iid on [0, 2*pi)) or an explicit list
    of k phases.
    """
    k = read("k", count, k, DomainError)
    if isinstance(phase_law, str):
        if phase_law != "uniform":
            raise DomainError(f"unknown phase law {phase_law!r}")
        phases = rng.uniform(0.0, 2.0 * math.pi, k)
    else:
        phases = list(phase_law)
        if len(phases) != k:
            raise DomainError(f"fixed phase list has {len(phases)} entries, expected {k}")
    return [
        SinusoidProfile(base.lambda_bar, base.amplitude, base.gamma, float(ph)) for ph in phases
    ]
