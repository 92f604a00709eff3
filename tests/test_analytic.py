"""Closed-form formula tests: worked examples, reductions, and properties."""
import ast
import dataclasses
import functools
import inspect
import math
import pathlib
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from edgeq import (
    AggregateProfile,
    CloudSpec,
    DomainError,
    DtrpSpec,
    NetworkSpec,
    PhaseMoments,
    QueueSpec,
    RenewalSpec,
    SinusoidProfile,
    UnreachableScv,
    UnstableQueue,
    VariabilitySpec,
    delta_t_bound_ggk,
    delta_t_bound_mmk,
    destination_wait,
    effective_service_rate,
    empirical_rule_capacities,
    erlang_c_wait,
    excess_wait_sinusoidal,
    fluid_backlog,
    gg1_two_phase_wait,
    ggk_cloud_wait,
    migration_service_time,
    mm1_source_wait,
    mm1_two_phase_wait,
    mmk_qed_wait,
    overload_window,
    rush_hour_wait,
    service_scv,
)
import edgeq
from edgeq.analytic import erlang_c_delay_probability
from edgeq.capacity import cloud_capacity_equivalent, dtrp_response_time, edge_overprovision_factor
from edgeq.specs import STABILITY_GUARD
from edgeq.workload import (
    coin_flips,
    exponential_fill,
    phase_shifted_sites,
    poisson_arrivals,
    renewal_arrivals,
    renewal_times,
)

MARKOV = VariabilitySpec(1.0, 1.0)


def random_stable_specs(n, seed, r_max=1.0):
    rng = np.random.default_rng(seed)
    specs = []
    while len(specs) < n:
        mu1 = rng.uniform(1.0, 200.0)
        mu2 = rng.uniform(1.0, 200.0)
        r = rng.uniform(0.0, r_max)
        lam = rng.uniform(0.05, 0.95) / (1.0 / mu1 + r / mu2)
        spec = QueueSpec(lam, mu1, mu2, r)
        if spec.utilization < 0.97 and r * lam < 0.97 * mu1:
            specs.append(spec)
    return specs


class TestTwoPhaseWait:
    def test_reduces_to_mm1_when_no_migration(self):
        assert mm1_two_phase_wait(QueueSpec(10, 50, 50, 0.0)) == pytest.approx(0.005, rel=1e-12)

    def test_worked_example_r01(self):
        w = mm1_two_phase_wait(QueueSpec(10, 50, 50, 0.1))
        assert w == pytest.approx(0.00615385 + 0.00040816, abs=5e-8)

    def test_worked_example_r03(self):
        w = mm1_two_phase_wait(QueueSpec(10, 50, 50, 0.3))
        assert w == pytest.approx(0.00864865 + 0.00127660, abs=5e-8)

    def test_source_and_destination_retrievable_separately(self):
        spec = QueueSpec(10, 50, 50, 0.1)
        total = mm1_source_wait(spec) + destination_wait(spec)
        assert total == mm1_two_phase_wait(spec)

    def test_mm1_reduction_over_random_specs(self):
        for spec in random_stable_specs(1000, seed=11, r_max=0.0):
            want = spec.lam / (spec.mu1 * (spec.mu1 - spec.lam))
            assert mm1_two_phase_wait(spec) == pytest.approx(want, rel=1e-12)

    def test_infinite_mu2_is_mm1_plus_destination(self):
        spec = QueueSpec(10, 50, math.inf, 0.3)
        want = 10 / (50 * 40) + destination_wait(spec)
        assert mm1_two_phase_wait(spec) == pytest.approx(want, rel=1e-12)

    def test_rejects_unstable_load(self):
        with pytest.raises(UnstableQueue):
            mm1_two_phase_wait(QueueSpec(40, 50, 50, 0.3))

    def test_monotone_in_lambda_r_and_mu2(self):
        for spec in random_stable_specs(200, seed=6, r_max=0.9):
            w = mm1_two_phase_wait(spec)
            lam2 = spec.lam * (1.0 + 1e-4)
            bumped = QueueSpec(lam2, spec.mu1, spec.mu2, spec.r)
            if bumped.utilization < 0.999 and bumped.r * lam2 < 0.999 * spec.mu1:
                assert mm1_two_phase_wait(bumped) > w
            r2 = min(spec.r + 1e-4, 1.0)
            bumped_r = QueueSpec(spec.lam, spec.mu1, spec.mu2, r2)
            if bumped_r.utilization < 0.999 and r2 * spec.lam < 0.999 * spec.mu1:
                assert mm1_two_phase_wait(bumped_r) > w
            if spec.r > 0:
                faster_mig = QueueSpec(spec.lam, spec.mu1, spec.mu2 * (1.0 + 1e-4), spec.r)
                assert mm1_two_phase_wait(faster_mig) < w


def _destination(lam, mu1, r):
    """destination_wait at these rates; it does not read mu2."""
    return destination_wait(QueueSpec(lam, mu1, math.inf, r))


class TestDestinationWait:
    def test_zero_when_no_migrations(self):
        assert _destination(10, 50, 0.0) == 0.0

    def test_worked_example(self):
        assert _destination(10, 50, 0.1) == pytest.approx(1 / 2450, rel=1e-12)

    def test_rejects_saturated_destination(self):
        with pytest.raises(UnstableQueue):
            _destination(100, 50, 0.5)

    def test_grows_without_bound_near_saturation(self):
        assert _destination(10, 50, 0.1) < _destination(490, 50, 0.1)
        assert _destination(499, 50, 0.1) > 1.0


class TestCheckStable:
    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(1e-3, 1e3),
        st.one_of(st.floats(1e-6, 2.0), st.floats(1 - 1e-8, 1 + 1e-8)),  # lam/mu1, often near the guard
        st.one_of(st.just(math.inf), st.floats(1e-3, 1e3)),
        st.floats(0.0, 1.0),
    )
    @example(mu1=50.0, load=1.0, mu2=math.inf, r=1.0)
    @example(mu1=50.0, load=math.nextafter(STABILITY_GUARD, 0.0), mu2=math.inf, r=1.0)
    def test_raises_iff_utilization_reaches_the_guard(self, mu1, load, mu2, r):
        spec = QueueSpec(load * mu1, mu1, mu2, r)
        if spec.utilization >= STABILITY_GUARD:
            with pytest.raises(UnstableQueue, match="source utilization"):
                spec.check_stable()
        else:
            spec.check_stable()
            assert spec.r * spec.lam < spec.mu1  # the destination has slack too


class TestMigrationServiceTime:
    def test_values(self):
        assert migration_service_time(QueueSpec(10, 50, 50, 0.0)) == 0.0
        assert migration_service_time(QueueSpec(10, 50, 50, 0.1)) == pytest.approx(0.002, rel=1e-12)
        assert migration_service_time(QueueSpec(10, 50, math.inf, 1.0)) == 0.0


class TestMmkQedWait:
    def test_single_server_form(self):
        assert mmk_qed_wait(CloudSpec(1, 1.0, 0.5)) == pytest.approx(2.0, rel=1e-12)

    def test_worked_example(self):
        assert mmk_qed_wait(CloudSpec(16, 50, 0.8)) == pytest.approx(0.025, rel=1e-12)

    def test_vanishes_as_k_grows(self):
        values = [mmk_qed_wait(CloudSpec(k, 50, 0.8)) for k in (1, 16, 256, 4096, 10**8)]
        assert values == sorted(values, reverse=True)
        assert values[-1] <= 1e-5

    def test_rejects_saturation(self):
        with pytest.raises(UnstableQueue):
            mmk_qed_wait(CloudSpec(4, 1.0, 1.0))


def erlang_c_over_every_term(k: int, rho: float) -> float:
    """The delay probability with all k log-terms summed, in order: the bit-for-bit reference."""
    a = k * rho
    log_terms = [n * math.log(a) - math.lgamma(n + 1) for n in range(k)]
    log_top = k * math.log(a) - math.lgamma(k + 1) - math.log(1.0 - rho)
    m = max(max(log_terms), log_top)
    denom = sum(math.exp(t - m) for t in log_terms) + math.exp(log_top - m)
    return math.exp(log_top - m) / denom


class TestErlangC:
    def test_k1_matches_mm1(self):
        assert erlang_c_wait(CloudSpec(1, 50.0, 0.4)) == pytest.approx(0.4 / (50 * 0.6), rel=1e-12)

    def test_below_conditional_form(self):
        cloud = CloudSpec(16, 50.0, 0.8)
        assert erlang_c_wait(cloud) < mmk_qed_wait(cloud)

    @pytest.mark.parametrize("k, rho", [(2, 0.3), (16, 0.8), (100, 0.95), (1000, 0.5), (5000, 0.99)])
    def test_matches_the_sum_at_50_digits(self, k, rho):
        with mpmath.workdps(50):
            a = k * mpmath.mpf(rho)
            term, below = mpmath.mpf(1), mpmath.mpf(0)  # a^n/n!, and the sum of those with n < k
            for n in range(k):
                below += term
                term *= a / (n + 1)
            top = term / (1 - mpmath.mpf(rho))
            want = float(top / (below + top))
        assert erlang_c_delay_probability(CloudSpec(k, 50.0, rho)) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 7, 64, 1000, 20000])
    @pytest.mark.parametrize("rho", [0.0005, 0.1, 0.5, 0.8, 0.99, 0.9995])
    def test_window_equals_the_sum_of_every_term(self, k, rho):
        assert erlang_c_delay_probability(CloudSpec(k, 50.0, rho)) == erlang_c_over_every_term(k, rho)

    def test_huge_pool_underflows_to_zero(self):
        # 1e8 log-terms would take gigabytes as a list; the window holds about 80 sqrt(k rho) of them
        assert erlang_c_delay_probability(CloudSpec(10**8, 50.0, 0.8)) == 0.0


class TestDeltaTBoundMmk:
    def test_identical_single_servers(self):
        edge = QueueSpec(10, 50, 50, 0.0)
        cloud = CloudSpec(1, 50, 10 / 50)
        assert delta_t_bound_mmk(edge, cloud) == pytest.approx(0.005 - 0.025, rel=1e-9)

    def test_composition(self):
        edge = QueueSpec(10, 50, 50, 0.1)
        cloud = CloudSpec(16, 50, 0.8)
        want = 0.00656201 + 0.002 - 0.025
        assert delta_t_bound_mmk(edge, cloud) == pytest.approx(want, abs=5e-8)

    def test_large_k_leaves_only_edge_terms(self):
        edge = QueueSpec(10, 50, 50, 0.1)
        big = delta_t_bound_mmk(edge, CloudSpec(10**8, 50, 0.8))
        want = mm1_two_phase_wait(edge) + migration_service_time(edge)
        assert big == pytest.approx(want, abs=1e-5)


class TestServiceScv:
    def test_exponential_single_phase(self):
        m = PhaseMoments.exponential(2.0, 5.0, 0.0)
        assert service_scv(m) == pytest.approx(1.0, rel=1e-12)

    def test_half_migration(self):
        m = PhaseMoments.exponential(1.0, 1.0, 0.5)
        assert service_scv(m) == pytest.approx(7 / 9, rel=1e-12)

    def test_always_migrate_sum_of_exponentials(self):
        m = PhaseMoments.exponential(1.0, 1.0, 1.0)
        assert service_scv(m) == pytest.approx(0.5, rel=1e-12)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(99)
        n = 2_000_000
        s = rng.exponential(1.0, n) + (rng.uniform(size=n) < 0.5) * rng.exponential(1.0, n)
        sample_scv = s.var() / s.mean() ** 2
        assert service_scv(PhaseMoments.exponential(1.0, 1.0, 0.5)) == pytest.approx(
            sample_scv, rel=0.01
        )


class TestGg1TwoPhaseWait:
    def test_markovian_reduction(self):
        spec = QueueSpec(10, 50, 50, 0.1)
        assert gg1_two_phase_wait(spec, MARKOV) == pytest.approx(
            mm1_two_phase_wait(spec), rel=1e-12
        )

    def test_markovian_reduction_over_random_specs(self):
        for spec in random_stable_specs(1000, seed=21):
            assert gg1_two_phase_wait(spec, MARKOV) == pytest.approx(
                mm1_two_phase_wait(spec), rel=1e-12
            )

    def test_linear_in_variability(self):
        spec = QueueSpec(10, 50, 50, 0.1)
        assert gg1_two_phase_wait(spec, VariabilitySpec(3.0, 1.0)) == pytest.approx(
            2 * 0.00656201, abs=1e-7
        )

    def test_no_migration_base_case(self):
        spec = QueueSpec(10, 50, 50, 0.0)
        assert gg1_two_phase_wait(spec, MARKOV) == pytest.approx(10 / (50 * 40), rel=1e-12)


class TestGgkCloudWait:
    def test_k1_heavy_traffic_is_exact_mm1(self):
        assert ggk_cloud_wait(CloudSpec(1, 1.0, 0.8), MARKOV) == pytest.approx(4.0, rel=1e-12)

    def test_k2_worked_example(self):
        assert ggk_cloud_wait(CloudSpec(2, 1.0, 0.8), MARKOV) == pytest.approx(1.8, rel=1e-12)

    def test_low_traffic_branch(self):
        want = 0.5**2.5 / 0.5 * 2 / 8
        assert ggk_cloud_wait(CloudSpec(4, 1.0, 0.5), MARKOV) == pytest.approx(want, rel=1e-12)

    def test_branch_boundary_uses_heavy_traffic_form(self):
        want = 0.5 * (0.7**3 + 0.7) / 0.3 * 2 / 6
        assert ggk_cloud_wait(CloudSpec(3, 1.0, 0.7), MARKOV) == pytest.approx(want, rel=1e-12)

    def test_refuses_a_saturated_pool(self):
        with pytest.raises(UnstableQueue, match=r"^cloud utilization 1 >= 1$"):
            ggk_cloud_wait(CloudSpec(4, 1.0, 1.0), MARKOV)

    def test_k1_reduction_over_random_draws(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            rho = rng.uniform(0.701, 0.999)
            mu = rng.uniform(0.1, 100.0)
            got = ggk_cloud_wait(CloudSpec(1, mu, rho), MARKOV)
            assert got == pytest.approx(rho / (mu * (1 - rho)), rel=1e-12)


class TestDeltaTBoundGgk:
    def test_identical_markovian_systems_cancel(self):
        edge = QueueSpec(0.8, 1.0, 1.0, 0.0)
        cloud = CloudSpec(1, 1.0, 0.8)
        assert delta_t_bound_ggk(edge, MARKOV, cloud, MARKOV) == pytest.approx(0.0, abs=1e-12)

    def test_composition(self):
        edge = QueueSpec(10, 50, 50, 0.1)
        cloud = CloudSpec(2, 1.0, 0.8)
        want = 0.00656201 + 0.002 - 1.8
        assert delta_t_bound_ggk(edge, MARKOV, cloud, MARKOV) == pytest.approx(want, abs=5e-8)

    def test_arrival_variability_shifts_bound_by_edge_delta(self):
        edge = QueueSpec(10, 50, 50, 0.1)
        cloud = CloudSpec(2, 1.0, 0.8)
        base = delta_t_bound_ggk(edge, MARKOV, cloud, MARKOV)
        shifted = delta_t_bound_ggk(edge, VariabilitySpec(3.0, 1.0), cloud, MARKOV)
        want = gg1_two_phase_wait(edge, VariabilitySpec(3.0, 1.0)) - gg1_two_phase_wait(edge, MARKOV)
        assert shifted - base == pytest.approx(want, rel=1e-12)

    # lambda 10, mu1 = mu2 = 50, r 0.1 against a Markovian k = 4 cloud at
    # mu 50, rho 0.7 with cs2 = 1: the deleted max_edge_arrival_scv
    # returned ca2 = 9.671 for a 0.027 s target, the true inverse 9.00735.
    @pytest.mark.parametrize(
        "ca2, want", [(9.671, 0.02918), (9.00735, 0.02700)], ids=["source-term-inverse", "true-inverse"]
    )
    def test_worked_inverse_figures(self, ca2, want):
        edge = QueueSpec(10, 50, 50, 0.1)
        cloud = CloudSpec(4, 50, 0.7)
        assert delta_t_bound_ggk(edge, VariabilitySpec(ca2, 1.0), cloud, MARKOV) == pytest.approx(want, abs=5e-6)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.05, 0.95), st.floats(1.0, 200.0), st.floats(1.0, 200.0), st.floats(0.0, 1.0),
        st.integers(1, 64), st.floats(1.0, 200.0), st.floats(0.05, 0.95),
        st.floats(0.0, 20.0), st.floats(0.0, 20.0), st.floats(0.0, 20.0), st.floats(0.0, 20.0),
    )
    def test_closed_inverse_recovers_the_edge_ca2(self, f, mu1, mu2, r, k, mu, rho, ca2, cs2, cloud_ca2, cloud_cs2):
        # The bound is linear in the edge ca2 with slope mm1_two_phase_wait/2,
        # so ca2 = 2 (dt - r/mu2 + w_cloud) / mm1_two_phase_wait - cs2.
        edge = QueueSpec(f / (1.0 / mu1 + r / mu2), mu1, mu2, r)
        cloud, cloud_var = CloudSpec(k, mu, rho), VariabilitySpec(cloud_ca2, cloud_cs2)
        dt = delta_t_bound_ggk(edge, VariabilitySpec(ca2, cs2), cloud, cloud_var)
        w_edge, w_cloud = mm1_two_phase_wait(edge), ggk_cloud_wait(cloud, cloud_var)
        got = 2.0 * (dt - r / mu2 + w_cloud) / w_edge - cs2
        # rounding in dt and w_cloud is amplified by 2/w_edge
        assert got == pytest.approx(ca2, rel=1e-12, abs=1e-12 * (abs(dt) + r / mu2 + w_cloud) / w_edge)


class TestEffectiveServiceRate:
    def test_values(self):
        assert effective_service_rate(QueueSpec(10, 50, 50, 0.0)) == pytest.approx(50.0, rel=1e-12)
        assert effective_service_rate(QueueSpec(10, 50, 50, 0.1)) == pytest.approx(2500 / 55, rel=1e-12)
        assert effective_service_rate(QueueSpec(10, 32, 32, 1.0)) == pytest.approx(16.0, rel=1e-12)
        assert effective_service_rate(QueueSpec(10, 32, math.inf, 1.0)) == 32.0


class TestExcessWait:
    def test_zero_amplitude(self):
        assert excess_wait_sinusoidal(0.8, 0.0, 0.01, 100.0) == 0.0

    def test_worked_example(self):
        got = excess_wait_sinusoidal(0.8, 0.5, 1e-6, 100.0)
        assert got == pytest.approx(0.1, rel=1e-6)

    def test_quadratic_scaling_exact(self):
        a = excess_wait_sinusoidal(0.8, 0.25, 0.3, 100.0)
        b = excess_wait_sinusoidal(0.8, 0.5, 0.3, 100.0)
        assert 4.0 * a == pytest.approx(b, rel=1e-12)

    def test_rejects_saturation(self):
        with pytest.raises(UnstableQueue):
            excess_wait_sinusoidal(1.0, 0.5, 0.3, 100.0)


class TestOverloadWindow:
    def test_no_overload_returns_none(self):
        assert overload_window(SinusoidProfile(16, 0.9, 1.0), 32.0) is None

    def test_worked_example(self):
        win = overload_window(SinusoidProfile(16, 0.7, 1.0), 24.0)
        assert win.theta == pytest.approx(math.pi / 6, rel=1e-12)
        assert win.t1 == pytest.approx(0.5236, abs=1e-4)
        assert win.t2 == pytest.approx(2.6180, abs=1e-4)

    def test_tangent_peak_is_no_overload(self):
        assert overload_window(SinusoidProfile(16, 0.5, 1.0), 24.0) is None

    def test_phase_shift_moves_window_into_first_cycle(self):
        base = overload_window(SinusoidProfile(16, 0.7, 1.0), 24.0)
        phi = 1.0
        shifted = overload_window(SinusoidProfile(16, 0.7, 1.0, phi), 24.0)
        period = 2 * math.pi
        assert shifted.t1 == pytest.approx((base.t1 - phi) % period, rel=1e-9)
        assert shifted.duration == pytest.approx(base.duration, rel=1e-12)
        assert 0.0 <= shifted.t1 < period

    def test_experimental_extension_below_mean_rate(self):
        win = overload_window(SinusoidProfile(16, 0.7, 1.0), 12.0)
        assert win.theta < 0
        assert win.duration > math.pi  # overload covers more than half a cycle


class TestFluidBacklog:
    def test_zero_without_overload(self):
        assert fluid_backlog(SinusoidProfile(16, 0.9, 1.0), 32.0) == 0.0

    def test_worked_example(self):
        got = fluid_backlog(SinusoidProfile(16, 0.7, 1.0), 24.0)
        assert got == pytest.approx(2.64381, abs=2e-5)

    def test_matches_quadrature(self):
        prof = SinusoidProfile(16, 0.7, 1.0)
        win = overload_window(prof, 24.0)
        val, err = quad(lambda t: prof.rate(t) - 24.0, win.t1, win.t2, epsabs=1e-12)
        assert fluid_backlog(prof, 24.0) == pytest.approx(val, abs=1e-9)
        del err

    def test_linear_under_joint_scaling(self):
        base = fluid_backlog(SinusoidProfile(16, 0.7, 1.0), 24.0)
        scaled = fluid_backlog(SinusoidProfile(16 * 7, 0.7, 1.0), 24.0 * 7)
        assert scaled == pytest.approx(7 * base, rel=1e-12)


class TestRushHourWait:
    def test_worked_example(self):
        got = rush_hour_wait(SinusoidProfile(16, 0.7, 1.0), 24.0)
        assert got == pytest.approx(0.110159, abs=1e-6)

    def test_scale_invariance(self):
        base = rush_hour_wait(SinusoidProfile(16, 0.7, 1.0), 24.0)
        scaled = rush_hour_wait(SinusoidProfile(160, 0.7, 1.0), 240.0)
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_zero_below_threshold(self):
        assert rush_hour_wait(SinusoidProfile(16, 0.3, 1.0), 24.0) == 0.0


class TestAggregateProfile:
    def test_identical_in_phase_sites(self):
        sites = [SinusoidProfile(10, 0.5, 1.0)] * 4
        agg = AggregateProfile(sites)
        assert agg.mean == pytest.approx(40.0, rel=1e-12)
        assert agg.relative_amplitude() == pytest.approx(0.5, abs=1e-5)

    def test_antiphase_pair_cancels(self):
        sites = [SinusoidProfile(10, 0.5, 1.0, 0.0), SinusoidProfile(10, 0.5, 1.0, math.pi)]
        agg = AggregateProfile(sites)
        t = np.linspace(0, 2 * math.pi, 512)
        assert np.allclose(agg.rate(t), 20.0, atol=1e-9)
        assert agg.relative_amplitude() == pytest.approx(0.0, abs=1e-9)

    def test_aggregate_mean_is_sum_of_means(self):
        rng = np.random.default_rng(8)
        sites = [
            SinusoidProfile(rng.uniform(1, 50), rng.uniform(0, 1), 1.0, rng.uniform(0, 2 * math.pi))
            for _ in range(16)
        ]
        agg = AggregateProfile(sites)
        t = np.linspace(0, 2 * math.pi, 20_000, endpoint=False)
        assert float(np.mean(agg.rate(t))) == pytest.approx(agg.mean, abs=1e-9 * agg.mean + 1e-9)

    def test_many_random_phases_smooth_the_aggregate(self):
        rng = np.random.default_rng(7)
        sites = [SinusoidProfile(10, 0.7, 1.0, p) for p in rng.uniform(0, 2 * math.pi, 64)]
        assert AggregateProfile(sites).relative_amplitude() < 0.7

    def test_no_sites_rejected(self):
        with pytest.raises(DomainError, match="site list must be non-empty"):
            AggregateProfile([])

    def test_mixed_frequencies_rejected(self):
        with pytest.raises(DomainError, match=r"^sites must share one gamma, got \[1.0, 2.0\]$"):
            AggregateProfile([SinusoidProfile(10, 0.5, 1.0), SinusoidProfile(10, 0.5, 2.0)])

    @pytest.mark.parametrize("n_sites", [1, 2, 3, 5, 16, 64])
    def test_relative_amplitude_is_the_phasor_sum(self, n_sites):
        # Sites of one gamma add to M + R sin(gamma t + theta), with
        # R = |sum lam_i A_i exp(i phi_i)|; 4096 samples of one period
        # read the peak to within R (1 - cos(pi/4096)) ~ 2.9e-7 R.
        rng = np.random.default_rng(n_sites)
        gamma = rng.uniform(1e-3, 10.0)
        sites = [
            SinusoidProfile(rng.uniform(1, 50), rng.uniform(0, 1), gamma, rng.uniform(0, 2 * math.pi))
            for _ in range(n_sites)
        ]
        phasor = sum(p.lambda_bar * p.amplitude * complex(math.cos(p.phase), math.sin(p.phase)) for p in sites)
        want = abs(phasor) / sum(p.lambda_bar for p in sites)
        assert AggregateProfile(sites).relative_amplitude() == pytest.approx(want, rel=3e-7, abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_evenly_spaced_phases_cancel(self, k):
        phases = [2 * math.pi * j / k for j in range(k)]
        sites = phase_shifted_sites(k, SinusoidProfile(10, 0.7, 1.0), phases, np.random.default_rng(k))
        agg = AggregateProfile(sites)
        assert agg.mean == pytest.approx(10.0 * k, rel=1e-12)
        assert agg.relative_amplitude() == pytest.approx(0.0, abs=1e-9)


class TestEmpiricalRule:
    def test_single_site_equality(self):
        assert empirical_rule_capacities(100, 1) == (pytest.approx(120.0), pytest.approx(120.0))

    def test_worked_example(self):
        c_edge, c_cloud = empirical_rule_capacities(100, 4)
        assert c_edge == pytest.approx(480.0, rel=1e-12)
        assert c_cloud == pytest.approx(440.0, rel=1e-12)

    def test_cloud_needs_less_for_k_at_least_two(self):
        rng = np.random.default_rng(13)
        for k in range(1, 10_001):
            lam = rng.uniform(0.1, 1e4)
            c_edge, c_cloud = empirical_rule_capacities(lam, k)
            if k == 1:
                assert c_cloud == pytest.approx(c_edge, rel=1e-12)
            else:
                assert c_cloud < c_edge


def ordered_pair(low=0.0, high=0.99):
    """Two values lo <= hi; the default range keeps a load below the stability edge."""
    return st.tuples(st.floats(low, high), st.floats(low, high)).map(sorted)


class TestMonotoneInLoad:
    """Over the stable range each wait is nondecreasing in its load parameter."""

    @settings(max_examples=300, deadline=None)
    @given(
        ordered_pair(1e-6), st.floats(1.0, 200.0), st.floats(1.0, 200.0) | st.just(math.inf), st.floats(0.0, 1.0)
    )
    def test_two_phase_wait_in_lambda(self, fractions, mu1, mu2, r):
        lam_max = 1.0 / (1.0 / mu1 + (0.0 if math.isinf(mu2) else r / mu2))
        lo, hi = (mm1_two_phase_wait(QueueSpec(f * lam_max, mu1, mu2, r)) for f in fractions)
        assert lo <= hi

    @settings(max_examples=300, deadline=None)
    @given(ordered_pair(), st.integers(1, 64), st.floats(0.1, 200.0))
    def test_cloud_waits_in_rho(self, rhos, k, mu):
        lo, hi = (CloudSpec(k, mu, rho) for rho in rhos)
        assert mmk_qed_wait(lo) <= mmk_qed_wait(hi)
        assert erlang_c_wait(lo) <= erlang_c_wait(hi)

    @settings(max_examples=300, deadline=None)
    @given(ordered_pair(), st.floats(0.0, 1.0), st.floats(1e-3, 10.0), st.floats(0.1, 200.0))
    def test_excess_wait_in_rho(self, rhos, amplitude, gamma, mu_eff):
        lo, hi = (excess_wait_sinusoidal(rho, amplitude, gamma, mu_eff) for rho in rhos)
        assert lo <= hi

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 0.99), ordered_pair(0.0, 1.0), st.floats(1e-3, 10.0), st.floats(0.1, 200.0))
    def test_excess_wait_in_amplitude(self, rho, amplitudes, gamma, mu_eff):
        lo, hi = (excess_wait_sinusoidal(rho, amp, gamma, mu_eff) for amp in amplitudes)
        assert lo <= hi


def _positive(x):
    return 0 < x < math.inf


def _nonnegative(x):
    return 0 <= x < math.inf


def _unit(x):
    return 0 <= x <= 1


# spec record -> (the arguments of a valid instance, {numeric field: a test of its domain})
SPEC_DOMAINS = {
    QueueSpec: (dict(lam=10.0, mu1=50.0, mu2=50.0, r=0.1),
                dict(lam=_positive, mu1=_positive, mu2=lambda x: x > 0, r=_unit)),
    CloudSpec: (dict(k=4, mu_cloud=10.0, rho_cloud=0.5),
                dict(k=lambda x: x >= 1 and float(x).is_integer(), mu_cloud=_positive, rho_cloud=_nonnegative)),
    NetworkSpec: (dict(t_edge=0.001, t_cloud=0.028), dict(t_edge=_nonnegative, t_cloud=_nonnegative)),
    SinusoidProfile: (dict(lambda_bar=16.0, amplitude=0.5, gamma=0.1),
                      dict(lambda_bar=_positive, amplitude=_unit, gamma=_positive, phase=math.isfinite)),
    VariabilitySpec: (dict(ca2=1.0, cs2=1.0), dict(ca2=_nonnegative, cs2=_nonnegative)),
    PhaseMoments: (dict(mean1=0.02, var1=4e-4, mean2=0.02, var2=4e-4, r=0.1),
                   dict(mean1=_positive, var1=_nonnegative, mean2=_positive, var2=_nonnegative, r=_unit)),
    DtrpSpec: (dict(capacity=96.0, rho=0.5, tau=0.0, q=2.0),
               dict(capacity=_positive, rho=_nonnegative, tau=_nonnegative, q=lambda x: x > 0 and 1.0 / x < math.inf,
                    area=_positive, velocity=_positive, gos=_positive)),
    RenewalSpec: (dict(scv=2.0, family="hyperexponential2"), dict(scv=_nonnegative)),
}
# the rules that span fields, which a value inside its own field's domain may still break
CROSS_FIELD = {DtrpSpec: UnstableQueue, RenewalSpec: UnreachableScv}

PROFILE = SinusoidProfile(8.0, 0.5, 0.1)
# (function, in-domain arguments) for each function that checks its own float arguments: those
# that no spec record holds, as a form whose inputs a record holds takes the record
BARE_FLOAT_CALLS = [
    (excess_wait_sinusoidal, (0.5, 0.3, 0.1, 10.0)),
    (overload_window, (PROFILE, 10.0)),
    (empirical_rule_capacities, (10.0, 4)),
    (edge_overprovision_factor, (2.0,)),
    (cloud_capacity_equivalent, (DtrpSpec(96.0, 0.5, 0.0, 2.0), 0.5)),
    (dtrp_response_time, (DtrpSpec(96.0, 0.5, 0.0, 2.0), 5.0)),
    (poisson_arrivals, (8.0, 10.0, np.random.default_rng(0))),
    (renewal_times, (RenewalSpec(), 0.1, 5, np.random.default_rng(0))),
    (exponential_fill, (0.1, np.random.default_rng(0))),
    (renewal_arrivals, (RenewalSpec(), 0.1, 5.0, np.random.default_rng(0))),
    (coin_flips, (0.3, 5, np.random.default_rng(0))),
]
# the arguments whose domain holds +inf: a perfect packing
INFINITE_OK = {(edge_overprovision_factor, "q")}
# (function, in-domain arguments, {input of its formula: (the argument's index, the record field holding it)})
# for each form whose inputs a record holds: the record refuses a bad input once, when it is built
RECORD_INPUT_CALLS = [
    (destination_wait, (QueueSpec(10.0, 50.0, 50.0, 0.1),), dict(lam=(0, "lam"), mu1=(0, "mu1"), r=(0, "r"))),
    (migration_service_time, (QueueSpec(10.0, 50.0, 50.0, 0.1),), dict(r=(0, "r"), mu2=(0, "mu2"))),
    (effective_service_rate, (QueueSpec(10.0, 50.0, 50.0, 0.1),), dict(mu1=(0, "mu1"), mu2=(0, "mu2"), r=(0, "r"))),
    (ggk_cloud_wait, (CloudSpec(4, 10.0, 0.5), VariabilitySpec(1.0, 2.0)),
     dict(k=(0, "k"), mu=(0, "mu_cloud"), rho=(0, "rho_cloud"), ca2=(1, "ca2"), cs2=(1, "cs2"))),
    (cloud_capacity_equivalent, (DtrpSpec(96.0, 0.5, 0.0, 2.0), 0.5),
     dict(c_edge=(0, "capacity"), rho_edge=(0, "rho"), tau_edge=(0, "tau"), q=(0, "q"))),
]


def _bare_input(fn, args, i):
    """(the form called with argument i set to a value, its in-domain value, the refusal's prefix, +inf in domain)."""
    name = list(inspect.signature(fn).parameters)[i]
    return lambda v: fn(*args[:i], v, *args[i + 1:]), args[i], f"{name}: ", (fn, name) in INFINITE_OK


def _record_input(fn, args, i, field):
    """As _bare_input, for a field of the record that argument i holds."""
    record = args[i]
    call = lambda v: fn(*args[:i], dataclasses.replace(record, **{field: v}), *args[i + 1:])  # noqa: E731
    in_domain = SPEC_DOMAINS[type(record)][1][field]
    return call, getattr(record, field), f"{type(record).__name__}.{field}: ", in_domain(math.inf)


# (id, case) for each float input of each form above
FLOAT_INPUTS = [
    (f"{fn.__name__}-{list(inspect.signature(fn).parameters)[i]}", _bare_input(fn, args, i))
    for fn, args in BARE_FLOAT_CALLS for i, a in enumerate(args) if isinstance(a, (int, float))
] + [
    (f"{fn.__name__}-{name}", _record_input(fn, args, i, field))
    for fn, args, inputs in RECORD_INPUT_CALLS for name, (i, field) in inputs.items()
]
INPUT_IDS = [name for name, _ in FLOAT_INPUTS]
INPUT_CASES = [case for _, case in FLOAT_INPUTS]


class TestDomainErrors:
    def test_bad_parameters_rejected(self):
        with pytest.raises(DomainError):
            QueueSpec(-1, 50, 50, 0.1)
        with pytest.raises(DomainError):
            QueueSpec(10, 50, 50, 1.5)

    def test_a_float_overflow_is_a_domain_error_naming_the_field(self):
        with pytest.raises(DomainError, match=r"^QueueSpec\.lam: "):
            QueueSpec(10**400, 50.0, 50.0)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-3, 1e3), st.floats(0.0, 1.0), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @example(1.0, 0.5, 1e-17 / 1.5)  # theta = -pi/2: the two ends fold together
    def test_overload_window_exists_whenever_the_peak_exceeds_mu(self, lambda_bar, amplitude, share):
        profile = SinusoidProfile(lambda_bar, amplitude, 1.0)
        mu_eff = share * profile.peak_rate
        assume(0.0 < mu_eff < profile.peak_rate)
        win = overload_window(profile, mu_eff)
        assert -math.pi / 2 <= win.theta <= math.pi / 2
        assert 0 < win.t2 - win.t1 <= profile.period

    @pytest.mark.parametrize("spec_field", [(cls, name) for cls, (_, domain) in SPEC_DOMAINS.items() for name in domain],
                             ids=lambda f: f"{f[0].__name__}.{f[1]}")
    @settings(max_examples=40, deadline=None)
    @given(value=st.one_of(st.floats(), st.integers(-10, 10**6)))
    @example(value=math.nan)
    @example(value=math.inf)
    @example(value=-math.inf)
    @example(value=0.0)
    def test_spec_records_refuse_exactly_their_domain(self, spec_field, value):
        cls, name = spec_field
        valid, domain = SPEC_DOMAINS[cls]
        try:
            cls(**{**valid, name: value})
        except DomainError as exc:
            if domain[name](value):  # in domain: only a rule that spans fields may refuse it
                assert isinstance(exc, CROSS_FIELD.get(cls, ())), exc
            else:
                assert type(exc) is DomainError and str(exc).startswith(f"{cls.__name__}.{name}: must be "), exc
        else:
            assert domain[name](value)

    @pytest.mark.parametrize("case", INPUT_CASES, ids=INPUT_IDS)
    def test_nan_float_argument_raises(self, case):
        call, valid, owner, _ = case
        call(valid)
        with pytest.raises(DomainError) as exc:
            call(math.nan)
        assert str(exc.value).startswith(owner), exc.value

    # 1/q overflowed to inf: the factor read inf, and the cloud capacity 0
    @pytest.mark.parametrize("case", [c for c, name in zip(INPUT_CASES, INPUT_IDS) if name.endswith("-q")],
                             ids=[name for name in INPUT_IDS if name.endswith("-q")])
    def test_a_packing_factor_whose_reciprocal_overflows_raises(self, case):
        call, _, owner, _ = case
        with pytest.raises(DomainError, match=rf"^{re.escape(owner)}must be large enough for a finite 1/q, got 1e-320$"):
            call(1e-320)

    @pytest.mark.parametrize("case", INPUT_CASES, ids=INPUT_IDS)
    @pytest.mark.parametrize("value", [math.inf, -math.inf], ids=["inf", "-inf"])
    def test_infinite_float_argument_raises_unless_its_domain_holds_inf(self, case, value):
        call, _, owner, infinite_ok = case
        if value > 0 and infinite_ok:
            assert math.isfinite(call(value))
            return
        with pytest.raises(DomainError) as exc:
            call(value)
        assert str(exc.value).startswith(owner), exc.value

    @pytest.mark.parametrize("module", [edgeq.analytic, edgeq.capacity], ids=lambda m: m.__name__)
    def test_a_form_casts_only_its_bare_number_arguments(self, module):
        # a record checked its fields when it was built; a second cast of one would be a second owner
        records = {cls.__name__ for cls in SPEC_DOMAINS}
        for fn in ast.parse(inspect.getsource(module)).body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            bare = {a.arg for a in fn.args.args if not (isinstance(a.annotation, ast.Name) and a.annotation.id in records)}
            for call in ast.walk(fn):
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "read":
                    value = call.args[2]
                    assert isinstance(value, ast.Name) and value.id in bare, f"{fn.name}: {ast.unparse(call)}"



# Every closed form ``edgeq`` exports, mapped to one scenario runner, CLI command or calling
# form in ``src/edgeq`` that reads it (others may read it too) ...
FORM_READERS = {
    "cloud_capacity_equivalent": "cli._cmd_capacity_equivalent",
    "delta_t_bound_ggk": "cli._cmd_analytic_deltat",
    "delta_t_bound_mmk": "harness._run_mobility_crossover",
    "destination_wait": "cli._cmd_analytic_wait",
    "edge_overprovision_factor": "capacity.PackingSweep",
    "effective_service_rate": "harness._run_rush_hour",
    "empirical_rule_capacities": "cli._cmd_capacity_rule",
    "excess_wait_sinusoidal": "harness._run_excess_wait",
    "fluid_backlog": "analytic.rush_hour_wait",
    "gg1_two_phase_wait": "analytic.delta_t_bound_ggk",
    "ggk_cloud_wait": "analytic.delta_t_bound_ggk",
    "migration_service_time": "analytic.delta_t_bound_mmk",
    "mm1_source_wait": "cli._cmd_analytic_wait",
    "mm1_two_phase_wait": "harness._run_two_phase_wait",
    "mmk_qed_wait": "analytic.delta_t_bound_mmk",
    "overload_window": "desim.run_model",
    "rush_hour_wait": "harness._run_rush_hour",
}
# ... or, while nothing in src reads it, to the test node that checks it against an independent
# computation: a simulation, a Monte Carlo draw, or another closed form of the same model
CHECKED_FORMS = {
    "AggregateProfile": "tests/test_acceptance.py::test_criterion_9_phase_shift_smoothing",
    "PhaseMoments": "tests/test_acceptance.py::test_criterion_8_statistical_hygiene",
    "dtrp_response_time": "tests/test_capacity.py::TestClosedForms::test_dtrp_edge_equals_cloud_at_equivalent_capacity",
    "erlang_c_wait": "tests/test_desim.py::TestMmkSim::test_k16_matches_erlang_c_and_exact_conditional",
    "phase_shifted_sites": "tests/test_acceptance.py::test_criterion_9_phase_shift_smoothing",
    "service_scv": "tests/test_acceptance.py::test_criterion_8_statistical_hygiene",
}
# the other exports: records, errors, simulators, samplers and the packing and scenario calls
NOT_FORMS = {
    "CloudSpec", "DtrpSpec", "NetworkSpec", "QueueSpec", "SinusoidProfile", "VariabilitySpec", "RenewalSpec",
    "SeededStream", "SimConfig", "SimMetrics", "TimeSeriesMetrics", "Scenario", "ComparisonRow", "PackingReport",
    "Topology", "VmTrace", "ConfigError", "DomainError", "EdgeqError", "EmptyTrace", "InstabilityDetected",
    "OversizedVm", "ParseError", "UnreachableScv", "UnstableQueue",
    "replicate", "run_model", "load_scenario", "run_scenario", "load_vm_trace", "simulate_packing",
    "synthetic_vm_trace", "nhpp_sinusoidal", "poisson_arrivals", "renewal_times",
}


def _names_read(node) -> set[str]:
    """The names and attributes that ``node`` loads, outside annotations."""
    names, stack = set(), [node]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        skip = set()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            skip.add(id(node.returns))
        elif isinstance(node, ast.arg):
            skip.add(id(node.annotation))
        elif isinstance(node, ast.AnnAssign):
            skip.add(id(node.annotation))
        stack.extend(child for child in ast.iter_child_nodes(node) if id(child) not in skip)
    return names


@functools.cache
def _readers() -> dict[str, set[str]]:
    """For each name, the top-level definitions (``module.name``, or ``module.<module>``) of src/edgeq that read it."""
    readers = {}
    for path in pathlib.Path(edgeq.__file__).parent.glob("*.py"):
        module = path.stem
        if module == "__init__":
            continue
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            name = getattr(stmt, "name", "<module>")
            for read in _names_read(stmt) - {name}:
                readers.setdefault(read, set()).add(f"{module}.{name}")
    return readers


def _test_node(node_id: str):
    """The definition that a pytest node id ``tests/<file>.py::[<class>::]<test>`` names, or None."""
    path, *names = node_id.split("::")
    file = pathlib.Path(__file__).parents[1] / path
    node = ast.parse(file.read_text()) if file.is_file() else None
    for name in names:
        node = next((child for child in getattr(node, "body", ()) if getattr(child, "name", None) == name), None)
    return node


class TestEveryFormHasAReader:
    """Each exported closed form is read by a comparison model in src, or by the test that checks it."""

    def test_every_export_is_classified_once(self):
        exported = {name for name, value in vars(edgeq).items() if not name.startswith("_") and not inspect.ismodule(value)}
        lists = (set(FORM_READERS), set(CHECKED_FORMS), NOT_FORMS)
        assert sum(map(len, lists)) == len(set().union(*lists)) and set().union(*lists) == exported
        from_analytic = {name for name in exported if getattr(vars(edgeq)[name], "__module__", "") == "edgeq.analytic"}
        assert from_analytic <= set(FORM_READERS) | set(CHECKED_FORMS)

    @pytest.mark.parametrize("form", sorted(FORM_READERS))
    def test_a_read_form_keeps_its_reader(self, form):
        assert FORM_READERS[form] in _readers().get(form, set())

    @pytest.mark.parametrize("form", sorted(CHECKED_FORMS))
    def test_a_checked_form_keeps_its_test(self, form):
        node = _test_node(CHECKED_FORMS[form])
        assert isinstance(node, ast.FunctionDef), f"{CHECKED_FORMS[form]} is not a test"
        assert form in _names_read(node)

    @pytest.mark.parametrize("form", sorted(CHECKED_FORMS))
    def test_an_unread_form_gains_a_reader_only_with_a_list_edit(self, form):
        # a new reader: move the form to FORM_READERS
        assert _readers().get(form, set()) == set()


def _unread_imports(path: pathlib.Path) -> set[str]:
    """The names a module imports, outside ``from __future__``, that it never loads."""
    tree = ast.parse(path.read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    bound = {
        (alias.asname or alias.name).split(".")[0]
        for node in imports if getattr(node, "module", None) != "__future__" for alias in node.names
    }
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


# __init__ imports to export, so it has no reads to check
SRC_MODULES = sorted(path for path in pathlib.Path(edgeq.__file__).parent.glob("*.py") if path.stem != "__init__")


@pytest.mark.parametrize("path", SRC_MODULES, ids=lambda path: path.stem)
def test_a_module_reads_every_name_it_imports(path):
    assert _unread_imports(path) == set()
