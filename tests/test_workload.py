"""Generator tests: statistical targets, seeding, and thinning correctness."""
import cProfile
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import edgeq
from edgeq import (
    DomainError,
    RenewalSpec,
    SeededStream,
    SinusoidProfile,
    UnreachableScv,
    nhpp_sinusoidal,
    phase_shifted_sites,
    poisson_arrivals,
    renewal_times,
)
from edgeq.workload import BLOCK


class TestSeededStream:
    def test_identical_streams_reproduce_bitwise(self):
        a = SeededStream(12345, 7).generator().uniform(size=1000)
        b = SeededStream(12345, 7).generator().uniform(size=1000)
        assert np.array_equal(a, b)

    def test_distinct_stream_ids_differ(self):
        a = SeededStream(12345, 0).generator().uniform(size=100)
        b = SeededStream(12345, 1).generator().uniform(size=100)
        assert not np.array_equal(a, b)

    def test_child_appends_to_the_key(self):
        assert SeededStream(1, 5) == SeededStream(1, (5,))
        assert SeededStream(1, 5).child(3) == SeededStream(1, (5, 3))
        assert SeededStream(1).child(2, 7).key == (2, 7)

    def test_format_is_sfc64_with_pinned_first_draws(self):
        # the 0.2.0 stream format: a change here changes every seeded output
        rng = SeededStream(12345, (3, 1, 7)).generator()
        assert type(rng.bit_generator) is np.random.SFC64
        assert rng.bit_generator.random_raw(3).tolist() == [
            8854896125364655695, 9819564654115547345, 14561371257609136723,
        ]
        assert SeededStream(12345, (3, 1, 7)).generator().random(2).tolist() == [
            float.fromhex("0x1.eb8ba4716d5f4p-2"), float.fromhex("0x1.108c340da313dp-1"),
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        keys=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 3), st.integers(0, 200)),
                      min_size=2, max_size=2, unique=True),
    )
    def test_distinct_point_model_rep_keys_give_distinct_streams(self, seed, keys):
        a, b = (SeededStream(seed, key).generator().bit_generator.random_raw(4).tolist() for key in keys)
        assert a != b


def test_package_version_matches_pyproject():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1) == edgeq.__version__


class TestPoissonArrivals:
    def test_zero_horizon_is_empty(self):
        assert len(poisson_arrivals(100.0, 0.0, SeededStream(1).generator())) == 0

    def test_count_within_three_sigma(self):
        t = poisson_arrivals(100.0, 1000.0, SeededStream(2).generator())
        assert abs(len(t) - 100_000) <= 3 * math.sqrt(100_000)

    def test_sorted_strictly_increasing_in_range(self):
        t = poisson_arrivals(50.0, 100.0, SeededStream(3).generator())
        assert np.all(np.diff(t) > 0)
        assert t[0] >= 0 and t[-1] < 100.0

    def test_fixed_seed_reproduces_sequence(self):
        a = poisson_arrivals(10.0, 50.0, SeededStream(4, 2).generator())
        b = poisson_arrivals(10.0, 50.0, SeededStream(4, 2).generator())
        assert np.array_equal(a, b)

    def test_rejects_bad_rate(self):
        with pytest.raises(DomainError):
            poisson_arrivals(0.0, 10.0, SeededStream(1).generator())


class TestRenewalTimes:
    @pytest.mark.parametrize(
        "spec",  # (law, mean)
        [
            (RenewalSpec(1.0, "exponential"), 0.02),
            (RenewalSpec(0.0, "deterministic"), 1.0),
            (RenewalSpec(4.0, "hyperexponential2"), 0.5),
            (RenewalSpec(0.25, "erlang"), 2.0),
            (RenewalSpec(2.0, "lognormal"), 1.0),
        ],
    )
    def test_mean_and_scv_converge(self, spec):
        law, mean = spec
        x = renewal_times(law, mean, 1_000_000, SeededStream(10).generator())
        sigma = mean * math.sqrt(max(law.effective_scv, 1e-12) / len(x))
        assert abs(x.mean() - mean) <= 4 * sigma + 1e-12
        got_scv = x.var() / x.mean() ** 2
        assert got_scv == pytest.approx(law.effective_scv, abs=0.05 * max(law.effective_scv, 0.02))

    def test_balanced_means_fit(self):
        p, r1, r2 = RenewalSpec(4.0, "hyperexponential2").hyper2_params(1.0)
        assert p == pytest.approx(0.5 * (1 + math.sqrt(0.6)), rel=1e-12)
        assert r1 == pytest.approx(2 * p, rel=1e-12)
        assert r2 == pytest.approx(2 * (1 - p), rel=1e-12)

    def test_deterministic_samples_constant(self):
        x = renewal_times(RenewalSpec(0.0, "deterministic"), 1.0, 100, SeededStream(11).generator())
        assert np.all(x == 1.0)

    def test_erlang_snaps_to_nearest_stage_count_with_warning(self):
        spec = RenewalSpec(0.3, "erlang")  # 1/0.3 = 3.33 -> n = 3
        assert spec.erlang_stages == 3
        with pytest.warns(UserWarning, match="erlang"):
            renewal_times(spec, 1.0, 10, SeededStream(12).generator())

    def test_unreachable_scv_rejected(self):
        with pytest.raises(UnreachableScv):
            RenewalSpec(2.0, "exponential")
        with pytest.raises(UnreachableScv):
            RenewalSpec(0.5, "hyperexponential2")
        with pytest.raises(UnreachableScv):
            RenewalSpec(0.5, "deterministic")
        with pytest.raises(UnreachableScv):
            RenewalSpec(1.5, "erlang")
        with pytest.raises(UnreachableScv, match="lognormal requires scv > 0"):
            RenewalSpec(0.0, "lognormal")

    def test_unknown_family_rejected(self):
        with pytest.raises(DomainError):
            RenewalSpec(1.0, "weird")


class _PlacedDraws:
    """Stands in for a Generator: ``count`` from ``poisson``, then the given uniforms in turn from ``random``.

    ``random(size)`` serves the next array whole; ``random(out=buf)`` fills
    ``buf`` with the next ``len(buf)`` uniforms of the next array, so block
    draws must take it in order and never past its end. ``served`` says
    whether every given uniform has been drawn.
    """

    def __init__(self, count, *uniforms):
        self.count, self.uniforms, self.at = count, list(uniforms), 0

    def poisson(self, lam):
        return self.count

    def random(self, size=None, out=None):
        if out is None:
            assert size == self.count and self.at == 0
            return self.uniforms.pop(0).copy()
        assert size is None and out.dtype == np.float64 and out.flags.c_contiguous
        head = self.uniforms[0]
        assert 0 < len(out) <= len(head) - self.at, "a block draw runs past the uniforms given"
        out[...] = head[self.at:self.at + len(out)]
        self.at += len(out)
        if self.at == len(head):
            self.uniforms.pop(0)
            self.at = 0
        return out

    @property
    def served(self):
        return not self.uniforms


class TestNhppSinusoidal:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lambda_bar=st.floats(0.01, 50.0),
        amplitude=st.floats(0.0, 1.0),
        gamma=st.floats(1e-3, 10.0),
        phase=st.floats(0.0, 2 * math.pi),
        horizon=st.floats(0.0, 20.0),
    )
    def test_thinning_keeps_a_subset_of_the_envelope_candidates(
        self, seed, lambda_bar, amplitude, gamma, phase, horizon
    ):
        prof = SinusoidProfile(lambda_bar, amplitude, gamma, phase)
        stream = SeededStream(seed)
        kept = nhpp_sinusoidal(prof, horizon, stream.generator())
        candidates = poisson_arrivals(prof.peak_rate, horizon, stream.generator())
        assert np.isin(kept, candidates).all()

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lambda_bar=st.floats(0.1, 100.0),
        amplitude=st.floats(0.0, 1.0),
        gamma=st.floats(-3.0, 4.0).map(lambda e: 10.0**e),
        phase=st.floats(-1e3, 1e3),
        horizon=st.floats(0.0, 1000.0),
    )
    @example(seed=1, lambda_bar=100.0, amplitude=0.0, gamma=0.5, phase=0.0, horizon=1000.0)
    @example(seed=2, lambda_bar=100.0, amplitude=1.0, gamma=0.5, phase=-3.0, horizon=1000.0)
    @example(seed=3, lambda_bar=10.0, amplitude=0.5, gamma=1e4, phase=-1e3, horizon=1000.0)  # theta to 1e7
    def test_in_place_thinning_equals_the_plain_expression(
        self, seed, lambda_bar, amplitude, gamma, phase, horizon
    ):
        # bitwise: the float32 filter with its float64 fallback (the whole array where
        # theta reaches 2**18), the blocks, the in-place scaling and the sort of the kept
        # points keep every candidate and every decision of thin-then-sort
        prof = SinusoidProfile(lambda_bar, amplitude, gamma, phase)
        got = nhpp_sinusoidal(prof, horizon, SeededStream(seed).generator())
        rng = SeededStream(seed).generator()
        t = np.empty(0)
        if horizon > 0:
            t = rng.uniform(0.0, horizon, rng.poisson(prof.peak_rate * horizon))
        u = rng.uniform(0.0, 1.0, len(t))
        np.testing.assert_array_equal(got, np.sort(t[u * prof.peak_rate < prof.rate(t)]))

    @pytest.mark.parametrize(
        "prof",
        [
            SinusoidProfile(4.0, 1.0, 0.05),  # A = 1: the float32 filter, margin about 2e-4
            SinusoidProfile(8.0, 0.0, 0.05),  # A = 0: a flat rate equal to the peak
            SinusoidProfile(4.0, 1.0, 3.0, -2.5),  # a negative phase
            SinusoidProfile(4.0, 1.0, 100.0, -2.5),  # theta to 1e5: the float32 filter, margin 0.38
            SinusoidProfile(4.0, 1.0, 1e4, -2.5),  # theta to 1e7: delta >= 1, the exact path only
        ],
        ids=["amplitude-1", "amplitude-0", "negative-phase", "theta-1e5", "theta-1e7"],
    )
    def test_decisions_at_the_rate_and_one_ulp_either_side(self, prof):
        # u * peak lands on rate(t), one ulp below or one ulp above, over several
        # blocks: only the ulp below is kept, whichever path decides; each candidate
        # takes each place once
        horizon = 1000.0
        assert math.frexp(prof.peak_rate)[0] == 0.5  # a power of two, so u * peak is exact
        n = 3 * BLOCK + 123
        frac_t = np.random.default_rng(0).random(n)
        t = frac_t * horizon
        rate = prof.rate(t)
        places = [np.nextafter(rate, -np.inf), rate, np.nextafter(rate, np.inf)]
        for shift in range(3):
            side = (np.arange(n) + shift) % 3
            at = np.choose(side, places)
            draws = _PlacedDraws(n, frac_t, at / prof.peak_rate)
            kept = nhpp_sinusoidal(prof, horizon, draws)
            assert draws.served
            np.testing.assert_array_equal(kept, np.sort(t[side == 0]))

    def test_profiled_run_draws_the_same_arrivals(self):
        # a profiler holds an extra reference to the candidate array while it shrinks in place
        prof = SinusoidProfile(50.0, 1.0, 0.05)
        want = nhpp_sinusoidal(prof, 2000.0, SeededStream(25).generator())
        profiler = cProfile.Profile()
        got = profiler.runcall(nhpp_sinusoidal, prof, 2000.0, SeededStream(25).generator())
        np.testing.assert_array_equal(got, want)

    def test_flat_profile_matches_poisson_statistics(self):
        prof = SinusoidProfile(50.0, 0.0, 1.0)
        t = nhpp_sinusoidal(prof, 2000.0, SeededStream(20).generator())
        inter = np.diff(t)
        # KS against the exponential with the same rate
        stat = stats.kstest(inter, "expon", args=(0, 1 / 50.0))
        assert stat.pvalue > 0.01

    def test_bin_rates_track_the_profile(self):
        prof = SinusoidProfile(80.0, 0.5, 2 * math.pi / 100)
        horizon = 10_000.0
        t = nhpp_sinusoidal(prof, horizon, SeededStream(21).generator())
        n_bins, period = 100, prof.period
        width = period / n_bins
        idx = np.minimum((np.mod(t, period) / width).astype(int), n_bins - 1)
        counts = np.bincount(idx, minlength=n_bins)
        periods = horizon / period
        edges = np.arange(n_bins + 1) * width
        expected = prof.lambda_bar * (
            width - prof.amplitude / prof.gamma
            * (np.cos(prof.gamma * edges[1:]) - np.cos(prof.gamma * edges[:-1]))
        ) * periods
        assert np.all(np.abs(counts - expected) <= 3 * np.sqrt(expected))

    def test_count_over_whole_periods(self):
        prof = SinusoidProfile(40.0, 0.8, 2 * math.pi / 50)
        t = nhpp_sinusoidal(prof, 500.0, SeededStream(22).generator())
        assert abs(len(t) - 40.0 * 500) <= 3 * math.sqrt(40.0 * 500)

    def test_thinning_acceptance_chi_square(self):
        prof = SinusoidProfile(100.0, 0.7, 2 * math.pi / 10)
        horizon = 10_000.0
        t = nhpp_sinusoidal(prof, horizon, SeededStream(23).generator())
        n_bins = 100
        width = prof.period / n_bins
        idx = np.minimum((np.mod(t, prof.period) / width).astype(int), n_bins - 1)
        counts = np.bincount(idx, minlength=n_bins)
        edges = np.arange(n_bins + 1) * width
        expected = prof.lambda_bar * (
            width - prof.amplitude / prof.gamma
            * (np.cos(prof.gamma * edges[1:]) - np.cos(prof.gamma * edges[:-1]))
        ) * (horizon / prof.period)
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        pvalue = 1.0 - stats.chi2.cdf(chi2, df=n_bins - 1)
        assert pvalue > 0.001

    def test_phase_offset_respected(self):
        prof = SinusoidProfile(80.0, 0.9, 2 * math.pi / 100, phase=math.pi)
        t = nhpp_sinusoidal(prof, 5000.0, SeededStream(24).generator())
        phase = np.mod(t, 100.0)
        # with phase pi the first half-cycle is the trough
        first_half = np.sum(phase < 50.0)
        assert first_half < 0.45 * len(t)


class TestPhaseShiftedSites:
    def test_fixed_single_site_is_base(self):
        base = SinusoidProfile(10, 0.5, 1.0)
        (site,) = phase_shifted_sites(1, base, [0.0], SeededStream(30).generator())
        assert site == base

    def test_fixed_antiphase_pair(self):
        base = SinusoidProfile(10, 0.5, 1.0)
        sites = phase_shifted_sites(2, base, [0.0, math.pi], SeededStream(31).generator())
        assert [s.phase for s in sites] == [0.0, math.pi]

    def test_uniform_law_is_reproducible(self):
        base = SinusoidProfile(10, 0.7, 1.0)
        a = phase_shifted_sites(64, base, "uniform", SeededStream(32, 5).generator())
        b = phase_shifted_sites(64, base, "uniform", SeededStream(32, 5).generator())
        assert a == b
        assert all(0 <= s.phase < 2 * math.pi for s in a)

    def test_unknown_law_rejected(self):
        with pytest.raises(DomainError, match="unknown phase law 'gaussian'"):
            phase_shifted_sites(3, SinusoidProfile(10, 0.5, 1.0), "gaussian", SeededStream(33).generator())

    def test_wrong_list_length_rejected(self):
        with pytest.raises(DomainError):
            phase_shifted_sites(3, SinusoidProfile(10, 0.5, 1.0), [0.0], SeededStream(33).generator())
