"""Property-based tests for the fault subsystem.

Three contracts, fuzzed rather than pinned:

* the degraded-mode replanner always lands ``dopt`` inside the feasible
  band ``[min_distance_m, d0_remaining]`` (the paper's Eq. 2 domain);
* sampled crash distances realise the Eq.-1 exponential law — the
  empirical survival frequency converges to ``δ(d) = exp(-ρ·x)``;
* exponential backoff delays are monotone non-decreasing and bounded
  by the policy ceiling, for any valid policy.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import airplane_scenario, quadrocopter_scenario
from repro.core.strategies import replan_after_interruption
from repro.faults import sample_crash_distance_m
from repro.net import ExponentialBackoff, RetryPolicy
from repro.sim import RandomStreams

scenarios = st.sampled_from(["quadrocopter", "airplane"])
_FACTORIES = {
    "quadrocopter": quadrocopter_scenario,
    "airplane": airplane_scenario,
}


class TestReplanProperties:
    @given(
        name=scenarios,
        remaining_mbit=st.floats(min_value=1.0, max_value=500.0),
        distance_now_m=st.floats(min_value=1.0, max_value=400.0),
        elapsed_s=st.floats(min_value=0.0, max_value=200.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_dopt_stays_in_feasible_band(
        self, name, remaining_mbit, distance_now_m, elapsed_s
    ):
        scn = _FACTORIES[name]()
        plan = replan_after_interruption(
            scn,
            remaining_data_bits=remaining_mbit * 1e6,
            distance_now_m=distance_now_m,
            elapsed_s=elapsed_s,
        )
        d0_remaining = min(
            max(distance_now_m, scn.min_distance_m), scn.contact_distance_m
        )
        assert scn.min_distance_m - 1e-6 <= plan.dopt_m <= d0_remaining + 1e-6

    @given(name=scenarios, deadline_s=st.floats(min_value=1.0, max_value=500.0))
    @settings(max_examples=30, deadline=None)
    def test_deadline_remaining_never_negative(self, name, deadline_s):
        scn = _FACTORIES[name]()
        plan = replan_after_interruption(
            scn,
            remaining_data_bits=1e7,
            distance_now_m=scn.contact_distance_m,
            elapsed_s=400.0,
            deadline_s=deadline_s,
        )
        assert plan.deadline_remaining_s >= 0.0
        assert plan.deadline_remaining_s == max(0.0, deadline_s - 400.0)


class TestCrashDistanceProperties:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    # A 3.5-sigma bound on three survival points misfires on about one
    # seed in 1300 (1520, 2225 and 2476 in 0..3999), and the example
    # database then replays that seed on every later run.  Deriving the
    # seeds from the test itself keeps the bound exact and the run
    # reproducible.
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_survival_frequency_matches_eq1(self, seed):
        """Empirical P(survive x) ~ exp(-rho*x), the paper's delta."""
        rho = 2.46e-4  # quadrocopter hazard per metre
        rng = RandomStreams(seed).get("faults.crash")
        samples = np.array(
            [sample_crash_distance_m(rng, rho) for _ in range(3000)]
        )
        assert np.all(samples > 0)
        for x in (500.0, 2000.0, 8000.0):
            survived = float((samples > x).mean())
            delta = math.exp(-rho * x)
            # 3000 Bernoulli trials: ~3 sigma of binomial noise.
            sigma = math.sqrt(delta * (1.0 - delta) / 3000.0)
            assert abs(survived - delta) < 3.5 * sigma + 1e-3

    @given(
        rho=st.floats(min_value=1e-5, max_value=1e-2),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_samples_positive_and_deterministic(self, rho, seed):
        first = sample_crash_distance_m(
            RandomStreams(seed).get("faults.crash"), rho
        )
        again = sample_crash_distance_m(
            RandomStreams(seed).get("faults.crash"), rho
        )
        assert first > 0
        assert first == again


policies = st.builds(
    RetryPolicy,
    base_delay_s=st.floats(min_value=1e-3, max_value=2.0),
    max_delay_s=st.floats(min_value=2.0, max_value=60.0),
    growth_factor=st.floats(min_value=1.0, max_value=4.0),
)


class TestBackoffProperties:
    @given(policy=policies, n=st.integers(min_value=1, max_value=64))
    @settings(max_examples=80, deadline=None)
    def test_delays_monotone_and_bounded(self, policy, n):
        backoff = ExponentialBackoff(policy)
        delays = [backoff.next_delay_s() for _ in range(n)]
        assert delays[0] == policy.base_delay_s
        for earlier, later in zip(delays, delays[1:]):
            assert later >= earlier  # monotone non-decreasing
        assert all(d <= policy.max_delay_s for d in delays)  # bounded
        assert backoff.retries == n

    @given(policy=policies, n=st.integers(min_value=1, max_value=32))
    @settings(max_examples=40, deadline=None)
    def test_reset_restarts_the_schedule(self, policy, n):
        backoff = ExponentialBackoff(policy)
        for _ in range(n):
            backoff.next_delay_s()
        backoff.reset()
        assert backoff.retries == 0
        assert backoff.next_delay_s() == policy.base_delay_s
