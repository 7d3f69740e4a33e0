"""The RelayChain / RelayHop scenario model."""

import copy
import dataclasses

import pytest

from repro.core import airplane_scenario, quadrocopter_scenario
from repro.core.throughput import (
    LogFitThroughput,
    SpeedScaledThroughput,
    TableThroughput,
)
from repro.relay import RelayChain, RelayHop


class TestRelayHop:
    def test_negative_handoff_rejected(self, quad_scenario):
        with pytest.raises(ValueError, match="handoff_s"):
            RelayHop(scenario=quad_scenario, handoff_s=-1.0)

    def test_to_dict_echoes_scenario(self, quad_scenario):
        payload = RelayHop(scenario=quad_scenario, handoff_s=3.0).to_dict()
        assert payload["scenario"] == "quadrocopter"
        assert payload["handoff_s"] == 3.0
        assert payload["d0_m"] == quad_scenario.contact_distance_m
        assert payload["dmin_m"] == quad_scenario.min_distance_m


class TestRelayChainOf:
    def test_normalises_mdata_to_first_hop(self):
        chain = RelayChain.of(
            [quadrocopter_scenario(), airplane_scenario()]
        )
        bits = quadrocopter_scenario().data_bits
        assert all(h.scenario.data_bits == bits for h in chain.hops)
        assert chain.data_bits == bits

    def test_explicit_mdata_overrides_every_hop(self):
        chain = RelayChain.of(
            [quadrocopter_scenario(), airplane_scenario()], mdata_mb=2.0
        )
        assert all(h.scenario.data_bits == 2.0 * 8e6 for h in chain.hops)

    def test_scalar_handoff_skips_first_hop(self):
        chain = RelayChain.of(
            [quadrocopter_scenario()] * 3, handoff_s=4.0
        )
        assert [h.handoff_s for h in chain.hops] == [0.0, 4.0, 4.0]
        assert chain.total_handoff_s == 8.0

    def test_handoff_sequence_of_n_minus_one(self):
        chain = RelayChain.of(
            [quadrocopter_scenario()] * 3, handoff_s=[1.0, 2.0]
        )
        assert [h.handoff_s for h in chain.hops] == [0.0, 1.0, 2.0]

    def test_handoff_sequence_of_n(self):
        chain = RelayChain.of(
            [quadrocopter_scenario()] * 2, handoff_s=[0.5, 1.5]
        )
        assert [h.handoff_s for h in chain.hops] == [0.5, 1.5]

    def test_wrong_handoff_length_rejected(self):
        with pytest.raises(ValueError, match="one entry per hop"):
            RelayChain.of(
                [quadrocopter_scenario()] * 3, handoff_s=[1.0]
            )

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError, match="at least one hop"):
            RelayChain.of([])
        with pytest.raises(ValueError, match="at least one hop"):
            RelayChain(name="empty", hops=())

    def test_bad_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline_s"):
            RelayChain.of([quadrocopter_scenario()], deadline_s=0.0)


class TestRelayChainSurface:
    def test_scenarios_in_chain_order(self):
        chain = RelayChain.of(
            [quadrocopter_scenario(), airplane_scenario()]
        )
        names = [scn.name for scn in chain.scenarios()]
        assert names == ["quadrocopter", "airplane"]
        assert chain.n_hops == 2

    def test_cache_key_covers_handoff_and_deadline(self):
        base = [quadrocopter_scenario(), airplane_scenario()]
        key = RelayChain.of(base, handoff_s=5.0).cache_key()
        assert key is not None
        assert key != RelayChain.of(base, handoff_s=6.0).cache_key()
        assert key != RelayChain.of(
            base, handoff_s=5.0, deadline_s=60.0
        ).cache_key()

    def test_uncacheable_hop_poisons_the_chain_key(self):
        quad = quadrocopter_scenario()
        opaque = dataclasses.replace(quad, throughput=object())
        chain = RelayChain.of([quad, opaque])
        assert chain.cache_key() is None

    def test_to_dict_shape(self):
        chain = RelayChain.of(
            [quadrocopter_scenario()] * 2,
            handoff_s=5.0,
            name="pair",
            deadline_s=120.0,
        )
        payload = chain.to_dict()
        assert payload["chain"] == "pair"
        assert payload["n_hops"] == 2
        assert payload["deadline_s"] == 120.0
        assert len(payload["hops"]) == 2


NAN, INF = float("nan"), float("inf")


class TestNonFiniteInputsRejected:
    """A NaN or infinite input would make the chain utility NaN (or the
    ranking meaningless); the chain model refuses it up front."""

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_handoff(self, quad_scenario, value):
        with pytest.raises(ValueError, match="handoff_s must be non-negative"):
            RelayHop(scenario=quad_scenario, handoff_s=value)

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_handoff_through_of(self, value):
        with pytest.raises(ValueError, match="handoff_s"):
            RelayChain.of([quadrocopter_scenario()] * 2, handoff_s=value)

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_deadline(self, value):
        with pytest.raises(ValueError, match="deadline_s must be positive"):
            RelayChain.of([quadrocopter_scenario()], deadline_s=value)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("contact_distance_m", NAN),
            ("contact_distance_m", INF),
            ("min_distance_m", NAN),
            ("min_distance_m", -INF),
            ("cruise_speed_mps", NAN),
            ("cruise_speed_mps", INF),
            ("failure_rate_per_m", NAN),
            ("failure_rate_per_m", INF),
            ("data_bits_override", NAN),
            ("data_bits_override", INF),
        ],
    )
    def test_hop_scenario_fields(self, quad_scenario, field, value):
        # The scenario refuses these values itself...
        with pytest.raises(ValueError):
            dataclasses.replace(quad_scenario, **{field: value})
        # ...and the hop refuses a scenario that got past that check.
        scenario = copy.copy(quad_scenario)
        object.__setattr__(scenario, field, value)
        name = "data_bits" if field == "data_bits_override" else field
        with pytest.raises(ValueError, match=f"hop {name} must be finite"):
            RelayHop(scenario=scenario)

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_mdata_through_of(self, value):
        # The rewritten hop scenario refuses it before the hop sees it.
        with pytest.raises(ValueError, match="data_bits must be finite"):
            RelayChain.of([quadrocopter_scenario()], mdata_mb=value)

    @pytest.mark.parametrize(
        "model",
        [
            LogFitThroughput(NAN, 73.0),
            LogFitThroughput(-10.5, INF),
            LogFitThroughput(-10.5, 73.0, speed_scale_mps=NAN),
            TableThroughput({20.0: 5e7, 100.0: NAN}),
            SpeedScaledThroughput(LogFitThroughput(-10.5, NAN)),
        ],
    )
    def test_hop_throughput_model(self, quad_scenario, model):
        scenario = dataclasses.replace(quad_scenario, throughput=model)
        with pytest.raises(ValueError, match="hop throughput model must be finite"):
            RelayHop(scenario=scenario)

    def test_finite_inputs_still_accepted(self, quad_scenario):
        hop = RelayHop(scenario=quad_scenario, handoff_s=0.0)
        chain = RelayChain(name="ok", hops=(hop,), deadline_s=1e-9)
        assert chain.deadline_s == 1e-9
