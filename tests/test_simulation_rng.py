"""Unit tests for named random streams."""

import pytest

from repro.simulation.rng import RandomStreams, derive_seed


class TestDeriveSeed:
    @pytest.mark.parametrize(
        "parts, expected",
        [
            # One label: the stream form (RandomStreams, fault injector,
            # churn timeline, strategy seed) and the sweeps' corpus/trace
            # seeds, which used to go through a second definition.
            ((7, "fault-injector"), 12384334453386346612),
            ((0, "faults:3"), 13897554339444974401),
            ((42, "zoo-trace"), 18185853599559634447),
            # Two labels: resilience's and chaos's per-rate seeds.
            ((42, "loss", 0.1), 2656604763014388664),
            ((42, "chaos-churn", 0.05), 9230180160408609412),
            ((1, "a", 2), 13335118564629491481),
        ],
    )
    def test_every_call_shape_keeps_its_value(self, parts, expected):
        """Pinned when the two definitions became one: a moved value would
        silently change every derived trace, corpus and fault stream."""
        assert derive_seed(*parts) == expected

    def test_deterministic(self):
        assert derive_seed(42, "x") == derive_seed(42, "x")

    def test_name_sensitivity(self):
        assert derive_seed(42, "x") != derive_seed(42, "y")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_adjacent_seeds_decorrelated(self):
        # SHA-derived child seeds should differ in far more than the low bits.
        a = derive_seed(1, "requests")
        b = derive_seed(2, "requests")
        assert bin(a ^ b).count("1") > 8


class TestRandomStreams:
    def test_same_name_returns_same_stream(self):
        streams = RandomStreams(0)
        assert streams.get("a") is streams.get("a")

    def test_different_names_are_independent(self):
        streams = RandomStreams(0)
        a = [streams.get("a").random() for _ in range(5)]
        b = [streams.get("b").random() for _ in range(5)]
        assert a != b

    def test_streams_reproducible_across_instances(self):
        first = [RandomStreams(9).get("req").random() for _ in range(3)]
        second = [RandomStreams(9).get("req").random() for _ in range(3)]
        assert first == second

    def test_stream_isolated_from_consumption_of_other_streams(self):
        lhs = RandomStreams(5)
        rhs = RandomStreams(5)
        # Consuming "noise" heavily on one side must not shift "requests".
        for _ in range(1000):
            lhs.get("noise").random()
        assert lhs.get("requests").random() == rhs.get("requests").random()

    def test_reset_rederives(self):
        streams = RandomStreams(3)
        first = streams.get("s").random()
        streams.reset()
        assert streams.get("s").random() == first
