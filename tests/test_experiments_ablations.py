"""Smoke + shape tests for the ablation studies (tiny scale).

Each study's table is the registry's shared smoke run (``smoke`` fixture).
"""

import pytest

from repro.experiments.sweeps import SweepTable


class TestAblationResult:
    def test_column_access(self):
        result = SweepTable(("x", ""), ("a", "b"), rows=[(1, 2), (3, 4)])
        assert result.column("a") == [1, 3]
        assert result.column("b") == [2, 4]
        assert result.record(3) == {"a": 3, "b": 4}

    def test_unknown_column_raises(self):
        result = SweepTable(("x", ""), ("a",), rows=[(1,)])
        with pytest.raises(ValueError):
            result.column("zzz")
        with pytest.raises(KeyError):
            result.row(2)

    def test_render_contains_rows(self):
        result = SweepTable(
            ("Ablation: my study", ""), ("a",), rows=[(1.5,)], precision=3
        )
        rendered = result.render()
        assert "my study" in rendered
        assert "1.500" in rendered


class TestLoadInformation:
    def test_two_regimes(self, smoke):
        result = smoke("load-info").result
        labels = result.column("load info")
        assert labels == ["CIrHLd (exact)", "CAvgLoad (approx)"]
        for cov in result.column("CoV"):
            assert 0.0 <= cov < 2.0


class TestConsistentHashing:
    def test_three_schemes_and_hop_costs(self, smoke):
        result = smoke("consistent-hashing").result
        assert set(result.column("scheme")) == {"static", "consistent", "dynamic"}
        # Consistent hashing pays log2(10) ≈ 4 hops + response per lookup.
        assert (
            result.record("consistent")["control msgs/lookup"]
            > result.record("static")["control msgs/lookup"]
        )


class TestThreshold:
    def test_monotone_storage(self, smoke):
        result = smoke("threshold").result
        assert result.column("threshold") == [0.1, 0.5, 0.9]
        stored = result.column("docs stored/cache (%)")
        assert stored[0] >= stored[1] >= stored[2]
        assert all(0.0 <= s <= 100.0 for s in stored)


class TestCycleLength:
    def test_migration_decreases_with_period(self, smoke):
        result = smoke("cycle-length").result
        assert result.column("cycle (min)") == [2.0, 10.0]
        migrated = result.column("directory entries migrated")
        assert migrated[0] >= migrated[1]
