"""Unit tests for result archiving and run comparison."""

import dataclasses
import enum

import pytest

from repro.experiments.reporting import (
    SCHEMA_VERSION,
    compare_runs,
    load_result,
    numeric_view,
    save_result,
    to_jsonable,
)


class Color(enum.Enum):
    RED = "red"


@dataclasses.dataclass
class Inner:
    value: float
    tag: str


@dataclasses.dataclass
class Outer:
    name: str
    inner: Inner
    series: list
    table: dict


def sample_result():
    return Outer(
        name="exp",
        inner=Inner(value=1.5, tag="t"),
        series=[1.0, 2.0, 3.0],
        table={(10, "static"): 0.5, (10, "dynamic"): 0.25},
    )


class TestToJsonable:
    def test_dataclasses_recursive(self):
        data = to_jsonable(sample_result())
        assert data["inner"] == {"value": 1.5, "tag": "t"}
        assert data["series"] == [1.0, 2.0, 3.0]

    def test_tuple_keys_stringified(self):
        data = to_jsonable(sample_result())
        assert data["table"]["10|static"] == 0.5

    def test_enum_by_value(self):
        assert to_jsonable(Color.RED) == "red"

    def test_sets_sorted(self):
        assert to_jsonable({3, 1, 2}) == [1, 2, 3]

    def test_unknown_objects_fall_back_to_repr(self):
        class Strange:
            def __repr__(self):
                return "<strange>"

        assert to_jsonable(Strange()) == "<strange>"


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "out" / "exp.json"
        written = save_result(sample_result(), path, name="exp")
        loaded = load_result(path)
        assert loaded == written
        assert loaded["schema_version"] == SCHEMA_VERSION
        assert loaded["experiment"] == "exp"
        assert loaded["payload"]["inner"]["value"] == 1.5

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "c.json"
        save_result({"x": 1}, path, name="exp")
        assert path.exists()

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 99, "experiment": "e", "payload": {}}')
        with pytest.raises(ValueError):
            load_result(path)

    def test_load_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1}')
        with pytest.raises(ValueError):
            load_result(path)


class TestCompare:
    def archive(self, tmp_path, name, payload, filename):
        path = tmp_path / filename
        save_result(payload, path, name=name)
        return load_result(path)

    def test_numeric_view_flattens(self, tmp_path):
        doc = self.archive(tmp_path, "e", {"a": 1.0, "b": {"c": [2.0, 3.0]}}, "x.json")
        numbers = numeric_view(doc)
        assert numbers["a"] == 1.0
        assert numbers["b.c[1]"] == 3.0

    def test_identical_runs_have_no_drift(self, tmp_path):
        a = self.archive(tmp_path, "e", {"v": 10.0}, "a.json")
        b = self.archive(tmp_path, "e", {"v": 10.0}, "b.json")
        assert compare_runs(a, b) == []

    def test_drift_detected(self, tmp_path):
        a = self.archive(tmp_path, "e", {"v": 10.0, "w": 1.0}, "a.json")
        b = self.archive(tmp_path, "e", {"v": 12.0, "w": 1.01}, "b.json")
        drifted = compare_runs(a, b, tolerance=0.05)
        paths = [p for p, *_ in drifted]
        assert "v" in paths and "w" not in paths

    def test_near_zero_baseline_uses_absolute_delta(self, tmp_path):
        a = self.archive(tmp_path, "e", {"v": 0.0}, "a.json")
        b = self.archive(tmp_path, "e", {"v": 0.01}, "b.json")
        assert compare_runs(a, b, tolerance=0.05) == []
        c = self.archive(tmp_path, "e", {"v": 0.2}, "c.json")
        assert len(compare_runs(a, c, tolerance=0.05)) == 1

    def test_a_path_only_one_archive_has_is_drift(self, tmp_path):
        """A lost row or a ``null`` payload used to compare as "no drift"."""
        full = self.archive(tmp_path, "e", {"rows": [[1, 2.0], [2, 4.0]]}, "a.json")
        short = self.archive(tmp_path, "e", {"rows": [[1, 2.0]]}, "b.json")
        empty = self.archive(tmp_path, "e", None, "c.json")
        assert compare_runs(full, short) == [
            ("rows[1][0]", 2.0, None, float("inf")),
            ("rows[1][1]", 4.0, None, float("inf")),
        ]
        assert [(p, old) for p, old, *_ in compare_runs(empty, short)] == [
            ("rows[0][0]", None), ("rows[0][1]", None),
        ]

    def test_different_experiments_rejected(self, tmp_path):
        a = self.archive(tmp_path, "e1", {"v": 1.0}, "a.json")
        b = self.archive(tmp_path, "e2", {"v": 1.0}, "b.json")
        with pytest.raises(ValueError):
            compare_runs(a, b)

    def test_booleans_are_not_numbers(self, tmp_path):
        a = self.archive(tmp_path, "e", {"flag": True}, "a.json")
        assert numeric_view(a) == {}

    def test_archiving_a_real_figure_result(self, tmp_path):
        from repro.experiments.figures import TINY_SCALE, figure6

        result = figure6(TINY_SCALE, alphas=(0.0, 0.9))
        doc = save_result(result, tmp_path / "fig6.json", name="figure6")
        numbers = numeric_view(doc)
        # rows[i] is (alpha, static CoV, dynamic CoV).
        assert numbers["rows[0][1]"] == result.row(0.0)[1]
        assert numbers["rows[1][2]"] == result.row(0.9)[2]
