"""Unit tests for JSON export."""

import json

from repro.experiments.common import ExperimentResult
from repro.metrics.export import result_to_json


def sample_result():
    return ExperimentResult(
        name="figX",
        title="Title",
        headers=["a", "b"],
        rows=[["x", 1.5], ["y", float("nan")]],
        notes="note",
        extras={"k": {"nested": 2.0}, ("tuple", "key"): [1, 2]},
    )


class TestResultJson:
    def test_round_trips(self):
        payload = json.loads(result_to_json(sample_result()))
        assert payload["name"] == "figX"
        assert payload["headers"] == ["a", "b"]
        assert payload["rows"][0] == ["x", 1.5]
        assert payload["rows"][1][1] is None  # NaN -> null
        assert "extras" not in payload

    def test_extras_on_request(self):
        payload = json.loads(result_to_json(sample_result(), include_extras=True))
        assert payload["extras"]["k"] == {"nested": 2.0}
        assert payload["extras"]["('tuple', 'key')"] == [1, 2]

    def test_infinity_encoded(self):
        result = sample_result()
        result.rows = [["inf", float("inf")]]
        payload = json.loads(result_to_json(result))
        assert payload["rows"][0][1] == "inf"
