"""Export experiment results to JSON.

The benchmark harness prints text tables; downstream users who want to plot
with their own tooling can dump the same data structurally (the CLI's
``--json``)::

    from repro.metrics.export import result_to_json
    result = run_fig09()
    pathlib.Path("fig09.json").write_text(result_to_json(result))
"""

from __future__ import annotations

import json
import math
from typing import Any


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of cells/extras to JSON-safe values."""
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "tolist"):  # numpy scalars/arrays
        return _jsonable(value.tolist())
    if hasattr(value, "__dict__") or hasattr(value, "_asdict"):
        return repr(value)
    return repr(value)


def result_to_json(result, include_extras: bool = False, indent: int = 2) -> str:
    """Serialize an :class:`~repro.experiments.common.ExperimentResult`.

    ``extras`` often hold rich objects (summaries, timelines); they are
    included only on request and converted best-effort."""
    payload = {
        "name": result.name,
        "title": result.title,
        "headers": list(result.headers),
        "rows": _jsonable(result.rows),
        "notes": result.notes,
    }
    if include_extras:
        payload["extras"] = {str(k): _jsonable(v) for k, v in result.extras.items()}
    return json.dumps(payload, indent=indent)
