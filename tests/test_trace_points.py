"""The benchmark patches astra's functions under the names its callers bind
(`bench/spans.py` TRACE_POINTS).  Each name must stay bound, or the bench
fails long after the suite passed."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_trace_point_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    import astra.cli  # noqa: F401  (loads every module a trace point names)

    missing = [f"{owner}.{attr}" for owner, attr, _ in spans.TRACE_POINTS
               if not callable(getattr(spans.resolve(owner), attr, None))]
    assert missing == []
