"""The benchmark patches astra's functions under the names its callers bind
(`bench/spans.py` TRACE_POINTS), and its set-up probe imports astra.data's
functions by name.  Each name must stay bound, or the bench fails long after
the suite passed."""

import ast
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


def test_every_trace_point_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    import astra.cli  # noqa: F401  (loads every module a trace point names)

    missing = [f"{owner}.{attr}" for owner, attr, _ in spans.TRACE_POINTS
               if not callable(getattr(spans.resolve(owner), attr, None))]
    assert missing == []


def test_setup_probe_imports_resolve():
    # bench/setup_probe.py times its own `from astra.data import ...`.
    import astra.data

    tree = ast.parse((BENCH / "setup_probe.py").read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "astra.data"
             for alias in node.names]
    assert names
    assert [n for n in names if not callable(getattr(astra.data, n, None))] == []
