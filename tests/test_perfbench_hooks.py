"""The traced benchmark patches `tog` functions by name; keep those names alive.

`perfbench.measure._instrument` replaces each layer entry point with a traced
wrapper. A renamed or removed function would otherwise break only traced
benchmark runs; here it fails the test suite.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.measure import _instrument  # noqa: E402
from perfbench.tracing import SpanRecorder  # noqa: E402


def test_every_patched_function_exists_and_is_restored():
    recorder = SpanRecorder()
    try:
        _instrument(recorder)
        patched = list(recorder._patched)
    finally:
        recorder.restore()
    assert patched
    for module, attr, original in patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
