"""The benchmark reaches into ropsim by attribute name; those names must exist.

`bench/spans.py` wraps each `(owner, attribute)` in its `TARGETS` and skips
a name that is missing, so a renamed or deleted function would silently
drop its span.  `drop_verdicts()` wraps two of the targets, `cli.run` and
`harness.run`, without that check.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402


def test_every_span_target_exists():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _name, _counter in spans.TARGETS
               if not hasattr(owner, attr)]
    assert missing == []

