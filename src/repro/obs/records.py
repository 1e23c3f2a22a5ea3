"""The one record format of every exported log, and the artifact names.

Fault, SLO, decision, trace and TSDB logs are JSON Lines in the encoding
of :func:`encode` (sorted keys, no spaces, one record per line), written
by :func:`write_jsonl` and read by :func:`read_jsonl`, so same-seed runs
write the same bytes. :data:`ARTIFACTS` names the files of a run's
artifact set, as a cell directory holds them.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Iterator

ARTIFACTS = {
    "trace": "trace.jsonl",
    "tsdb": "tsdb.jsonl",
    "faults": "faults.jsonl",
    "slo": "slo.jsonl",
    "control": "control.jsonl",
    "profile": "profile.json",
    "collapsed": "profile.collapsed",
}


def encode(record: Any) -> str:
    """``record`` as canonical JSON on one line.

    A value JSON cannot hold (a span attribute, say) is written as its
    ``str``.
    """
    return json.dumps(record, sort_keys=True, separators=(",", ":"),
                      default=str)


def write_jsonl(path: str, records: Iterable[Any]) -> int:
    """Write ``records`` to ``path``, one per line; returns the count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(encode(record))
            fh.write("\n")
            count += 1
    return count


def read_jsonl(path: str) -> Iterator[Dict[str, Any]]:
    """Yield the records of a JSONL file; blank lines are skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)
