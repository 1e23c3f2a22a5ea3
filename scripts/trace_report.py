#!/usr/bin/env python3
"""Summarize a JSONL trace produced by ``Tracer.export_jsonl``.

Prints three sections: the per-span-name latency table (count / mean /
p50 / p99 of simulated time), the critical path of the slowest span,
and the busiest event labels by fired count. The report is a pure
function of the trace, so the same seed prints the same bytes. A trace
truncated by the ring buffer is flagged loudly with its dropped-span
count.

With ``--json`` the same analysis is emitted as one JSON document so CI
and ``scripts/dashboard_report.py`` can consume it without screen-
scraping the text tables.

Usage:
    python scripts/trace_report.py TRACE.jsonl [--top N] [--json]
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.obs.document import Document, to_text  # noqa: E402
from repro.obs.report import load_trace, report_json, trace_sections  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Summarize a repro.obs JSONL trace")
    parser.add_argument("trace", help="path to the JSONL trace file")
    parser.add_argument("--top", type=int, default=10,
                        help="hotspot rows to show (default 10)")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON instead of text")
    parser.add_argument("--strict", action="store_true",
                        help="exit nonzero when the trace was truncated "
                             "(spans_dropped > 0)")
    args = parser.parse_args(argv)

    trace = load_trace(args.trace)
    if not trace.records:
        print(f"no trace records in {args.trace}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report_json(trace, top=args.top), sort_keys=True,
                         indent=2))
    else:
        print(to_text(Document(sections=trace_sections(trace, top=args.top))))
    if args.strict and trace.dropped > 0:
        print(f"strict: {trace.dropped} spans dropped by the ring buffer "
              f"({args.trace} is incomplete; raise the capacity or enable "
              f"tail sampling)", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
