"""Bench-side spans: per-layer host time measured from outside ``repro``.

The traced run records one span per fired simulator callback (layer =
the callback's defining module) and one per call of a public
cross-layer entry point (``ENTRY_POINTS``). Spans stay in memory, one
column per field (``name, layer, start, end, parent, trace, within``; a
span's id is its index), so a million spans add no objects for the
garbage collector to walk:

- ``parent`` is the span that *caused* this one — the span that
  scheduled the callback, or the caller of the entry point;
- ``within`` is the span that was *executing* when this one ran — for a
  fired callback that is the ``sim.run_until`` slice, not the scheduler;
- ``trace`` is the operation the span belongs to (0 = none), inherited
  from the causing span and set by ``begin_op``.

A layer's self time is its spans' duration minus the part of that
interval the spans running ``within`` them cover, so the slice spans'
self time is the engine's own loop (layer ``sim``). Every patched
attribute is restored by ``uninstall``.
"""

from __future__ import annotations

import importlib
import json
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

LAYERS = ("sim", "net", "transport", "http", "nocdn", "attic", "erasure",
          "dcol", "iah", "faults", "control", "obs", "workloads", "other")

# Top-level package under src/repro -> layer. ``repro.util.erasure`` is
# its own layer; the rest of ``util`` and the glue packages are "other".
_PACKAGE_LAYER = {
    "sim": "sim", "net": "net", "transport": "transport", "http": "http",
    "nocdn": "nocdn", "attic": "attic", "dcol": "dcol", "iah": "iah",
    "faults": "faults", "control": "control", "obs": "obs",
    "metrics": "obs", "workloads": "workloads",
    "hpop": "other", "naming": "other", "nat": "other", "webdav": "other",
    "cdn": "other", "util": "other", "experiments": "other",
}
# The load generator outside src/repro: this benchmark's scenarios and
# the chaos world that lives with the integration tests.
_GENERATOR_MODULE = "scenarios"

SPAN_FIELDS = ("name", "layer", "start", "end", "parent", "trace", "within")


def layer_of_module(module: Optional[str]) -> Optional[str]:
    """The one layer a module's code is charged to, or None."""
    if not module:
        return None
    parts = module.split(".")
    if parts[0] == "repro":
        if module == "repro.util.erasure":
            return "erasure"
        if len(parts) == 1:
            return "other"
        return _PACKAGE_LAYER.get(parts[1])
    if parts[0] == "tests" or module == _GENERATOR_MODULE:
        return "workloads"
    return None


class Spans:
    """Columnar span store; row ``i`` is span ``i``."""

    def __init__(self) -> None:
        self.name: List[str] = []
        self.layer: List[Optional[str]] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.trace = array("q")
        self.within = array("q")

    def __len__(self) -> int:
        return len(self.name)

    def add(self, name: str, layer: Optional[str], start: float, end: float,
            parent: int = -1, trace: int = 0, within: int = -1) -> int:
        for column, value in zip(self.columns(), (name, layer, start, end,
                                                  parent, trace, within)):
            column.append(value)
        return len(self.name) - 1

    def columns(self) -> tuple:
        return (self.name, self.layer, self.start, self.end, self.parent,
                self.trace, self.within)


class Recorder:
    """Span store plus the counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.spans = Spans()
        self.active = False
        self.current = -1     # span now executing (-1 = none)
        self.trace = 0        # operation now executing (0 = none)
        self.peak_pending = 0
        self.tally: Dict[str, float] = {}
        # operation -> deepest tier its page load needed (0 local,
        # 1 neighbour, 2 origin), noted at HttpClient.request.
        self.op_tier: Dict[int, int] = {}
        self._layer_cache: Dict[Optional[str], Optional[str]] = {}

    def layer_of(self, fn: Callable) -> Optional[str]:
        module = getattr(fn, "__module__", None)
        try:
            return self._layer_cache[module]
        except KeyError:
            layer = self._layer_cache[module] = layer_of_module(module)
            return layer

    def add(self, key: str, amount: float = 1) -> None:
        self.tally[key] = self.tally.get(key, 0) + amount

    def begin_op(self, op: int) -> None:
        """The executing span starts operation ``op``: it and whatever
        it causes from here on carry the operation's trace id."""
        self.trace = op + 1

    def call(self, name: str, layer: Optional[str], parent: int, trace: int,
             fn: Callable, args: tuple = (), kwargs: Optional[dict] = None):
        """Run ``fn`` as a span caused by ``parent``."""
        spans = self.spans
        within, outer_trace = self.current, self.trace
        sid = len(spans.name)
        spans.name.append(name)
        spans.layer.append(layer)
        spans.start.append(0.0)
        spans.end.append(0.0)
        spans.parent.append(parent)
        spans.trace.append(trace)
        spans.within.append(within)
        self.current, self.trace = sid, trace
        spans.start[sid] = perf_counter()
        try:
            return fn(*args, **kwargs) if kwargs else fn(*args)
        finally:
            spans.end[sid] = perf_counter()
            # begin_op inside the span re-labels it and what it causes.
            spans.trace[sid] = self.trace
            self.current, self.trace = within, outer_trace

    def root(self, name: str, layer: str, fn: Callable, *args):
        """A span with no cause: a slice, the schedule push, the drain."""
        return self.call(name, layer, -1, 0, fn, args)


# -- entry points ----------------------------------------------------------------------

# A ``before`` hook may replace the call's arguments (to count a
# callback it passes on); an ``after`` note runs with the recorder, the
# call's positional arguments (self first), keyword arguments and result.


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _with_arg(args: tuple, kwargs: dict, index: int, name: str, value):
    if len(args) > index:
        return args[:index] + (value,) + args[index + 1:], kwargs
    return args, {**kwargs, name: value}


def _count_completion(rec, args, kwargs):
    """TcpConnection.transfer: a flow that fails on a dead path never
    calls back, so failures are the transfers that did not complete."""
    rec.add("transport.bytes", _arg(args, kwargs, 1, "nbytes"))
    on_complete = _arg(args, kwargs, 3, "on_complete")

    def completed(flow):
        rec.add("transport.flows_completed")
        on_complete(flow)

    return _with_arg(args, kwargs, 3, "on_complete", completed)


def _count_error(rec, args, kwargs):
    """HttpClient.request: count the exchanges that end in on_error."""
    on_error = _arg(args, kwargs, 7, "on_error")

    def errored(exc):
        rec.add("http.errors")
        if on_error is not None:
            on_error(exc)

    return _with_arg(args, kwargs, 7, "on_error", errored)


def _note_start_transfer(rec, args, kwargs, _transfer) -> None:
    rec.add("transport.bytes", _arg(args, kwargs, 2, "nbytes"))


def _note_lookup(rec, _args, _kwargs, result) -> None:
    rec.add("http.cache_lookups")
    if result[0].name == "FRESH":
        rec.add("http.cache_hits")


def _note_encode(rec, args, _kwargs, _shards) -> None:
    rec.add("erasure.encode_bytes", len(args[1]))


def _note_decode(rec, _args, _kwargs, payload) -> None:
    rec.add("erasure.decode_bytes", len(payload))


def _note_request(rec, args, kwargs, _none) -> None:
    request = _arg(args, kwargs, 2, "request")
    if request.path.startswith("/objects/"):
        tier = 2
    elif "X-NoCdn-Hop" in request.headers:
        tier = 1
    else:
        return
    if rec.trace and rec.op_tier.get(rec.trace, 0) < tier:
        rec.op_tier[rec.trace] = tier


class EntryPoint(NamedTuple):
    module: str
    cls: str
    method: str
    layer: str
    before: Optional[Callable] = None
    after: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.cls}.{self.method}"


E = EntryPoint
ENTRY_POINTS = (
    E("repro.net.network", "Network", "path_between", "net"),
    E("repro.transport.tcp", "TcpConnection", "establish", "transport"),
    E("repro.transport.tcp", "TcpConnection", "transfer", "transport",
      before=_count_completion),
    E("repro.transport.mptcp", "MptcpConnection", "add_subflow", "transport"),
    E("repro.http.client", "HttpClient", "request", "http",
      before=_count_error, after=_note_request),
    E("repro.http.server", "HttpServer", "handle", "http"),
    E("repro.http.cache", "HttpCache", "lookup", "http", after=_note_lookup),
    E("repro.http.cache", "HttpCache", "store", "http"),
    E("repro.nocdn.origin", "ContentProvider", "build_wrapper", "nocdn"),
    E("repro.nocdn.origin", "ContentProvider", "alive_peers", "nocdn"),
    E("repro.nocdn.origin", "ContentProvider", "register_peer", "nocdn"),
    E("repro.nocdn.origin", "ContentProvider", "expel_peer", "nocdn"),
    E("repro.nocdn.origin", "ContentProvider", "quarantine_peer", "nocdn"),
    E("repro.nocdn.strategy", "StrategySelection", "assign", "nocdn"),
    E("repro.nocdn.strategy", "HashRing", "owner", "nocdn"),
    E("repro.nocdn.loader", "PageLoader", "load", "nocdn"),
    E("repro.nocdn.directory", "ContentDirectory", "publish", "nocdn"),
    E("repro.nocdn.directory", "ContentDirectory", "withdraw", "nocdn"),
    E("repro.nocdn.directory", "ContentDirectory", "holders", "nocdn"),
    E("repro.attic.backup_service", "PeerBackupService", "backup_file",
      "attic"),
    E("repro.attic.backup_service", "PeerBackupService", "repair_file",
      "attic"),
    E("repro.attic.backup_service", "PeerBackupService", "restore_file",
      "attic"),
    E("repro.util.erasure", "ReedSolomonCodec", "encode", "erasure",
      after=_note_encode),
    E("repro.util.erasure", "ReedSolomonCodec", "decode", "erasure",
      after=_note_decode),
    E("repro.dcol.manager", "DetourManager", "start_transfer", "dcol",
      after=_note_start_transfer),
    E("repro.iah.service", "InternetAtHomeService", "gather", "iah"),
    E("repro.iah.service", "InternetAtHomeService", "record_visit", "iah"),
    E("repro.iah.browser", "HomeBrowser", "load_via_hpop", "iah"),
    E("repro.faults.injector", "FaultInjector", "apply", "faults"),
    E("repro.control.controller", "Controller", "on_slo_event", "control"),
    E("repro.control.controller", "Controller", "on_peer_event", "control"),
    E("repro.obs.timeseries", "TimeSeriesDB", "scrape", "obs"),
    E("repro.obs.slo", "SloMonitor", "evaluate", "obs"),
    E("repro.obs.rollup", "RollupCohort", "scrape_rows", "obs"),
    # The fully instrumented engine loop calls these around every event.
    E("repro.obs.trace", "Tracer", "begin_event", "obs"),
    E("repro.obs.trace", "Tracer", "end_event", "obs"),
)


def _traced_method(rec: Recorder, orig: Callable,
                   entry: EntryPoint) -> Callable:
    name, layer, before, after = (entry.name, entry.layer, entry.before,
                                  entry.after)

    def traced(*args, **kwargs):
        if not rec.active:
            return orig(*args, **kwargs)
        if before is not None:
            args, kwargs = before(rec, args, kwargs)
        result = rec.call(name, layer, rec.current, rec.trace, orig, args,
                          kwargs)
        if after is not None:
            after(rec, args, kwargs, result)
        return result

    traced.__wrapped__ = orig
    return traced


def _traced_at(rec: Recorder, orig_at: Callable) -> Callable:
    """``Simulator.at`` (``schedule`` and ``call_soon`` go through it):
    the fired callback becomes a span caused by the scheduling span."""

    def at(sim, time, callback, label="event", weak=False):
        parent, trace = rec.current, rec.trace
        layer = rec.layer_of(callback)

        def fire():
            if rec.active:
                rec.call(label, layer, parent, trace, callback)
            else:
                callback()

        event = orig_at(sim, time, fire, label, weak)
        pending = sim.pending_events
        if pending > rec.peak_pending:
            rec.peak_pending = pending
        return event

    at.__wrapped__ = orig_at
    return at


def install(rec: Recorder) -> List[Tuple[type, str, Callable]]:
    """Patch the engine and the entry points; returns what to restore."""
    import scenarios
    from repro.sim.engine import Simulator

    patched: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, new: Any) -> None:
        patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    patch(Simulator, "at", _traced_at(rec, Simulator.__dict__["at"]))
    for entry in ENTRY_POINTS:
        cls = getattr(importlib.import_module(entry.module), entry.cls)
        patch(cls, entry.method,
              _traced_method(rec, cls.__dict__[entry.method], entry))
    patch(scenarios, "begin_op", rec.begin_op)
    return patched


def uninstall(patched: List[Tuple[Any, str, Any]]) -> None:
    for owner, attr, orig in reversed(patched):
        setattr(owner, attr, orig)
    patched.clear()


# -- analysis ---------------------------------------------------------------------------


def self_times(spans: Spans) -> List[float]:
    """Per span: its duration minus what the spans within it cover."""
    own = [end - start for start, end in zip(spans.start, spans.end)]
    for sid, within in enumerate(spans.within):
        if within >= 0:
            own[within] -= spans.end[sid] - spans.start[sid]
    return own


def by_layer(spans: Spans) -> Dict[Optional[str], Dict[str, float]]:
    """layer -> {"self_s", "calls"}; layer None collects spans whose
    module maps to no layer."""
    out: Dict[Optional[str], Dict[str, float]] = {}
    for layer, own in zip(spans.layer, self_times(spans)):
        row = out.setdefault(layer, {"self_s": 0.0, "calls": 0})
        row["self_s"] += own
        row["calls"] += 1
    return out


def by_name(spans: Spans) -> Dict[str, Dict[str, float]]:
    """Entry-point name -> {"total_s" (inclusive), "calls"}."""
    wanted = {entry.name for entry in ENTRY_POINTS}
    out: Dict[str, Dict[str, float]] = {}
    for name, start, end in zip(spans.name, spans.start, spans.end):
        if name in wanted:
            row = out.setdefault(name, {"total_s": 0.0, "calls": 0})
            row["total_s"] += end - start
            row["calls"] += 1
    return out


def write_jsonl(spans: Spans, path: str) -> None:
    """One span per line, in id order."""
    with open(path, "w", encoding="utf-8") as fh:
        for sid, row in enumerate(zip(*spans.columns())):
            record = dict(zip(SPAN_FIELDS, row))
            record["id"] = sid
            fh.write(json.dumps(record) + "\n")
