"""Event-loop profiling: where the *host* CPU goes during a run.

The tracer answers "where did simulated time go"; this module answers
"why is the simulator slow on my machine". A :class:`LoopProfiler`
hooks the engine's event loop (via
``Simulator.enable_profiling``) and attributes the wall-clock cost of
every fired event to its label and callback, tracks the wall-vs-sim
time ratio (how many host seconds one simulated second costs), and
exports the standard collapsed-stack format that flamegraph tooling
(``flamegraph.pl``, speedscope, inferno) consumes directly.

While attached it also times Python's cyclic garbage collector (via
``gc.callbacks``): a collection is charged to its own ``gc.gen<N>``
row, not to whichever event's allocation happened to trigger it.

Profiles are wall-clock measurements and therefore *not* run-to-run
deterministic; ``profile.json`` (:meth:`LoopProfiler.to_dict`) and
``profile.collapsed`` (:meth:`LoopProfiler.export_collapsed`) are the
only run artifacts outside the byte-identity contract. Both belong to a
run's standard artifact set (:data:`repro.obs.records.ARTIFACTS`):
``ChaosWorld.export`` writes them for every profiled chaos run, the
study cell and ``make dashboard`` included.
"""

from __future__ import annotations

import gc
import weakref
from typing import Any, Callable, Dict, List, Optional

from repro.obs.document import Block, Document, Section, Table, to_text

PROFILE_HEADING = "Event-loop profile (host CPU)"


def profile_blocks(profile: Dict[str, Any], top: int = 10) -> List[Block]:
    """The loop-health summary line and the table of the ``top`` most
    expensive labels, from a :meth:`LoopProfiler.to_dict` summary — the
    one layout the run dashboard, the study dashboard's slowest run and
    :meth:`LoopProfiler.render` all print."""
    total = profile.get("wall_seconds") or 1.0
    ranked = sorted(profile.get("labels", {}).items(),
                    key=lambda kv: (-kv[1]["wall_s"], kv[0]))[:top]
    ranked += [(f"gc.{gen}", stat)
               for gen, stat in sorted(profile.get("collector", {}).items())
               if stat["count"]]
    return [
        f"{profile.get('events', 0)} events · "
        f"{profile.get('wall_seconds', 0) * 1e3:.1f} ms wall · "
        f"{profile.get('events_per_second', 0):,.0f} events/s · "
        f"wall/sim ratio {profile.get('wall_sim_ratio', 0):.4f} "
        f"({profile.get('sim_seconds', 0):.1f} sim-s covered)",
        Table(("label", "count", "wall ms", "mean us", "share"),
              [[label, str(stat["count"]), f"{stat['wall_s'] * 1e3:.2f}",
                f"{stat['wall_s'] / (stat['count'] or 1) * 1e6:.1f}",
                f"{stat['wall_s'] / total:.1%}"] for label, stat in ranked])]


class LabelStat:
    """Accumulated cost of one event label."""

    __slots__ = ("label", "count", "wall_seconds", "callbacks")

    def __init__(self, label: str) -> None:
        self.label = label
        self.count = 0
        self.wall_seconds = 0.0
        # callback qualname -> [count, wall seconds]; the leaf frame of
        # the collapsed stack, so two callbacks sharing a label are
        # still distinguishable in a flamegraph.
        self.callbacks: Dict[str, List[float]] = {}

    @property
    def mean_us(self) -> float:
        return (self.wall_seconds / self.count) * 1e6 if self.count else 0.0


class LoopProfiler:
    """Per-label wall-clock attribution for a simulator's event loop.

    ``record`` is called by the engine once per fired event with the
    measured wall duration of its callback and the collector pause
    inside it; everything else is read-side. Given a host ``clock``
    (the engine passes its own), the profiler also times every
    collection per generation until :meth:`detach`. The profiler never
    touches simulated state, RNG streams,
    or the event heap, so enabling it cannot change a run's outcome —
    only its speed, and only while attached: detaching the last
    instrument restores the engine's plain loop (``sim._dispatch is
    None``), the same code a never-profiled simulator runs.
    """

    def __init__(self, sim: Any,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self._sim = sim
        self.stats: Dict[str, LabelStat] = {}
        self.events = 0
        self.wall_seconds = 0.0
        self.sim_started_at = float(sim.now)
        self.sim_last_event_at = float(sim.now)
        # Collections per generation and their wall; collector_seconds
        # is the running total the engine reads around each event.
        self.collections = [0, 0, 0]
        self.collection_seconds = [0.0, 0.0, 0.0]
        self.collector_seconds = 0.0
        self._detach = None
        if clock is not None:
            hook = _collector_hook(weakref.ref(self), clock)
            gc.callbacks.append(hook)
            # Unhooked on detach, or when the profiler itself dies.
            self._detach = weakref.finalize(self, gc.callbacks.remove, hook)

    def detach(self) -> None:
        """Stop timing collections (idempotent); stats stay readable."""
        if self._detach is not None:
            self._detach()

    # -- engine integration -------------------------------------------------

    def record(self, event: Any, wall: float, paused: float = 0.0) -> None:
        """Attribute ``wall`` seconds to ``event`` (engine hot path),
        less the ``paused`` seconds the collector ran inside it."""
        label = event.label
        stat = self.stats.get(label)
        if stat is None:
            self.stats[label] = stat = LabelStat(label)
        own = wall - paused
        stat.count += 1
        stat.wall_seconds += own
        qualname = getattr(event.callback, "__qualname__", "<callable>")
        cb = stat.callbacks.get(qualname)
        if cb is None:
            stat.callbacks[qualname] = cb = [0, 0.0]
        cb[0] += 1
        cb[1] += own
        self.events += 1
        self.wall_seconds += wall
        self.sim_last_event_at = event.time

    def _collected(self, generation: int, pause: float) -> None:
        self.collections[generation] += 1
        self.collection_seconds[generation] += pause
        self.collector_seconds += pause

    # -- derived views -------------------------------------------------------

    @property
    def sim_seconds(self) -> float:
        """Simulated time covered while the profiler was attached."""
        return max(0.0, self.sim_last_event_at - self.sim_started_at)

    @property
    def wall_sim_ratio(self) -> float:
        """Host seconds burned per simulated second (lower is better).

        0.0 when no simulated time elapsed (e.g. a same-timestamp
        burst), so callers can always print it.
        """
        sim_s = self.sim_seconds
        return self.wall_seconds / sim_s if sim_s > 0 else 0.0

    @property
    def events_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.events / self.wall_seconds

    def top(self, n: int = 10) -> List[LabelStat]:
        """The ``n`` most expensive labels by total wall time."""
        ranked = sorted(self.stats.values(),
                        key=lambda s: (-s.wall_seconds, s.label))
        return ranked[:n]

    def render(self, top: int = 10) -> str:
        """Human-readable hotspot table plus the loop-health summary."""
        return to_text(Document(sections=[Section(
            PROFILE_HEADING, profile_blocks(self.to_dict(), top))]))

    # -- flamegraph export --------------------------------------------------

    def collapsed_stacks(self) -> List[str]:
        """``frame;frame;... microseconds`` lines, one per leaf.

        The stack is the dot-split event label with the callback
        qualname as the leaf frame, so ``attic.heartbeat`` events and
        the specific bound method they ran both show up as frames.
        Values are integer microseconds (flamegraph tools want ints).
        """
        lines: List[str] = []
        for label in sorted(self.stats):
            stat = self.stats[label]
            frames = [part for part in label.split(".") if part]
            for qualname in sorted(stat.callbacks):
                count, wall = stat.callbacks[qualname]
                stack = ";".join(["sim"] + frames + [qualname])
                lines.append(f"{stack} {max(1, round(wall * 1e6))}")
        for gen, (count, wall) in enumerate(zip(self.collections,
                                                self.collection_seconds)):
            if count:
                lines.append(f"sim;gc;gen{gen} {max(1, round(wall * 1e6))}")
        return lines

    def export_collapsed(self, path: str) -> int:
        """Write :meth:`collapsed_stacks` to ``path``; returns line count."""
        lines = self.collapsed_stacks()
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
        return len(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly summary (dashboard input)."""
        return {
            "events": self.events,
            "wall_seconds": self.wall_seconds,
            "sim_seconds": self.sim_seconds,
            "wall_sim_ratio": self.wall_sim_ratio,
            "events_per_second": self.events_per_second,
            "labels": {
                label: {"count": stat.count, "wall_s": stat.wall_seconds}
                for label, stat in sorted(self.stats.items())
            },
            "collector": {
                f"gen{gen}": {"count": count, "wall_s": wall}
                for gen, (count, wall) in enumerate(
                    zip(self.collections, self.collection_seconds))
            },
        }


def _collector_hook(ref: "weakref.ref[LoopProfiler]",
                    clock: Callable[[], float]) -> Callable[..., None]:
    """A ``gc.callbacks`` entry timing each collection for the profiler
    ``ref`` names; it holds the profiler weakly, so an attached
    profiler never keeps a finished world alive."""
    started = 0.0

    def hook(phase: str, info: Dict[str, int]) -> None:
        nonlocal started
        profiler = ref()
        if profiler is None:
            return
        if phase == "start":
            started = clock()
        else:
            profiler._collected(info["generation"], clock() - started)

    return hook
