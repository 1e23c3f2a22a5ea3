"""Study specifications: a scenario fanned across seeds × parameters.

A :class:`StudySpec` is the declarative half of the study runner: which
scenario to run, which seeds, and which parameter grid (the cross
product of every ``grid`` axis). It expands deterministically into
:class:`Cell` instances — one (seed, params) combination each — whose
ids double as artifact directory names and journal keys, so a resumed
study recognises completed work no matter which worker ran it or in
what order.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.obs.records import encode

_ID_SAFE = re.compile(r"[^A-Za-z0-9_.=+-]")


def _slug(value: Any) -> str:
    """A filesystem- and journal-safe rendering of a param value."""
    return _ID_SAFE.sub("-", str(value))


def parse_seeds(text: str) -> List[int]:
    """``101,102`` and/or inclusive ranges ``101-116``."""
    seeds: List[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part.lstrip("-"):
            lo_text, _, hi_text = part.partition("-")
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError(f"bad seed range {part!r}")
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(int(part))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


@dataclass(frozen=True)
class Cell:
    """One run of the study: a seed plus one point of the param grid."""

    seed: int
    params: Tuple[Tuple[str, Any], ...] = ()

    @property
    def cell_id(self) -> str:
        """Deterministic id, e.g. ``seed101`` or ``seed101_skew=0.8``.

        Params are sorted by name, so the id is independent of grid
        declaration order — the resume contract keys on this.
        """
        parts = [f"seed{self.seed}"]
        parts += [f"{k}={_slug(v)}" for k, v in sorted(self.params)]
        return "_".join(parts)

    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def to_dict(self) -> Dict[str, Any]:
        return {"cell": self.cell_id, "seed": self.seed,
                "params": self.params_dict()}


@dataclass(frozen=True)
class StudySpec:
    """What to run: scenario × seeds × parameter grid.

    ``scenario`` is either a built-in name (see
    :mod:`repro.experiments.scenarios`) or a ``module:callable`` path
    resolved in the worker. ``base_params`` apply to every cell;
    ``grid`` axes are crossed (every combination becomes a cell per
    seed). ``workers`` caps pool size; 0 means "one per CPU".
    """

    scenario: str
    seeds: Tuple[int, ...]
    base_params: Tuple[Tuple[str, Any], ...] = ()
    grid: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    workers: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        if not self.scenario:
            raise ValueError("StudySpec needs a scenario name")
        if not self.seeds:
            raise ValueError("StudySpec needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"duplicate seeds in {self.seeds}")
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0: {self.workers}")
        base = dict(self.base_params)
        for axis, values in self.grid:
            if not values:
                raise ValueError(f"grid axis {axis!r} has no values")
            if len(set(map(str, values))) != len(values):
                raise ValueError(f"grid axis {axis!r} repeats a value")
            if axis in base:
                raise ValueError(
                    f"grid axis {axis!r} shadows a base param")

    @classmethod
    def build(cls, scenario: str, seeds: Sequence[int],
              params: Mapping[str, Any] = (),
              grid: Mapping[str, Sequence[Any]] = (),
              workers: int = 0, name: str = "") -> "StudySpec":
        """Convenience constructor from plain dicts/lists (``seeds`` as
        :func:`parse_seeds` reads a ``--seeds`` argument)."""
        return cls(
            scenario=scenario,
            seeds=tuple(int(s) for s in seeds),
            base_params=tuple(sorted(dict(params).items())),
            grid=tuple(sorted((str(axis), tuple(values))
                              for axis, values in dict(grid).items())),
            workers=workers,
            name=name or scenario,
        )

    def cells(self) -> List[Cell]:
        """Every (seed, grid point) combination, deterministically ordered.

        Order is seeds-major then grid-lexicographic; the runner may
        complete cells in any order, but expansion order is stable so
        journals and summaries line up across resumes.
        """
        axes = [(axis, values) for axis, values in self.grid]
        combos: List[Tuple[Tuple[str, Any], ...]] = [()]
        if axes:
            combos = [tuple(zip((a for a, _ in axes), chosen))
                      for chosen in itertools.product(
                          *(values for _, values in axes))]
        out: List[Cell] = []
        base = tuple(sorted(self.base_params))
        for seed in self.seeds:
            for combo in combos:
                out.append(Cell(seed=seed,
                                params=tuple(sorted(base + combo))))
        ids = [cell.cell_id for cell in out]
        if len(set(ids)) != len(ids):
            raise ValueError("param grid produced colliding cell ids")
        return out

    def to_dict(self) -> Dict[str, Any]:
        """JSON form persisted as ``study.json`` (the resume guard)."""
        return {
            "name": self.name or self.scenario,
            "scenario": self.scenario,
            "seeds": list(self.seeds),
            "base_params": {k: v for k, v in self.base_params},
            "grid": {axis: list(values) for axis, values in self.grid},
        }

    def fingerprint(self) -> str:
        """Stable digest of everything that defines the cell set.

        ``workers`` is deliberately excluded: resuming on a different
        pool size is supported (and summary bytes must not change).
        """
        return encode(self.to_dict())
