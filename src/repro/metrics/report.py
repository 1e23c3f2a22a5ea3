"""Experiment reporting: paper-claim vs. measured-value tables.

Every bench builds an :class:`ExperimentReport`; ``python -m
repro.experiments`` prints it and exits non-zero unless
:attr:`all_claims_hold`, so "the shape holds" is enforced, not
eyeballed. A report is a producer over :mod:`repro.obs.document`:
:meth:`ExperimentReport.section` builds it as data and
:meth:`ExperimentReport.render` is that section's ``to_text``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.obs.document import Block, Document, Section, Table, to_text


@dataclass
class Claim:
    """One paper claim checked against a measurement."""

    description: str
    expected: str
    measured: str
    holds: bool


@dataclass
class ExperimentReport:
    """Accumulates rows (data) and claims (checks) for one experiment."""

    experiment_id: str
    title: str
    columns: Sequence[str] = ()
    rows: List[Sequence[object]] = field(default_factory=list)
    claims: List[Claim] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        if self.columns and len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns")
        self.rows.append(values)

    def check(self, description: str, expected: str, measured: str,
              holds: bool) -> None:
        """Record a claim check (the runner fails on the aggregate)."""
        self.claims.append(Claim(description=description, expected=expected,
                                 measured=measured, holds=bool(holds)))

    def note(self, text: str) -> None:
        self.notes.append(text)

    @property
    def all_claims_hold(self) -> bool:
        return all(claim.holds for claim in self.claims)

    def failed_claims(self) -> List[Claim]:
        return [c for c in self.claims if not c.holds]

    # -- rendering -----------------------------------------------------------

    def section(self) -> Section:
        """``<id>: <title>`` over the rows, a PASS/FAIL table of the
        claims and the notes as paragraphs."""
        blocks: List[Block] = []
        if self.columns and self.rows:
            blocks.append(Table(
                headers=[str(column) for column in self.columns],
                rows=[[_fmt(value) for value in row] for row in self.rows]))
        if self.claims:
            blocks.append(Table(
                headers=["result", "claim", "paper", "measured"],
                rows=[["PASS" if claim.holds else "FAIL", claim.description,
                       claim.expected, claim.measured]
                      for claim in self.claims]))
        blocks.extend(self.notes)
        return Section(f"{self.experiment_id}: {self.title}", blocks)

    def render(self) -> str:
        return to_text(Document(sections=[self.section()]))

    def print(self) -> None:
        print()
        print(self.render())


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value != 0 and (abs(value) < 0.001 or abs(value) >= 100_000):
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)
