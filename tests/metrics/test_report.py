"""ExperimentReport tests: the data it keeps and the section it builds."""

import html
import re

import pytest

from repro.metrics.report import ExperimentReport
from repro.obs.document import Document, Section, Table, to_html, to_markdown
from tests.obs.test_document import assert_in_every_rendering


def demo():
    """Rows with floats to format, a passing and a failing claim (with
    characters markdown and HTML must escape), and two notes."""
    report = ExperimentReport("E0", "demo", columns=("name", "value"))
    report.add_row("alpha", 1.5)
    report.add_row("beta", 0.000001)
    report.add_row("gamma|delta", 1234567.0)
    report.check("thing holds", "x > 1", "x = 2", True)
    report.check("other <thing>", "y < 1 | z", "y = 3", False)
    report.note("substitution: simulated substrate")
    report.note("a second note & more")
    return report


class TestReport:
    def test_rows_and_render(self):
        report = ExperimentReport("E0", "demo", columns=("name", "value"))
        report.add_row("alpha", 1.5)
        report.add_row("beta", 2.0)
        text = report.render()
        assert text.splitlines()[0] == "== E0: demo =="
        assert "alpha" in text and "beta" in text

    def test_row_arity_checked(self):
        report = ExperimentReport("E0", "demo", columns=("a", "b"))
        with pytest.raises(ValueError):
            report.add_row("only-one")

    def test_claims(self):
        report = ExperimentReport("E0", "demo")
        report.check("thing holds", "x > 1", "x = 2", True)
        report.check("other thing", "y < 1", "y = 3", False)
        assert not report.all_claims_hold
        assert len(report.failed_claims()) == 1
        text = report.render()
        assert re.search(r"^PASS +thing holds +x > 1 +x = 2$", text, re.M)
        assert re.search(r"^FAIL +other thing +y < 1 +y = 3$", text, re.M)

    def test_empty_report_holds(self):
        report = ExperimentReport("E0", "demo")
        assert report.all_claims_hold
        assert report.render() == "== E0: demo =="

    def test_notes_rendered(self):
        report = ExperimentReport("E0", "demo")
        report.note("substitution: simulated substrate")
        assert "substitution: simulated substrate" in \
            report.render().splitlines()

    def test_float_formatting(self):
        report = ExperimentReport("E0", "demo", columns=("v",))
        report.add_row(0.000001)
        report.add_row(1234567.0)
        report.add_row(3.14159)
        lines = report.render().splitlines()
        assert {"1.000e-06", "1.235e+06", "3.142"} <= set(lines)


class TestSection:
    def test_section_is_the_report_as_data(self):
        report = demo()
        section = report.section()
        assert section.heading == "E0: demo"
        rows, claims, *notes = section.blocks
        assert rows == Table(["name", "value"], [
            ["alpha", "1.5"], ["beta", "1.000e-06"],
            ["gamma|delta", "1.235e+06"]])
        assert claims.headers == ["result", "claim", "paper", "measured"]
        assert claims.rows == [
            ["PASS", "thing holds", "x > 1", "x = 2"],
            ["FAIL", "other <thing>", "y < 1 | z", "y = 3"]]
        assert notes == report.notes

    def test_every_cell_claim_and_note_reaches_every_rendering(self):
        report = demo()
        doc = Document(sections=[report.section()])
        md, page, text = assert_in_every_rendering(doc)
        assert report.render() == text
        for claim in report.claims:
            mark = "PASS" if claim.holds else "FAIL"
            cells = [mark, claim.description, claim.expected, claim.measured]
            assert re.search(r"^" + r" +".join(map(re.escape, cells)) + "$",
                             text, re.M), cells
            assert "| " + " | ".join(
                cell.replace("|", "\\|") for cell in cells) + " |" in md
            assert "".join(f"<td>{html.escape(cell)}</td>"
                           for cell in cells) in page
        for note in report.notes:
            assert note in text.splitlines()
            assert f"\n{note}\n" in md
            assert f"<p>{html.escape(note)}</p>" in page

    def test_a_report_without_rows_or_claims_is_its_notes(self):
        report = ExperimentReport("A0", "bare", columns=("a",))
        report.note("only a note")
        assert report.section() == Section("A0: bare", ["only a note"])
        assert to_markdown(Document(sections=[report.section()])) == \
            "## A0: bare\n\nonly a note\n"
        assert "<h2>A0: bare</h2><p>only a note</p>" in \
            to_html(Document(sections=[report.section()]))
