"""The document model: whatever a producer builds reaches every rendering."""

import html as html_mod
import re

from repro.obs.document import (Bullet, Bullets, Document, Section, Table,
                                Warn, to_html, to_markdown, to_text)

INLINE_MARK = re.compile(r"`|\*\*")


def pieces(doc):
    """Every string the model holds, as ``(text, is_table_cell)``."""
    def bullets(items):
        for item in items:
            yield item.text, False
            yield from bullets(item.children)

    for text in (doc.title, doc.lead):
        if text:
            yield text, False
    for section in doc.sections:
        if section.heading:
            yield section.heading, False
        for block in section.blocks:
            if isinstance(block, Warn):
                yield block.text, False
            elif isinstance(block, Table):
                for row in (block.headers, *block.rows):
                    for cell in row:
                        yield cell, True
            elif isinstance(block, Bullets):
                yield from bullets(block.items)
            else:
                yield block, False


def assert_in_every_rendering(doc):
    """The parity property: every heading, paragraph, warning, bullet and
    table cell of ``doc`` is in the markdown, the HTML (escaped) and
    the text; returns the three renderings."""
    md, html, text = to_markdown(doc), to_html(doc), to_text(doc)
    found = list(pieces(doc))
    assert found
    for piece, is_cell in found:
        assert (piece.replace("|", "\\|") if is_cell else piece) in md, piece
        assert INLINE_MARK.sub("", piece) in text, piece
        # Between its inline marks a piece must arrive escaped, so a
        # raw "<" from an artifact can never open a tag.
        for run in INLINE_MARK.split(piece):
            assert html_mod.escape(run) in html, piece
    return md, html, text


HOSTILE = '<script>alert("x")</script> & co'


def synthetic():
    """Every block type, nested bullets, inline marks, hostile text."""
    return Document(
        title=f"Title {HOSTILE}",
        lead=f"**3/4 met** · scenario `chaos` · {HOSTILE}",
        sections=[
            Section("", [Warn(f"leading warning {HOSTILE}")]),
            Section(f"First <heading> {HOSTILE}", [
                f"a paragraph with `code` and {HOSTILE}",
                Table(("name", "spark", "verdict"),
                      [["`a|b`", "▁▃█", "MET"],
                       [HOSTILE, "▁▁▁", "VIOLATED"]]),
                Bullets([Bullet(f"**t=1.00** `slo` {HOSTILE}", [
                    Bullet("likely cause: a fault"),
                    Bullet("exemplar: trace `7`", [Bullet("`t=1 [span] x`")]),
                ]), Bullet("second alert")]),
            ]),
            Section("Second heading", ["(nothing recorded)"]),
            Section("", ["meta: a trailing bare paragraph"]),
        ])


class TestSyntheticDocument:
    def test_every_piece_is_in_every_rendering(self):
        doc = synthetic()
        md, html, text = assert_in_every_rendering(doc)
        assert "<script>" not in html
        hostile = sum(HOSTILE in piece for piece, _cell in pieces(doc))
        assert hostile == 7  # once per block type, heading, title, lead
        assert html.count("&lt;script&gt;") == hostile + 1  # + <title>

    def test_headings_in_order_and_bare_sections_have_none(self):
        md, html, text = assert_in_every_rendering(synthetic())
        assert re.findall(r"^## (.+)$", md, re.M) \
            == [f"First <heading> {HOSTILE}", "Second heading"]
        assert len(re.findall(r"<h2>", html)) == 2
        assert len(re.findall(r"^== .+ ==$", text, re.M)) == 2
        assert md.startswith("# Title ")
        assert html.startswith("<!DOCTYPE html>")
        assert "> **WARNING:** leading warning" in md
        assert 'class="warn">WARNING: leading warning' in html
        # Nothing precedes a leading bare section but title and lead.
        assert text.split("\n\n")[1].startswith("WARNING: leading warning")

    def test_inline_marks(self):
        md, html, text = assert_in_every_rendering(synthetic())
        assert "<b>3/4 met</b>" in html and "<code>chaos</code>" in html
        assert "<code>a|b</code>" in html
        assert "`" not in html and "**" not in html
        assert "`" not in text and "**" not in text
        assert "3/4 met · scenario chaos" in text

    def test_bullets_nest(self):
        md, html, text = assert_in_every_rendering(synthetic())
        assert "\n  - likely cause: a fault\n" in md
        assert "\n    - `t=1 [span] x`\n" in md
        assert ("<li>exemplar: trace <code>7</code><ul><li>"
                "<code>t=1 [span] x</code></li></ul></li>") in html
        assert "\n    - t=1 [span] x\n" in text

    def test_table_cells(self):
        md, html, text = assert_in_every_rendering(synthetic())
        assert "| name | spark | verdict |\n|---|---|---|\n" in md
        assert '<td class="met">MET</td>' in html
        assert '<td class="violated">VIOLATED</td>' in html
        assert '<td class="spark">▁▃█</td>' in html
        # Text columns line up under their headers.
        header, rule, first, _second = text[text.index("name "):] \
            .splitlines()[:4]
        assert set(rule) == {"-", " "}
        assert header.index("spark") == first.index("▁▃█")
        assert header.index("verdict") == first.index("MET")

    def test_empty_document_renders(self):
        assert to_markdown(Document()) == ""
        assert to_text(Document()) == ""
        assert "<body></body>" in to_html(Document())
