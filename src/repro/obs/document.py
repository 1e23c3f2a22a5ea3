"""The document model every report is built as, and its three renderers.

A report is data: a title, a lead line and an ordered list of
sections, each a heading over blocks — a paragraph (a plain ``str``),
a :class:`Warn`, a :class:`Table` or nested :class:`Bullets`. Text in
the model is markdown-inline (`` `code` `` and ``**bold**``, never
nested) and nothing else, so no producer emits markup.
:func:`to_markdown`, :func:`to_html` and :func:`to_text` are total
over the model and are the only place a heading, table or alignment
literal is written: a section a producer builds cannot be missing
from, or differ between, the renderings.

Producers: :func:`repro.obs.dashboard.run_document`,
:func:`repro.obs.dashboard.study_document`,
:func:`repro.obs.report.trace_sections` and
:func:`repro.obs.profile.profile_blocks`.
"""

from __future__ import annotations

import html
import re
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(points: Sequence[Tuple[float, float]], width: int = 40) -> str:
    """A unicode sparkline over ``(t, value)`` points, time-bucketed.

    Buckets the time range into ``width`` columns and plots each
    column's max (gaps render as the lowest block), so bursts survive
    downsampling to terminal width.
    """
    if not points:
        return ""
    t0, t1 = points[0][0], points[-1][0]
    values = [v for _t, v in points]
    lo, hi = min(values), max(values)
    if t1 <= t0 or hi <= lo:
        return SPARK_BLOCKS[0] * min(width, max(1, len(points)))
    cols: List[Optional[float]] = [None] * width
    for t, v in points:
        i = min(width - 1, int((t - t0) / (t1 - t0) * width))
        cols[i] = v if cols[i] is None else max(cols[i], v)
    out = []
    for v in cols:
        if v is None:
            out.append(SPARK_BLOCKS[0])
        else:
            out.append(SPARK_BLOCKS[min(
                len(SPARK_BLOCKS) - 1,
                int((v - lo) / (hi - lo) * (len(SPARK_BLOCKS) - 1)))])
    return "".join(out)


# -- the model ---------------------------------------------------------------


@dataclass
class Warn:
    """Something the reader must not miss (a truncated trace, lost pins)."""

    text: str


@dataclass
class Table:
    headers: Sequence[str]
    rows: Sequence[Sequence[str]]


@dataclass
class Bullet:
    text: str
    children: List["Bullet"] = field(default_factory=list)


@dataclass
class Bullets:
    items: List[Bullet]


Block = Union[str, Warn, Table, Bullets]


@dataclass
class Section:
    """A heading over blocks; an empty heading leaves the blocks bare."""

    heading: str
    blocks: List[Block]


@dataclass
class Document:
    title: str = ""
    lead: str = ""
    sections: List[Section] = field(default_factory=list)


_INLINE = re.compile(r"`([^`]+)`|\*\*(.+?)\*\*")


def _plain(text: str) -> str:
    return _INLINE.sub(lambda m: m.group(1) or m.group(2), text)


def _walk(items: Sequence[Bullet], depth: int = 0):
    for item in items:
        yield depth, item.text
        yield from _walk(item.children, depth + 1)


# -- markdown ----------------------------------------------------------------


def to_markdown(doc: Document) -> str:
    """The document as markdown (model text is already markdown-inline)."""
    out: List[str] = []
    if doc.title:
        out += [f"# {doc.title}", ""]
    if doc.lead:
        out += [doc.lead, ""]
    for section in doc.sections:
        if section.heading:
            out += [f"## {section.heading}", ""]
        for block in section.blocks:
            if isinstance(block, Warn):
                out.append(f"> **WARNING:** {block.text}")
            elif isinstance(block, Table):
                head, *rows = [
                    "| " + " | ".join(cell.replace("|", "\\|")
                                      for cell in row) + " |"
                    for row in (block.headers, *block.rows)]
                out += [head, "|---" * len(block.headers) + "|", *rows]
            elif isinstance(block, Bullets):
                out += [f"{'  ' * depth}- {text}"
                        for depth, text in _walk(block.items)]
            else:
                out.append(block)
            out.append("")
    return "\n".join(out)


# -- HTML --------------------------------------------------------------------

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 70rem; color: #1a1a2e;
       line-height: 1.45; }
h1 { border-bottom: 2px solid #4a4e69; padding-bottom: .3rem; }
h2 { margin-top: 2rem; color: #22223b; }
table { border-collapse: collapse; margin: .5rem 0; font-size: .9rem; }
th, td { border: 1px solid #c9cad9; padding: .3rem .6rem; text-align: left; }
th { background: #f2f3f7; }
.spark { font-family: monospace; letter-spacing: -1px; color: #3a6ea5; }
.met { color: #1b7837; font-weight: 600; }
.violated { color: #b2182b; font-weight: 600; }
.warn { background: #fff3cd; border: 1px solid #ffe08a;
        padding: .5rem .8rem; border-radius: 4px; }
code { background: #f2f3f7; padding: 0 .25rem; border-radius: 3px; }
body > ul > li { margin-bottom: .4rem; }
.summary { font-size: 1.05rem; }
"""


def _html_inline(text: str) -> str:
    # html.escape leaves backticks and asterisks alone, so escaping
    # first keeps artifact strings inert and the inline marks intact.
    return _INLINE.sub(
        lambda m: (f"<code>{m.group(1)}</code>" if m.group(1)
                   else f"<b>{m.group(2)}</b>"), html.escape(text))


def _html_cell(cell: str) -> str:
    klass = ""
    if cell in ("MET", "VIOLATED"):
        klass = f' class="{cell.lower()}"'
    elif cell and not cell.strip(SPARK_BLOCKS):
        klass = ' class="spark"'
    return f"<td{klass}>{_html_inline(cell)}</td>"


def _html_list(items: Sequence[Bullet]) -> str:
    return "<ul>" + "".join(
        f"<li>{_html_inline(item.text)}"
        f"{_html_list(item.children) if item.children else ''}</li>"
        for item in items) + "</ul>"


def to_html(doc: Document) -> str:
    """The document as one self-contained HTML page (no external assets)."""
    body: List[str] = []
    if doc.title:
        body.append(f"<h1>{_html_inline(doc.title)}</h1>")
    if doc.lead:
        body.append(f'<p class="summary">{_html_inline(doc.lead)}</p>')
    for section in doc.sections:
        if section.heading:
            body.append(f"<h2>{_html_inline(section.heading)}</h2>")
        for block in section.blocks:
            if isinstance(block, Warn):
                body.append(f'<p class="warn">WARNING: '
                            f"{_html_inline(block.text)}</p>")
            elif isinstance(block, Table):
                body.append(
                    "<table><tr>" + "".join(
                        f"<th>{_html_inline(h)}</th>" for h in block.headers)
                    + "</tr>" + "".join(
                        "<tr>" + "".join(map(_html_cell, row)) + "</tr>"
                        for row in block.rows) + "</table>")
            elif isinstance(block, Bullets):
                body.append(_html_list(block.items))
            else:
                body.append(f"<p>{_html_inline(block)}</p>")
    return ("<!DOCTYPE html><html><head><meta charset='utf-8'>"
            f"<title>{html.escape(_plain(doc.title))}</title>"
            f"<style>{_CSS}</style></head>"
            f"<body>{''.join(body)}</body></html>")


# -- plain text --------------------------------------------------------------


def _text_table(table: Table) -> List[str]:
    grid = [[_plain(cell) for cell in row]
            for row in (table.headers, *table.rows)]
    widths = [max(len(row[i]) for row in grid)
              for i in range(len(table.headers))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths))
             .rstrip() for row in grid]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return lines


def to_text(doc: Document) -> str:
    """The document as terminal text: ``== heading ==`` over aligned
    tables, sections a blank line apart, inline marks dropped."""
    chunks: List[List[str]] = [
        [_plain(line) for line in (doc.title, doc.lead) if line]]
    for section in doc.sections:
        lines = [f"== {_plain(section.heading)} =="] if section.heading else []
        for block in section.blocks:
            if isinstance(block, Warn):
                lines.append(f"WARNING: {_plain(block.text)}")
            elif isinstance(block, Table):
                lines += _text_table(block)
            elif isinstance(block, Bullets):
                lines += [f"{'  ' * depth}- {_plain(text)}"
                          for depth, text in _walk(block.items)]
            else:
                lines.append(_plain(block))
        chunks.append(lines)
    return "\n\n".join("\n".join(lines) for lines in chunks if lines)
