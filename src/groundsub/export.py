"""Byte-deterministic graph serializers: DOT, GraphML and JSON.

All three formats list vertices and edges in lexicographic order, so
re-rendering the same graph always produces identical bytes.  Layout is the
renderer's job; the DOT output only hints that the order grows bottom-up.
Writers read successor lists in place and key tags by their `_value_` strings.
Each writer yields its text a chunk per `_BLOCK` vertices of that order:
`build` writes `chunks(g, fmt)`, never the whole text, and `render` joins them.

The JSON bytes equal `json.dumps(payload, indent=2) + "\\n"` for the payload
`{"vertices": [...], "edges": [{"from": ..., "to": ..., "tag": ...}, ...]}`,
but the writer does not call `json.dumps`: with `indent` set, that takes
the pure-Python encoder.  It formats the layout by hand and quotes each
label once with the C string encoder `json.dumps` itself uses.
"""

from __future__ import annotations

from collections.abc import Iterator
from json.encoder import encode_basestring_ascii as _json_quote

from .digraph import EdgeTag, LabeledDigraph

_BLOCK = 512  # vertices per chunk; one per vertex would pay a generator step each
_DOT_ATTRS = {EdgeTag.COVARIANT._value_: " [color=green]",
              EdgeTag.CONTRAVARIANT._value_: " [color=red]"}
_JSON_TAGS = {tag._value_: _json_quote(tag._value_) for tag in EdgeTag}


def _blocks(labels: dict[str, str]) -> list[list[tuple[str, str]]]:
    items = list(labels.items())
    return [items[i:i + _BLOCK] for i in range(0, len(items), _BLOCK)]


def _json_list(blocks: Iterator[list[str]]) -> Iterator[str]:
    sep = "[\n"
    for items in blocks:
        if items:
            yield sep + ",\n".join(items)
            sep = ",\n"
    yield "[]" if sep == "[\n" else "\n  ]"


def _json_chunks(g: LabeledDigraph) -> Iterator[str]:
    out, quoted = g._out, {v: _json_quote(v) for v in g.sorted_vertices}
    blocks = _blocks(quoted)
    yield '{\n  "vertices": '
    yield from _json_list([f"    {q}" for _, q in block] for block in blocks)
    yield ',\n  "edges": '
    yield from _json_list(
        [f'    {{\n      "from": {q},\n      "to": {quoted[dst]},'
         f'\n      "tag": {_JSON_TAGS[tag._value_]}\n    }}'
         for src, q in block for dst, tag in out[src]]
        for block in blocks
    )
    yield "\n}\n"


def _xml_escape(text: str) -> str:
    # What `xml.sax.saxutils.escape` does, without importing it: that module
    # pulls in `urllib.request` and with it the network stack.
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_chunks(g: LabeledDigraph) -> Iterator[str]:
    out, quoted = g._out, {v: _dot_quote(v) for v in g.sorted_vertices}
    blocks = _blocks(quoted)
    yield "digraph subtyping {\n  rankdir=BT;\n"
    for block in blocks:
        yield "".join([f"  {q};\n" for _, q in block])
    for block in blocks:
        yield "".join([f"  {q} -> {quoted[dst]}{_DOT_ATTRS.get(tag._value_, '')};\n"
                       for src, q in block for dst, tag in out[src]])
    yield "}\n"


def _graphml_chunks(g: LabeledDigraph) -> Iterator[str]:
    out, ids = g._out, {v: f"n{i}" for i, v in enumerate(g.sorted_vertices)}
    blocks = _blocks(ids)
    yield (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
        '  <key id="label" for="node" attr.name="label" attr.type="string"/>\n'
        '  <key id="tag" for="edge" attr.name="tag" attr.type="string"/>\n'
        '  <graph id="G" edgedefault="directed">\n'
    )
    for block in blocks:
        yield "".join([f'    <node id="{i}"><data key="label">{_xml_escape(v)}</data></node>\n'
                       for v, i in block])
    for block in blocks:
        yield "".join([
            f'    <edge source="{i}" target="{ids[dst]}"><data key="tag">{tag._value_}</data></edge>\n'
            for src, i in block for dst, tag in out[src]
        ])
    yield "  </graph>\n</graphml>\n"


_WRITERS = {"dot": _dot_chunks, "graphml": _graphml_chunks, "json": _json_chunks}
FORMATS = tuple(_WRITERS)


def chunks(g: LabeledDigraph, fmt: str) -> Iterator[str]:
    """The text of `render(g, fmt)`, in the chunks its writer yields."""
    if fmt not in _WRITERS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    return _WRITERS[fmt](g)


def render(g: LabeledDigraph, fmt: str) -> str:
    return "".join(chunks(g, fmt))
