"""Byte-deterministic graph serializers: DOT, GraphML and JSON.

All three formats list vertices and edges in lexicographic order, so
re-rendering the same graph always produces identical bytes.  Layout is the
renderer's job; the DOT output only hints that the order grows bottom-up.
Writers read successor lists in place and key tags by their `_value_` strings.

The JSON bytes equal `json.dumps(payload, indent=2) + "\\n"` for the payload
`{"vertices": [...], "edges": [{"from": ..., "to": ..., "tag": ...}, ...]}`,
but the writer does not call `json.dumps`: with `indent` set, that takes
the pure-Python encoder.  It formats the layout by hand and quotes each
label once with the C string encoder `json.dumps` itself uses.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _json_quote

from .digraph import EdgeTag, LabeledDigraph

_DOT_ATTRS = {EdgeTag.COVARIANT._value_: " [color=green]",
              EdgeTag.CONTRAVARIANT._value_: " [color=red]"}
_JSON_TAGS = {tag._value_: _json_quote(tag._value_) for tag in EdgeTag}


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def to_json(g: LabeledDigraph) -> str:
    out, quoted = g._out, {v: _json_quote(v) for v in g.sorted_vertices}
    vertices = [f"    {q}" for q in quoted.values()]
    edges = [
        f'    {{\n      "from": {q},\n      "to": {quoted[dst]},'
        f'\n      "tag": {_JSON_TAGS[tag._value_]}\n    }}'
        for src, q in quoted.items()
        for dst, tag in out[src]
    ]
    return f'{{\n  "vertices": {_json_list(vertices)},\n  "edges": {_json_list(edges)}\n}}\n'


def _xml_escape(text: str) -> str:
    # What `xml.sax.saxutils.escape` does, without importing it: that module
    # pulls in `urllib.request` and with it the network stack.
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: LabeledDigraph) -> str:
    out, quoted = g._out, {v: _dot_quote(v) for v in g.sorted_vertices}
    lines = ["digraph subtyping {", "  rankdir=BT;", *(f"  {q};" for q in quoted.values())]
    lines += [
        f"  {q} -> {quoted[dst]}{_DOT_ATTRS.get(tag._value_, '')};"
        for src, q in quoted.items()
        for dst, tag in out[src]
    ]
    return "\n".join(lines) + "\n}\n"


def to_graphml(g: LabeledDigraph) -> str:
    out, ids = g._out, {v: f"n{i}" for i, v in enumerate(g.sorted_vertices)}
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="label" for="node" attr.name="label" attr.type="string"/>',
        '  <key id="tag" for="edge" attr.name="tag" attr.type="string"/>',
        '  <graph id="G" edgedefault="directed">',
    ]
    for v in g.sorted_vertices:
        lines.append(f'    <node id="{ids[v]}"><data key="label">{_xml_escape(v)}</data></node>')
    lines += [
        f'    <edge source="{i}" target="{ids[dst]}"><data key="tag">{tag._value_}</data></edge>'
        for src, i in ids.items()
        for dst, tag in out[src]
    ]
    lines += ["  </graph>", "</graphml>"]
    return "\n".join(lines) + "\n"


_RENDERERS = {"dot": to_dot, "graphml": to_graphml, "json": to_json}
FORMATS = tuple(_RENDERERS)


def render(g: LabeledDigraph, fmt: str) -> str:
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    return _RENDERERS[fmt](g)
