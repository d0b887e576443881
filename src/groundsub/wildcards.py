"""Containment order of the wildcard arguments over a subtyping graph.

Given a subtyping order with distinguished extremes, the argument graph has
three copies of the input: an upper-bounded copy (`? <: T`) ordered like the
input, a lower-bounded copy (`? :> T`) ordered opposite to it, and a plain
(invariant) copy that forms an antichain, each plain argument linked to its
two bounded forms.  Corner spellings name the same argument and collapse to
one canonical vertex: the upper-bounded top and the lower-bounded bottom are
both the default argument `?`, the lower-bounded top is the top itself, and
the upper-bounded bottom is the bottom itself.  An edge `u -> v` means the
argument `u` is contained in the argument `v`.  No edge leaves the copy of
its source, so the copies of a Hasse input's edges are already the covers.
"""

from __future__ import annotations

from .digraph import BipointedGraph, EdgeTag, LabeledDigraph
from .digraph import transitive_reduction  # noqa: F401 - unused here; kept for bench/tracer.py only
from .errors import GraphError
from .labels import WILDCARD, lower_bounded_label, upper_bounded_label


def wildcards_size(n: int) -> int:
    """Vertex count of the argument graph over an n-vertex input: 3(n - 1)."""
    if n < 2:
        raise GraphError("input graph must contain distinct top and bottom vertices")
    return 3 * (n - 1)


def wildcards_graph(g: BipointedGraph) -> LabeledDigraph:
    """Containment order over all arguments drawn from `g`: 3(|V| - 1)
    vertices, a unique sink `?`, and the Hasse form when `g` is in Hasse form
    (for any other `g`, the same order, possibly with implied edges).
    """
    if g.top == g.bottom:
        raise GraphError("input graph must contain distinct top and bottom vertices")
    top, bottom = g.top, g.bottom
    inner = g.vertices - {top, bottom}
    # Each vertex's two bounded forms, computed once.  The whole
    # upper-bounded copy of `top` is the default argument, and nothing lies
    # strictly below `bottom`, so both corners coalesce.
    upper = {t: upper_bounded_label(t) for t in inner}
    upper.update({top: WILDCARD, bottom: bottom})
    lower = {t: lower_bounded_label(t) for t in inner}
    lower.update({top: top, bottom: WILDCARD})

    # `upper` and `lower` are injective and the three families share no pair.
    covariant, contravariant, link = EdgeTag.COVARIANT, EdgeTag.CONTRAVARIANT, EdgeTag.INV_LINK
    out = {t: [(upper[t], link), (lower[t], link)] for t in inner}
    for src, targets in g.graph._out.items():
        out.setdefault(upper[src], []).extend([(upper[dst], covariant) for dst, _ in targets])
        for dst, _ in targets:
            out.setdefault(lower[dst], []).append((lower[src], contravariant))
    vertices = frozenset((*inner, *upper.values(), *lower.values()))
    return LabeledDigraph._from_successors(vertices, out)
