#!/usr/bin/env python3
"""The three variance rules, decided twice.

Wildcard arguments make instantiations of the same generic class covariant
(`? extends`), contravariant (`? super`) or invariant (a plain argument).
Every query below is answered independently by graph reachability, a
search from both ends through the covers of the constructed relation worked
out on demand, and by the structural decision rules; the two always agree.
"""

from groundsub import is_subtype, parse_declarations, parse_ground_type, subtype_by_graph

table = parse_declarations(
    """
    class Number {}
    class Integer extends Number {}
    class List<T> {}
    """
)

queries = [
    # covariant: the bounded argument orders instantiations like its bound
    ("List<? extends Integer>", "List<? extends Number>"),
    ("List<? extends Number>", "List<? extends Integer>"),
    # contravariant: lower bounds order them the other way around
    ("List<? super Number>", "List<? super Integer>"),
    ("List<? super Integer>", "List<? super Number>"),
    # invariant: exact arguments are unrelated unless identical
    ("List<Integer>", "List<Number>"),
    ("List<Number>", "List<Integer>"),
    # everything sits below the default wildcard and the top type
    ("List<Integer>", "List<?>"),
    ("List<? super Integer>", "O"),
    ("N", "List<? extends Integer>"),
]

for left, right in queries:
    t1 = parse_ground_type(left, table)
    t2 = parse_ground_type(right, table)
    by_graph = subtype_by_graph(table, t1, t2)
    by_rules = is_subtype(t1, t2, table)
    mark = "agree" if by_graph == by_rules else "DISAGREE"
    print(f"{left:28} <: {right:28} graph={by_graph!s:5} rules={by_rules!s:5} ({mark})")
