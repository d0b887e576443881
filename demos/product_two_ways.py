#!/usr/bin/env python3
"""The partitioned product computed by two unrelated implementations.

Only the chosen vertices of the first factor are multiplied with the second
factor; the rest are reattached along the original boundary edges.  The
direct implementation applies the four edge rules, which on Hasse factors
emit exactly the covering edges; the long way builds the full Cartesian
product, collapses the copies of every vertex that was left out of the
partition and reduces.  Both give the same Hasse diagram.
"""

from groundsub import (
    LabeledDigraph,
    PartitionedGraph,
    partial_product,
    partial_product_via_merge,
)

# A diamond-shaped first factor; only the middle vertices multiply.
base = LabeledDigraph.from_edges(
    [("bot", "left"), ("bot", "right"), ("left", "top"), ("right", "top")]
)
partitioned = PartitionedGraph(base, frozenset({"left", "right"}))

parts = partitioned.classify_edges()
print("edge classification of the first factor:")
print("   product-product:", [(e.src, e.dst) for e in parts.pp])
print("   product-plain:  ", [(e.src, e.dst) for e in parts.pn])
print("   plain-product:  ", [(e.src, e.dst) for e in parts.np])
print("   plain-plain:    ", [(e.src, e.dst) for e in parts.nn])
print()

second = LabeledDigraph.from_edges([("lo", "hi")])

direct = partial_product(partitioned, second, combine=lambda u, v: f"{u}[{v}]")
merged = partial_product_via_merge(partitioned, second, combine=lambda u, v: f"{u}[{v}]")

print(f"direct result: {len(direct.vertices)} vertices "
      f"(= 2 multiplied x 2 + 2 plain), {len(direct.edges)} edges")
for e in direct.sorted_edges:
    print(f"   {e.src} -> {e.dst}")
print()
print("merge-based result is identical:", direct.equals_ignoring_tags(merged))

# With an empty partition nothing multiplies and the product returns the
# first factor unchanged.
untouched = partial_product(PartitionedGraph(base, frozenset()), second)
print("empty partition returns the first factor:", untouched == base)
