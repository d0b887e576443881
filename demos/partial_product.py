#!/usr/bin/env python3
"""The vertex-partitioned product of a diamond and a chain.

Only the chosen vertices of the first factor are multiplied with the second
factor; the rest are reattached along the original boundary edges.  The
partition sorts the first factor's edges into four classes, and each class
contributes edges of its own shape.  On Hasse factors the rules emit exactly
the covering edges of the product order, so nothing needs reducing.
"""

from groundsub import LabeledDigraph, PartitionedGraph, partial_product

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
product = partial_product(partitioned, second, combine=lambda u, v: f"{u}[{v}]")

print(f"diamond x chain: {len(product.vertices)} vertices "
      f"(= 2 multiplied x 2 + 2 plain), {len(product.edges)} covering edges")
for e in product.sorted_edges:
    print(f"   {e.src} -> {e.dst} ({e.tag.value})")
# Fan-out leaves only the copies at the chain's top and fan-in enters only
# the copies at its bottom, so every edge above is a cover.
print("bot reaches top only through the copies:",
      "top" in product.descendants_of("bot") and "top" not in product.successors("bot"))
print()

# With an empty partition nothing multiplies and the product returns the
# first factor unchanged.
untouched = partial_product(PartitionedGraph(base, frozenset()), second)
print("empty partition returns the first factor:", untouched == base)
