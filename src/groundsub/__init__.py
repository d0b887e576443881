"""Ground generic subtyping graphs built from partial Cartesian graph
products, cross-checked by a rule-based decision procedure."""

from .builder import (
    InfiniteGraph,
    IterationTrace,
    run,
    subtype_by_graph,
    sufficient_depth,
)
from .digraph import (
    BipointedGraph,
    Edge,
    EdgeTag,
    LabeledDigraph,
    pair_label,
    reachable,
    transitive_reduction,
)
from .errors import (
    DeclarationError,
    GraphError,
    GroundsubError,
    ParseError,
    SizeLimitError,
)
from .export import FORMATS, render
from .labels import BOTTOM_CLASS, TOP_CLASS, WILDCARD
from .product import EdgePartition, PartitionedGraph, partial_product
from .rules import (
    DifferentialReport,
    Mismatch,
    differential_check,
    enumerate_types,
    is_subtype,
)
from .typelang import (
    WILD,
    ClassTable,
    Con,
    Cov,
    GroundType,
    Inv,
    TypeArg,
    Wild,
    argument_label,
    canonical_label,
    parse_declarations,
    parse_ground_type,
    rank,
)
from .wildcards import wildcards_graph, wildcards_size

__version__ = "0.1.0"

__all__ = [
    "BOTTOM_CLASS",
    "BipointedGraph",
    "ClassTable",
    "Con",
    "Cov",
    "DeclarationError",
    "DifferentialReport",
    "Edge",
    "EdgePartition",
    "EdgeTag",
    "FORMATS",
    "GraphError",
    "GroundType",
    "GroundsubError",
    "InfiniteGraph",
    "Inv",
    "IterationTrace",
    "LabeledDigraph",
    "Mismatch",
    "ParseError",
    "PartitionedGraph",
    "SizeLimitError",
    "TOP_CLASS",
    "TypeArg",
    "WILD",
    "WILDCARD",
    "Wild",
    "argument_label",
    "canonical_label",
    "differential_check",
    "enumerate_types",
    "is_subtype",
    "pair_label",
    "parse_declarations",
    "parse_ground_type",
    "partial_product",
    "rank",
    "reachable",
    "render",
    "run",
    "subtype_by_graph",
    "sufficient_depth",
    "transitive_reduction",
    "wildcards_graph",
    "wildcards_size",
]
