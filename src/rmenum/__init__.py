"""Exact weight distributions of binary Reed-Muller codes and their cosets.

The heavy lifting is a doubling recursion: classify the degree-r forms on
m-1 variables up to invertible substitution, compute one coset enumerator
per class, and assemble W[z; R(r,m)] as the size-weighted sum of their
squares. Everything is exact integer arithmetic end to end; a brute-force
enumerator over the full codeword list serves as the independent oracle.
"""

from .boolfn import (
    Anf,
    HomogeneousSpace,
    TruthTable,
    anf_from_truth_table,
    attach_top,
    decompose_top,
    format_anf,
    parse_anf,
    truth_table_from_anf,
)
from .classify import (
    ClassRecord,
    QuotientClassification,
    classify_quotient,
    equivalence,
    ingest_classification,
    orbit_partition,
    write_classification,
)
from .cosetenum import batch_coset_enumerators, coset_enumerator, rm_dimension
from .gf2 import AffineMap, Gf2Matrix
from .oracle import (
    brute_force_distribution,
    divisibility_exponent,
    min_weight_count,
    validate_reference,
)
from .pipeline import coset_enum_blocks, coset_enum_split, run_pipeline
from .wenum import (
    WeightEnumerator,
    macwilliams,
    polynomial_text,
    read_distribution,
    write_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "Anf",
    "ClassRecord",
    "Gf2Matrix",
    "HomogeneousSpace",
    "QuotientClassification",
    "TruthTable",
    "WeightEnumerator",
    "anf_from_truth_table",
    "attach_top",
    "batch_coset_enumerators",
    "brute_force_distribution",
    "classify_quotient",
    "coset_enum_blocks",
    "coset_enum_split",
    "coset_enumerator",
    "decompose_top",
    "divisibility_exponent",
    "equivalence",
    "format_anf",
    "ingest_classification",
    "macwilliams",
    "min_weight_count",
    "orbit_partition",
    "parse_anf",
    "polynomial_text",
    "read_distribution",
    "rm_dimension",
    "run_pipeline",
    "truth_table_from_anf",
    "validate_reference",
    "write_classification",
    "write_distribution",
]
