"""flagcalc: exact-integer Schubert calculus on flag manifolds G/P.

From a Cartan matrix and a parabolic subset the package enumerates Schubert
classes (minimal coset representatives of the Weyl group), computes
characteristic numbers of Schubert-class monomials, derives degree-bounded
presentations of the intersection ring, and produces Schubert polynomials;
an independent Littlewood-Richardson oracle cross-validates the type-A case.
"""

__version__ = "0.1.0"

from .cartan import CartanMatrix, builtin_cartan, parse_group_label, validate
from .characteristics import (
    GradedIntPolynomial,
    SchubertExpansion,
    StructureMatrix,
    characteristic,
    multiply_schubert,
    structure_matrix,
    triangular_operator,
)
from .errors import (
    DegreeMismatch,
    EmptyK,
    FlagcalcError,
    IndexOutOfRange,
    InvalidSeriesRank,
    NonSurjective,
    NotCartan,
    NotFound,
    NotSingletonK,
    NotTypeA,
    OutOfRange,
    ResourceLimit,
    TruncatedTable,
)
from .intlinalg import integer_diagonalize, smith_normal_form
from .oracle import (
    borel_inverse_components,
    coset_to_partition,
    lr_coefficient,
    partition_to_entry,
    pieri,
)
from .presentation import (
    GeneratorSet,
    Presentation,
    SchubertPolynomial,
    expansion_matrix,
    find_generators,
    find_relations,
    generator_set_from_words,
    schubert_polynomials,
)
from .weyl import (
    CosetEntry,
    CosetTable,
    element_of_word,
    enumerate_cosets,
    simple_reflection,
    top_element,
)

__all__ = [name for name in dir() if not name.startswith("_")]
