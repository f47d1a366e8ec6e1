"""flagcalc: exact-integer Schubert calculus on flag manifolds G/P.

From a Cartan matrix and a parabolic subset the package enumerates Schubert
classes (minimal coset representatives of the Weyl group), computes
characteristic numbers of Schubert-class monomials, derives degree-bounded
presentations of the intersection ring, and produces Schubert polynomials;
an independent Littlewood-Richardson oracle cross-validates the type-A case.

The names below load on first use (PEP 562): importing the package, or one
of its modules, does not import the others.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "cartan": ("CartanMatrix", "builtin_cartan", "parse_group_label", "validate"),
    "characteristics": (
        "SchubertExpansion",
        "StructureMatrix",
        "characteristic",
        "multiply_schubert",
        "structure_matrix",
        "triangular_operator",
    ),
    "errors": (
        "DegreeMismatch",
        "EmptyK",
        "FlagcalcError",
        "IndexOutOfRange",
        "InvalidSeriesRank",
        "NonSurjective",
        "NotCartan",
        "NotFound",
        "NotSingletonK",
        "NotTypeA",
        "OutOfRange",
        "ResourceLimit",
        "TruncatedTable",
    ),
    "intlinalg": ("smith_normal_form",),
    "oracle": (
        "borel_inverse_components",
        "coset_to_partition",
        "lr_coefficient",
        "partition_to_entry",
        "pieri",
    ),
    "presentation": (
        "GeneratorSet",
        "Presentation",
        "SchubertPolynomial",
        "expansion_matrix",
        "find_generators",
        "find_relations",
        "generator_set_from_words",
        "schubert_polynomials",
    ),
    "weyl": (
        "CosetEntry",
        "CosetTable",
        "element_of_word",
        "enumerate_cosets",
        "simple_reflection",
        "top_element",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
