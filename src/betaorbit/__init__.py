"""Exact branching-orbit analysis of beta-expansions.

For an algebraic base beta in (1, m+1] and a point x of Q(beta), this
package computes the orbit of x under the digit maps x -> beta*x - i
exactly, builds the 0/1 transition matrix on the orbit, certifies the
dominant eigenvalue, and evaluates the dimension and growth rate of the set
of expansions, log_{m+1}(alpha).  It also generates greedy/lazy/custom
expansions with exact periodicity detection, counts admissible digit words
both by enumeration and by matrix powers, certifies Pisot bases, and
enumerates power-sum spectrum gaps.
"""

from .dynamics import (
    ExpansionParams,
    ExpansionRule,
    ExpansionRun,
    count_prefixes_bruteforce,
    digits_to_text,
    expansion_value,
    generate_expansion,
    is_prefix,
    text_to_digits,
    verify_expansion,
)
from .field import (
    FieldElement,
    IntPolynomial,
    NumberField,
    PisotCertificate,
    format_element,
    sort_elements,
)
from .orbit import (
    DivergenceReport,
    OrbitGraph,
    TransitionMatrix,
    compute_orbit,
    count_prefixes_matrix,
    count_profile_matrix,
    matrix_power,
    transition_matrix,
)
from .spacing import (
    GapStats,
    SeparationReport,
    SpectrumLevel,
    enumerate_spectrum,
    gap_stats,
    separation_evidence,
    spectrum_csv,
)
from .spectral import (
    DimensionResult,
    DominanceReport,
    DominanceStatus,
    PerronResult,
    char_polynomial,
    check_dominance,
    dimension,
    perron_eigenvalue,
)

__version__ = "0.1.0"

__all__ = [
    "ExpansionParams", "ExpansionRule", "ExpansionRun",
    "count_prefixes_bruteforce", "digits_to_text", "expansion_value",
    "generate_expansion", "is_prefix", "text_to_digits", "verify_expansion",
    "FieldElement", "IntPolynomial", "NumberField", "PisotCertificate",
    "format_element", "sort_elements",
    "DivergenceReport", "OrbitGraph", "TransitionMatrix", "compute_orbit",
    "count_prefixes_matrix", "count_profile_matrix", "matrix_power",
    "transition_matrix",
    "GapStats", "SeparationReport", "SpectrumLevel", "enumerate_spectrum",
    "gap_stats", "separation_evidence", "spectrum_csv",
    "DimensionResult", "DominanceReport", "DominanceStatus", "PerronResult",
    "char_polynomial", "check_dominance", "dimension", "perron_eigenvalue",
    "__version__",
]
