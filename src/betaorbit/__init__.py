"""Exact branching-orbit analysis of beta-expansions.

For an algebraic base beta in (1, m+1] and a point x of Q(beta), this
package computes the orbit of x under the digit maps x -> beta*x - i
exactly, builds the 0/1 transition matrix on the orbit, certifies the
dominant eigenvalue, and evaluates the dimension and growth rate of the set
of expansions, log_{m+1}(alpha).  It also generates greedy/lazy/alternating
expansions with exact periodicity detection, counts admissible digit words
both by enumeration and by matrix powers, certifies Pisot bases, and
enumerates power-sum spectrum gaps.

`import betaorbit` loads no submodule: each public name below is imported
from its submodule on first access (PEP 562), so a caller pays only for the
layers it uses.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SUBMODULE = {
    **dict.fromkeys((
        "ExpansionParams", "ExpansionRule", "ExpansionRun",
        "count_prefixes_bruteforce", "digits_to_text", "expansion_value",
        "generate_expansion",
    ), "dynamics"),
    **dict.fromkeys((
        "FieldElement", "IntPolynomial", "NumberField", "PisotCertificate",
        "format_element", "sort_elements",
    ), "field"),
    **dict.fromkeys((
        "OrbitGraph", "TransitionMatrix", "compute_orbit", "count_prefixes_matrix",
        "count_profile_matrix", "matrix_power", "transition_matrix",
    ), "orbit"),
    **dict.fromkeys((
        "GapStats", "SeparationReport", "SpectrumLevel", "enumerate_spectrum",
        "gap_stats", "separation_evidence", "spectrum_csv",
    ), "spacing"),
    **dict.fromkeys((
        "DimensionResult", "DominanceReport", "DominanceStatus", "PerronResult",
        "char_polynomial", "check_dominance", "dimension", "perron_eigenvalue",
    ), "spectral"),
}

__all__ = [*_SUBMODULE, "__version__"]


def __getattr__(name: str):
    try:
        submodule = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
