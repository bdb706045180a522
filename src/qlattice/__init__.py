"""Exact combinatorics of subspace families over finite fields.

Layers: the frozen-record base (records), q-binomial arithmetic and prime
machinery (qcombin), the lattice budget and deadline scope (budgets),
canonical subspaces and the containment lattice (gfspace), lattice
transforms and inversion checks (moebius), family checkers, bounds,
partitions, and the Gram analysis (families), rank-based independence
certificates (certificates), exhaustive clique search and generators
(search), and the command-line surface (cli).

Every name below loads its home module on first use (PEP 562), so
``import qlattice`` and a command that needs one layer pay for that layer
and the ones it builds on, not for the whole package.
"""

import importlib

__version__ = "0.1.0"

# home module -> the names the package exports from it
_EXPORTS = {
    "errors": (
        "DomainError", "QLatticeError", "ResourceLimitError", "StructureError",
        "UnsupportedParametersError",
    ),
    "qcombin": (
        "BoundReport", "ZsigmondyException", "alt_sum", "capital_N", "ceil_log", "g_of",
        "h_of", "is_prime", "multiplicative_order", "prime_power",
        "primorial_prime_set", "qbinom", "require_zsigmondy_prime", "trial_factor",
        "zsigmondy_exception", "zsigmondy_prime",
    ),
    "budgets": ("budget", "check_deadline", "lattice_budget"),
    "gfspace": (
        "ContainmentVector", "FieldContext", "Lattice", "LineIncidence", "Subspace",
        "SubspaceIndex", "canonicalize", "containment_vector", "contains",
        "enumerate_subspaces", "field", "field_from_dict", "full_space", "index_of",
        "intersect", "lattice", "lattice_size", "line_mask", "meet_dim", "subspace_at",
        "union_space", "zero_subspace",
    ),
    "moebius": (
        "InversionCheck", "LatticeFunction", "VanishingReport", "gap_of",
        "generalized_inversion_check", "interval_sum", "join_sum", "moebius_transform",
        "moebius_value", "vanishing_check", "zeta_transform",
    ),
    "families": (
        "CheckResult", "Family", "FractionSet", "GramReport", "ModularProfile",
        "PartitionJK", "bound_frac_general", "bound_frankl_graham", "bound_singleton",
        "bound_theorem1", "check_fractional", "check_modular", "det_bareiss",
        "family_from_dict", "family_to_dict", "fractional_cell_bound",
        "fractions_from_strings", "fractions_to_strings", "gram_analysis",
        "integer_rank", "partition_dims", "partition_jk", "partition_mod_prime",
        "power_cell", "profile_from_dict", "shared_line_counts",
    ),
    "certificates": (
        "VARIANTS", "CertificateContext", "CertificateMatrix", "SpanReport",
        "certificate_context", "eval_f", "eval_g_i", "eval_g_xy",
        "independence_certificate", "product_reduce", "rank_mod_p", "span_check",
    ),
    "search": (
        "BisectionExample", "CompatGraph", "FracUniformExample", "SearchLimits",
        "SearchResult", "UniformExample", "build_graph", "gen_example_bisection",
        "gen_example_frac_uniform", "gen_example_uniform", "max_family",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "options", "records", "cli")

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str):
    """Import a submodule, or an exported name from its home module, on first use."""
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
