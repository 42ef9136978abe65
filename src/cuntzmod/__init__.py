"""Exact monomial calculus, modular structure and spectral-flow index
pairings for the dense subalgebra of the Cuntz algebra on n isometries,
with numeric cross-checks of the analytic formulas.

The public names load lazily (PEP 562): ``import cuntzmod`` imports no
submodule, and the first access to a name imports its home module from
``_HOME`` and caches the value here.  Each CLI process then compiles and
runs only the modules its verb needs, which is most of its start-up.
``cuntzmod.X`` is ``cuntzmod.<home>.X`` for every name in ``__all__``.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {
    **dict.fromkeys(
        (
            "AlgebraElement", "adjoint", "canonical_form", "closed_form_sf", "equals", "gen",
            "linear_combine", "monomial", "multiply", "one", "projection", "projection_perturbation_data",
            "s_word", "zero",
        ),
        "algebra",
    ),
    **dict.fromkeys(
        (
            "EndoSum", "RankOne", "compose_left_mult", "endo_apply", "endo_compose",
            "key_fact_check", "phi_k_endo", "tau_delta_endo", "tau_delta_truncated", "tau_tilde",
        ),
        "endos",
    ),
    **dict.fromkeys(
        ("BackendError", "CuntzError", "DomainError", "ExprSyntaxError", "TermBudgetExceeded", "UsageError"),
        "errors",
    ),
    **dict.fromkeys(("parse", "render"), "expr"),
    **dict.fromkeys(
        (
            "FlowReport", "aps_index_traces", "correction_terms", "flow_report",
            "hochschild_orientation", "k0_membership", "relative_entropy", "spectral_flow", "twisted_theta",
        ),
        "flow",
    ),
    **dict.fromkeys(
        (
            "AlgMatrix", "apply_sigma", "build_u_mu_nu", "build_u_v", "homotopy_path_check",
            "is_modular_unitary", "modular_certificate",
        ),
        "matrices",
    ),
    **dict.fromkeys(
        (
            "commutator_D", "delta_power", "expectation", "gauge_component", "inner_product",
            "modular_conjugation_J", "psi_product", "sigma", "state_psi",
            "tomita_F", "tomita_S", "trace_F",
        ),
        "modular",
    ),
    **dict.fromkeys(
        ("ProjectionPerturbation", "SummationConfig", "beta_constant", "dixmier_limit", "eta_numeric", "sf_integral"),
        "numerics",
    ),
    **dict.fromkeys(("QSqrt", "n_power"), "scalars"),
}

_SUBMODULES = ("algebra", "endos", "errors", "expr", "flow", "matrices", "modular", "numerics", "scalars", "tally")

__all__ = [*_HOME, *_SUBMODULES]


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
