"""Exact monomial calculus, modular structure and spectral-flow index
pairings for the dense subalgebra of the Cuntz algebra on n isometries,
with numeric cross-checks of the analytic formulas."""

from .algebra import (
    AlgebraElement,
    adjoint,
    canonical_form,
    equals,
    gen,
    linear_combine,
    monomial,
    multiply,
    one,
    projection,
    s_word,
    zero,
)
from .endos import (
    EndoSum,
    RankOne,
    compose_left_mult,
    endo_apply,
    endo_compose,
    key_fact_check,
    phi_k_endo,
    tau_delta_endo,
    tau_delta_truncated,
    tau_tilde,
)
from .errors import (
    BackendError,
    CuntzError,
    DomainError,
    ExprSyntaxError,
    TermBudgetExceeded,
    UsageError,
)
from .expr import parse, render
from .flow import (
    FlowReport,
    aps_index_traces,
    closed_form_sf,
    cocycle_check,
    correction_terms,
    flow_report,
    hochschild_orientation,
    k0_membership,
    projection_perturbation_data,
    relative_entropy,
    spectral_flow,
    twisted_theta,
)
from .matrices import (
    AlgMatrix,
    apply_sigma,
    build_u_mu_nu,
    build_u_v,
    homotopy_path_check,
    is_modular_unitary,
    is_unitary,
    modular_certificate,
)
from .modular import (
    commutator_D,
    delta_power,
    expectation,
    gauge_component,
    inner_product,
    modular_conjugation_J,
    sigma,
    sigma_auto,
    state_psi,
    tomita_F,
    tomita_S,
    trace_F,
)
from .numerics import (
    ProjectionPerturbation,
    SummationConfig,
    beta_constant,
    dixmier_limit,
    eta_numeric,
    sf_integral,
)
from .scalars import QSqrt, n_power

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
