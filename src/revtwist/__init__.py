"""Reversible twist maps: truncated series algebra, normal forms, periodic
curves of perturbed twists, and divergence obstructions."""

from .families import CoefficientFamily, load_family, save_family
from .obstruction import (
    Hk_estimate,
    ObstructionReport,
    ObstructionRow,
    divergence_witness,
    leading_Hk,
    predicted_linear_zeta,
    select_resonant_n,
)
from .surface import (
    BishopData,
    Hn_obstruction,
    QZetaReport,
    build_involution_maps,
    involution_jets,
    is_exceptional,
    lambda_from_gamma,
    q_zeta_check,
    real_intersection,
    surface_curves,
)
from .twist import (
    CurveDomain,
    DomainError,
    HypothesisViolation,
    MajorantReport,
    PeriodicCurve,
    ResonanceData,
    SolverError,
    TwistParams,
    beta_reduce,
    calibration_family,
    compute_constants,
    h_eval,
    iterate,
    majorant_sequence,
    make_varphi,
    measurable_ring,
    periodic_curve,
    solve_branch,
    twist_eval,
)
from .normal_form import (
    InvolutionPair,
    MWResult,
    NormalFormResult,
    ResonanceError,
    S_INFINITY,
    extract_eps_s,
    full_normalize,
    gamma_from_M,
    linearize_involution,
    mw_normalize,
    normal_form_map,
    phi2_from_Gamma,
)
from .series import (
    DEFAULT_ORDER,
    Jet,
    MapJet,
    MAX_ORDER,
    jet_compose,
    jet_exp_i,
    jet_mul,
    map_compose,
    map_inverse,
    map_residual,
    reality_defect,
    rho_conjugate,
)

__version__ = "0.1.0"
