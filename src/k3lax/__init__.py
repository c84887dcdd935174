"""Exact lattice computations for stability charges on polarized K3 surfaces."""

__version__ = "0.1.0"

from .central_charge import (
    BWParams,
    ChargeForms,
    OmegaVector,
    SupportBound,
    WallHit,
    WallScan,
    closed_form_Z,
    compile_charge,
    eval_Z,
    in_P_plus,
    omega_from_bw,
    reference_omega,
    spherical_wall_hits,
    support_constant,
    wall_scan_alpha,
)
from .spherical_enum import (
    GoodBasis,
    SearchBox,
    companion_classes,
    delta_mu_plus,
    enumerate_spherical,
    good_basis,
)
from .mukai_lattice import (
    MukaiVector,
    NSLattice,
    SphericalClass,
    SphericalNormBasis,
    is_spherical,
    line_bundle_vector,
    mukai_pairing,
    pairing_matrix,
    reflect,
    spherical_norm,
    tensor_line_bundle,
)
from .lax_boundary import (
    IrrationalityCertificate,
    LaxPoint,
    SeparationReport,
    build_lax_point,
    chi_functional,
    family_masses,
    irrationality_certificate,
    separate_from_hom_functionals,
    verify_certificate,
    z_alpha0,
)
from .mass_reconstruction import (
    MassOracle,
    ReconstructedCharge,
    cross_terms,
    reconstruct,
    residual,
)
from .exact_scalars import (
    QuadComplex,
    QuadNumber,
    Rational,
    approx,
    norm_square,
    quad_add,
    quad_mul,
    quad_neg,
    try_sqrt,
)
