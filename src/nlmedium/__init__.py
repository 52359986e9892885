"""Linear and third-order optical response of absorbing dielectrics.

A mesoscopic oscillator-plus-reservoir model of a dielectric medium:
linear susceptibility with dispersion and absorption, the third-order
susceptibility produced by a quartic matter self-coupling, the symbolic
contraction catalogs behind it, tree-level and loop-dressed photon/matter
propagators, the nonlinear displacement field on discrete frequency combs,
and an independent time-domain oscillator oracle.
"""

from .medium import (
    MediumParams,
    NuConstant,
    NuTabulated,
    NuZero,
    chi1,
    gamma_response,
    kk_reconstruct,
    reservoir_kernel,
)
from .nonlinear import (
    SourceDressedTensors,
    chi3,
    lambda0_tensor,
    lambda_isotropic,
    miller_ratio,
    source_dressed_tensors,
)
from .displacement import FrequencyComb, displacement, extract_chi1_fd, extract_chi3_fd
from .serialize import lambda_from_config
from .fieldspace import (
    DressedPropagators,
    LoopQuadrature,
    MeanField,
    PlaneWaveContext,
    PropagatorMatrix,
    SelfEnergyResult,
    dyson_dress,
    mean_fields,
    photon_green,
    self_energy,
    total_kernel,
    total_source,
    tree_propagators,
    vertex,
)
from .duffing import (
    CompareReport,
    DuffingParams,
    compare_chi3,
    duffing_from_medium,
    harmonic_amplitudes,
    perturbative_reference,
    simulate,
)
from .wick import (
    EvaluationContext,
    PolynomialTerms,
    WickTerm,
    assemble_polynomial,
    derivative_terms,
    evaluate_term,
    isserlis_oracle,
    prune_vacuum_bubbles,
    quartic_constraint,
)

__version__ = "0.1.0"
