"""codedflow: information/estimation identities for linearly coded flows.

The library models a network of directed links carrying linear combinations
of complex input streams, observed at the sinks through unit-variance
complex Gaussian noise.  It computes the mutual information between inputs
and outputs, the conditional-mean estimator and its error matrix, and the
closed-form gradients of the information with respect to the precoding,
coupling, and decoding matrices -- each backed by an independent
finite-difference oracle so every identity can be checked rather than
trusted.
"""

import logging

__version__ = "0.1.0"
logging.getLogger(__name__).addHandler(logging.NullHandler())  # silent unless the application configures logging

from .errors import (
    CodedFlowError,
    ConfigError,
    CostGuardError,
    CyclicTopologyError,
    DensityUnderflow,
    EmptySupport,
    InvariantViolation,
    SingularIFError,
    SingularSystemMatrix,
    SparsityViolation,
    StepTooSmallError,
    UnknownEdge,
)
from .netgraph import (
    CodingCoefficients,
    NetworkTopology,
    SystemMatrices,
    build_coefficient_matrices,
    compact_form,
    compact_system,
    neumann_topology_sum,
    remove_edge,
    zero_edge_coefficients,
)
from .flowmodel import (
    InputDistribution,
    SampleBatch,
    log_conditional_density,
    log_output_density,
    output_score,
    sample,
)
from .estimator import (
    EngineSpec,
    MmseMatrix,
    conditional_mean,
    conditional_mean_batch,
    estimation_diagnostics,
    invert_flow_estimate,
    mmse_matrix,
    score_identity_residual,
)
from .infogradients import (
    GradientReport,
    MutualInformationValue,
    NATS_PER_BIT,
    WIRTINGER_SCALE,
    directional_derivative,
    gaussian_logdet_gradient,
    gaussian_mutual_information,
    grad_mi_cut,
    grad_mi_decoding,
    grad_mi_precoding,
    grad_mi_topology,
    grad_oracle,
    mutual_information,
    verify_gradients,
)
from .scenarios import (
    CutReport,
    ExpansionCheck,
    Grad11Expansion,
    cut_analysis,
    diamond_compact_system,
    diamond_coefficients,
    diamond_topology,
    grad11_matches_matrix_form,
    grad11_matrix_form,
    precoder_ascent,
    seeded_diamond_symbols,
    topology_grad11,
)
