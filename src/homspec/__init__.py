"""Time-resolved two-photon coincidence simulation for interferometric
entangled-pair spectroscopy: exchange-phased pair preparation, beam-splitter
detection with a scanned delay, Liouville-space pathway decomposition of the
light-matter interaction, and an independent wavefunction brute force for
validation."""

from .biphoton import (
    BiphotonAmplitude,
    CrystalSpec,
    DeltaAmplitude,
    FrequencyGrid,
    GridAxis,
    PumpSpec,
    build_jsa,
    default_grid,
    delta_limit_amplitude,
    entanglement_time,
    to_time_domain,
)
from .model import (
    CORRELATOR_SEQUENCES,
    ExcitonSystem,
    Level,
    LiouvilleOperatorSet,
    LiouvilleState,
    apply_dipole,
    correlator,
    propagate,
)
from .oracle import (
    DiscretizedField,
    PerturbativeKet,
    coincidence_probability,
    evolve_perturbative,
    fourth_order_coincidence,
)
from .pathways import (
    HomSpec,
    PathwayTerm,
    bare_pair_coincidence,
    detection_pathways,
    enumerate_interaction_pathways,
    hom_matrix,
    kl_divergence,
    pathway_entropy,
    term_table,
)
from .signal import (
    QuadratureSpec,
    SignalGrid,
    coincidence,
    coincidence_short_Te,
    default_quadrature,
    pathway_probabilities,
    scan,
    term_value,
)

__version__ = "0.1.0"
