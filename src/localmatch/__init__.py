"""Local vs. global maximum matchings on planar point sets.

Exact matching oracles for desk-scale instances, k-locality verification
and local search, geometric ratio certificates (disk enlargement, star
bounds, normalized-ellipse centers), pairwise-crossing matching checks,
and an adversarial instance miner.
"""

from .certificates import (
    Certificate,
    CertificateError,
    CenterWitness,
    DiskFamily,
    ENLARGEMENT_FACTOR,
    LocalityError,
    WitnessError,
    certify,
    check_fingerhut_witness,
    check_witness,
    common_point,
    diametral_family,
    fingerhut_center,
    star_weight,
)
from .crossing import (
    CrossingReport,
    GeneralPositionError,
    convex_diagonal_matching,
    find_pairwise_crossing,
    full_crossing_report,
    halfplane_balance,
    is_pairwise_crossing,
    verify_globally_maximum,
)
from .generators import (
    LOWER_BOUNDS,
    MinedInstance,
    MinerConfig,
    gen_circle_alternating,
    gen_convex,
    gen_intersecting_disks,
    gen_random,
    gen_tangent_disks,
    mine_low_ratio,
)
from .geometry import (
    DEFAULT_TOL,
    Disk,
    Point,
    Tolerance,
    diameter_bound,
    diametral_disk,
    disks_intersect,
    distance,
    endpoint_bound,
    orientation,
)
from .matching import (
    CapExceededError,
    CycleDecomposition,
    DEFAULT_ORACLE_CAP,
    Matching,
    PointSet,
    RatioReport,
    cycle_decomposition,
    enumerate_matchings,
    greedy_matching,
    is_k_local_max,
    is_k_local_min,
    k_local_search,
    optimal_matching,
    ratio_report,
    weight,
)

__version__ = "0.1.0"
