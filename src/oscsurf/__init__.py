"""oscsurf: a numerical laboratory for multilinear oscillatory integrals
over hypersurfaces M = {rho = 0}.

Pieces: smooth fields with exact derivative oracles and graph-chart surface
quadrature; the square-root-growth frequency tiling with its packet system,
analysis map and reconstruction identity; tangential vector fields with
surface-measure duals and iterated integration by parts; the bordered
nondegeneracy certificate and its change-of-variables map; and decay-rate
measurement of the multilinear functional, including the sharpness
extremizer family.
"""

__version__ = "0.1.0"

from .errors import (
    BandLimitError,
    BoundaryFrequencyError,
    ConfigError,
    ConstraintError,
    HypothesisError,
    NoRootError,
    NonConvergenceError,
    OscSurfError,
    WindowConstructionError,
)
from .fields import (
    BumpField,
    FDField,
    PolynomialField,
    SmoothField,
    parse_polynomial_table,
)
from .geometry import (
    SurfaceChart,
    build_chart,
    graph_solve,
)
from .instance import ProblemInstance, admissible_constants, make_instance
from .kernel import (
    DecayReport,
    QuadPolicy,
    ScaleData,
    TestFunctionFamily,
    classify_region,
    decay_fit,
    eval_I,
    extremizer_family,
    kernel_decay_probe,
    kernel_eval,
    random_bump_family,
    scales,
)
from .nondegen import (
    NondegeneracyReport,
    Partition,
    certify,
    jacobian_homogeneity_probe,
    psi_map,
)
from .tangent import (
    IBPReport,
    TangentField,
    ibp_identity_check,
)
from .tiling import IntervalQ, Tiling, build_tiling, locate
from .wavepackets import (
    CellTable,
    Coefficients,
    SampledSignal,
    WavePacket,
    analysis,
    cell_table,
    derivative_bound_probe,
    synthesis,
)
from .window import Window, make_window
