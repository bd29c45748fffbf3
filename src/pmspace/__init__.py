"""pmspace: exact computations in probabilistic metric spaces.

Step distribution functions with exact lattice operations, the modified
Levy distance, t-norm sup-convolutions, finite probabilistic metric spaces,
probabilistic 1-Lipschitz maps with envelope extension, and constructive
compactness extraction for sequences of such maps.
"""

from .cdf import (
    H0,
    HINF,
    TOL,
    StepCdf,
    approx_equal,
    evaluate,
    heaviside,
    leq,
    leq_witness,
    make_step_cdf,
    pointwise_sup,
    quantize,
    random_step_cdf,
    value_after,
)
from .documents import Document, parse_document, serialize_document
from .extraction import (
    ExtractionReport,
    converse_compactness_witness,
    extract_uniform_subsequence,
    select_cauchy_subsequence,
    verify_uniform_convergence,
)
from .levy import (
    condition_a,
    is_weak_limit,
    levy_distance,
    levy_to_h0,
    uniform_distance,
)
from .lipschitz import (
    LipschitzCheck,
    LipschitzMap,
    classical_lipschitz_embed,
    delta_embed,
    equicontinuity_bound,
    is_one_lipschitz,
    random_lipschitz_map,
    upper_envelope_extension,
)
from .spaces import (
    ProbMetricSpace,
    covering_net,
    from_classical_metric,
    gen_space,
    gen_spaces,
    is_cauchy,
    make_space,
    strong_neighborhood,
)
from .tnorms import (
    BUILTIN_STARS,
    BUILTIN_TNORMS,
    LUKASIEWICZ,
    MINIMUM,
    PRODUCT,
    STAR_LUKA,
    STAR_MIN,
    STAR_PROD,
    AxiomReport,
    TNorm,
    TriangleFunction,
    check_sup_continuity,
    check_triangle_axioms,
    check_weak_continuity,
    custom_tnorm,
    random_triples,
    star_from_tnorm,
    sup_convolution,
)

__version__ = "0.1.0"
