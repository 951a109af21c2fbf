"""Numerics for holomorphic functions restricted to singularity links.

Given an isolated hypersurface singularity f on C^{n+1} and a holomorphic
polynomial g, the restriction h of g to the link of f is a smooth map of a
(2n-1)-manifold into the plane. This package detects and traces the singular
set of h, classifies its fold points, verifies round fold structure, and
computes Morse data of ray slices and composed height functions; the bundled
CLI reproduces the full analysis for the A1 example, whose singular value
set is a pair of concentric circles of radii sqrt(2)/4 and 3 sqrt(2)/4.
"""

from .errors import (
    BifurcationSuspected,
    DegenerateHessian,
    DimensionCollapse,
    EmptyResult,
    LinkFoldError,
    NonConvergence,
    NotApplicable,
    PolyParseError,
    RankDeficient,
    RankTwo,
    RankZero,
    StepCollapse,
    WrongDimension,
)
from .fold_classify import (
    FoldKind,
    FoldRecord,
    RoundVerdict,
    circle_fit,
    classify_component,
    equivariance_error,
    fold_counts,
    intrinsic_hessian,
    local_fold_data,
    verify_round,
)
from .geometry import (
    LinkSpec,
    TangentFrame,
    chart,
    complexify,
    link_residual,
    project_to_link,
    realify,
    sample_link_points,
    tangent_frame,
)
from .morse import (
    CriticalPointRecord,
    SliceSpec,
    composed_morse,
    slice_critical_points,
    slice_morse_index,
    trace_image_n1,
)
from .polynomial import (
    ComplexPoly,
    conj_gradient,
    eval_poly,
    homogeneous_degree,
    parse_poly,
    poly_to_string,
    weighted_homogeneous,
    wirtinger_partial,
)
from .report import (
    RunConfig,
    run_morse,
    run_singular_set,
    run_verify_a1,
)
from .singular_set import (
    AugmentedSystem,
    CurveTrace,
    collect_components,
    criterion_matrix,
    criterion_rank_defect,
    direct_singularity_test,
    scan_gradient_dependence,
    seed_singular_points,
)

__version__ = "0.1.0"
