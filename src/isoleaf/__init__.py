"""Exact atlases, Veech groups, and numeric uniformization of isoperiodic leaves.

The package is organized around one pipeline:

* :mod:`isoleaf.period_algebra` -- exact period characters over Q, Q(i),
  and real quadratic fields; classification and normal forms of leaves;
* :mod:`isoleaf.surface_kernel` -- the translation surfaces that make up a
  leaf (cylinders over tori, slit tori, hexagonal chambers, degenerate
  slit normal forms) with exact membership and cone-angle bookkeeping;
* :mod:`isoleaf.leaf_atlas` -- combinatorial atlases: chambers, wall
  gluings, singular completion points, connectivity certificates, and a
  canonical JSON form;
* :mod:`isoleaf.veech` -- affine symmetry groups of leaves, including the
  quadratic-field criterion with exact unit arithmetic;
* :mod:`isoleaf.teich_numeric` -- the numeric bridge to Teichmueller space
  via Weierstrass functions: elliptic data, form reconstruction, leafwise
  continuation, boundary limits;
* :mod:`isoleaf.render` -- deterministic SVG pictures of atlases and
  surfaces;
* :mod:`isoleaf.cli` -- the ``isoleaf`` command-line tool.
"""

from isoleaf.period_algebra import (
    CharacteristicTriple,
    FieldElement,
    GroundField,
    InvalidInput,
    IsoleafError,
    LatticeElement,
    LeafKind,
    NormalizedCharacter,
    PeriodCharacter,
    TrivialCharacter,
    classify,
    enumerate_triples,
    normalize,
    volume,
)
from isoleaf.leaf_atlas import (
    Atlas,
    atlas_from_json_dict,
    atlas_to_json_dict,
    build_arithmetic,
    build_negative,
    build_nonarith,
    build_positive,
    check_atlas,
    connectivity_check,
    singularity_star,
    wall_tree,
)
from isoleaf.veech import (
    ConjSL2Z,
    QuadraticV,
    TriangularV,
    fundamental_unit,
    group_contains,
    quadratic_group,
    veech_group,
)
from isoleaf.teich_numeric import (
    BoundaryLimit,
    ChamberTrace,
    TeichPoint,
    WeierstrassData,
    boundary_limit,
    chamber_trace,
    hyperbolic_distance,
    leaf_coordinate,
    leaf_to_teich,
    model_point,
    solve_form,
    trace_many,
    wp,
    wzeta,
)
from isoleaf.render import (
    EmptyAtlas,
    Scene,
    Style,
    render_atlas,
    render_surface,
)

__version__ = "0.1.0"

__all__ = [
    "Atlas",
    "BoundaryLimit",
    "ChamberTrace",
    "CharacteristicTriple",
    "ConjSL2Z",
    "EmptyAtlas",
    "FieldElement",
    "GroundField",
    "InvalidInput",
    "IsoleafError",
    "LatticeElement",
    "LeafKind",
    "NormalizedCharacter",
    "PeriodCharacter",
    "Scene",
    "Style",
    "QuadraticV",
    "TeichPoint",
    "TriangularV",
    "TrivialCharacter",
    "WeierstrassData",
    "atlas_from_json_dict",
    "atlas_to_json_dict",
    "boundary_limit",
    "build_arithmetic",
    "build_negative",
    "build_nonarith",
    "build_positive",
    "chamber_trace",
    "check_atlas",
    "classify",
    "connectivity_check",
    "enumerate_triples",
    "fundamental_unit",
    "group_contains",
    "hyperbolic_distance",
    "leaf_coordinate",
    "leaf_to_teich",
    "model_point",
    "normalize",
    "quadratic_group",
    "render_atlas",
    "render_surface",
    "singularity_star",
    "solve_form",
    "trace_many",
    "veech_group",
    "volume",
    "wall_tree",
    "wp",
    "wzeta",
    "__version__",
]
