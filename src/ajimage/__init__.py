"""Exact Mordell-Weil decomposition of divisor classes on elliptic surfaces.

Given pure intersection data — fiber kinds, section footprints, and the
pairing numbers of a divisor class D — the library computes the image of D
in the Mordell-Weil group as n * P_o + torsion, entirely in rational
arithmetic.  On top of that sit dihedral-cover existence decisions and an
exact plane-geometry generator for nodal-cubic + four-line arrangements.

Entry points: :func:`build_table` / :func:`derive` for the core pipeline,
:func:`generate_arrangement` / :func:`image_of` for the geometric front end,
:func:`d2n_cover_exists` for cover decisions, and :mod:`ajimage.cli` for the
command line.
"""

from .arrangement import (
    Arrangement,
    Line,
    ProjPoint,
    classify_type,
    collinear,
    cubic_form,
    generate_arrangement,
    image_of,
    on_cubic,
    param_of_u,
    param_point,
    tangent_line_at,
    u_of,
)
from .configio import (
    BUNDLED,
    SCHEMA_VERSION,
    ConfigDocument,
    bundled_config,
    load_config,
    loads_config,
    parse_config,
)
from .dihedral import (
    ArrangementType,
    CoverVerdict,
    RelationStatus,
    RelationVerdict,
    d2n_cover_exists,
    is_divisible,
    verify_ns_relation,
)
from .errors import (
    DegenerateArrangementError,
    InconsistentDataError,
    MissingIntersectionError,
    SchemaError,
)
from .exact import (
    QMatrix,
    SmithForm,
    smith_normal_form,
)
from .fourlines import (
    GENERATOR,
    VARIANTS,
    eminus_profile,
    eplus_profile,
    four_line_surface,
    ns_relation,
)
from .kodaira import (
    AbelianGroup,
    FiberKind,
    ReducibleFiberData,
    fiber_data,
)
from .mwgroup import (
    Derivation,
    MWPoint,
    abel_jacobi_image,
    derive,
)
from .nslattice import (
    DivisorProfile,
    FormalClass,
    IntersectionTable,
    SectionProfile,
    SurfaceConfig,
    TorsionSectionSpec,
    build_table,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "Arrangement",
    "ArrangementType",
    "BUNDLED",
    "ConfigDocument",
    "CoverVerdict",
    "DegenerateArrangementError",
    "Derivation",
    "DivisorProfile",
    "FiberKind",
    "FormalClass",
    "GENERATOR",
    "InconsistentDataError",
    "IntersectionTable",
    "Line",
    "MWPoint",
    "MissingIntersectionError",
    "ProjPoint",
    "QMatrix",
    "ReducibleFiberData",
    "RelationStatus",
    "RelationVerdict",
    "SCHEMA_VERSION",
    "SchemaError",
    "SectionProfile",
    "SmithForm",
    "SurfaceConfig",
    "TorsionSectionSpec",
    "VARIANTS",
    "abel_jacobi_image",
    "build_table",
    "bundled_config",
    "classify_type",
    "collinear",
    "cubic_form",
    "d2n_cover_exists",
    "derive",
    "eminus_profile",
    "eplus_profile",
    "fiber_data",
    "four_line_surface",
    "generate_arrangement",
    "image_of",
    "is_divisible",
    "load_config",
    "loads_config",
    "ns_relation",
    "on_cubic",
    "param_of_u",
    "param_point",
    "parse_config",
    "smith_normal_form",
    "tangent_line_at",
    "u_of",
    "verify_ns_relation",
]
