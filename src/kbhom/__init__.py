"""kbhom: exact Koszul-Brylinski homology on finite complex Poisson models."""

__version__ = "0.1.0"

from .complexes import (
    BlockMap,
    ChainMap,
    Complex,
    ComplexInvariantError,
    DoubleComplex,
    LongExactSequence,
    NotShortExactError,
    SpectralPages,
    homology_dims,
    les_from_ses,
    spectral_pages,
    tensor_double,
    total_complex,
)
from .engine import (
    HHDims,
    HodgeDiamond,
    KBDims,
    euler_char,
    hkr_hochschild,
    hodge_diamond,
    kb_double_complex,
    kb_homology,
    kb_spectral,
)
from .linalg import Matrix, Subspace, kernel_basis, rank
from .models import (
    DolbeaultPoissonModel,
    ModelValidationError,
    ValidationReport,
    koszul_differential,
    product_model,
    validate_model,
)
from .rules import (
    BlowupData,
    InconsistentBlowupError,
    blowup_hodge,
    blowup_kb,
    blowup_point_kb,
    flag_bundle_hh,
    flag_manifold_kb,
    kunneth_dims,
    leray_hirsch_hh,
    mv_euler_check,
    projective_bundle_hodge,
)
from .stein import (
    NonHomogeneousBivector,
    NotPoissonOnSlice,
    PolyBivector,
    SliceCapError,
    stein_complex,
    stein_homology,
)
from .zoo import (
    ModelFileError,
    StructureConstantError,
    hodge_formal,
    load_model,
    parallelizable,
    point,
    read_model,
    save_model,
    torus,
    write_model,
)
