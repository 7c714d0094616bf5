"""Verification workbench for spectrum maximizing products of 2x2 pairs.

Builds the two parametric matrix families, the twelve-vertex polygon norm
that certifies their generalized spectral radius, and the brute-force
growth bounds that cross-check the certificate.
"""

from .scalar import (
    BackendMismatchError,
    FloatKappa,
    KappaContext,
    Scalar,
    parse_scalar,
)
from .matrix2 import (
    EigenvectorError,
    Mat2,
    SingularMatrixError,
    Vec2,
    eigenvector_unit_first,
    quarter_turn,
    similarity,
    spectral_radius,
)
from .words import (
    BoundsRow,
    BoxNorm,
    Word,
    bounds_table,
    cyclic_normal_form,
    evaluate,
    factor_counts,
    necklaces,
    rho_bar_n,
    rho_n,
)
from .permutability import (
    ReducibleSetError,
    TauMap,
    SwapSpectrumReport,
    friedland_5tuple,
    friedland_permutable,
    is_irreducible,
    tau_word,
    swap_spectrum_check,
    verify_tau,
)
from .families import (
    DISTINGUISHED_PHI,
    MatrixSet,
    NormalizedSet,
    custom_set,
    eigenvectors_from_products,
    eigenvectors_vw,
    example_alt,
    example_main,
    example_main_special,
    normalize,
)
from .polytope import (
    Certificate,
    ImagePoints,
    Polygon,
    admissible_mu_interval,
    build_polygon,
    certify_smp,
    convexity_check,
    empirical_mu_thresholds,
    images,
    kappa_max,
    mu_thresholds,
    omega_thresholds,
    polygon_gauge,
    sector_coords,
    triangle_h,
    verify_inclusions,
    vertex_order_check,
)
from .figures import FigureSpec, render, render_string

__version__ = "0.1.0"
