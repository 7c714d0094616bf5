"""Verification workbench for spectrum maximizing products of 2x2 pairs.

Builds the two parametric matrix families, the twelve-vertex polygon norm
that certifies their generalized spectral radius, and the brute-force
growth bounds that cross-check the certificate.

The package loads lazily: `import smpverify` imports no submodule.  The
first access to a public name (`smpverify.Mat2`, `from smpverify import
certify_smp`) or to a submodule attribute (`smpverify.polytope`) imports
the module that defines it, through the module `__getattr__` below, and
keeps the name in this module's globals.  So a command of `smpverify.cli`
pays only for the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names this package re-exports from it
_EXPORTS = {
    "scalar": "BackendMismatchError FloatKappa KappaContext Scalar parse_scalar",
    "matrix2": "EigenvectorError Mat2 SingularMatrixError Vec2 "
    "eigenvector_unit_first quarter_turn similarity spectral_radius",
    "words": "BoundsRow BoxNorm Word bounds_table cyclic_normal_form evaluate "
    "factor_counts necklaces rho_bar_n rho_n",
    "permutability": "ReducibleSetError TauMap SwapSpectrumReport friedland_5tuple "
    "friedland_permutable is_irreducible tau_word swap_spectrum_check verify_tau",
    "families": "DISTINGUISHED_PHI MatrixSet NormalizedSet custom_set "
    "eigenvectors_from_products eigenvectors_vw example_alt example_main "
    "example_main_special normalize swap_pair",
    "polytope": "Certificate ImagePoints Polygon admissible_mu_interval "
    "alt_mu_thresholds build_polygon certify_smp convexity_check "
    "empirical_mu_thresholds images kappa_max mu_thresholds omega_thresholds "
    "polygon_gauge sector_coords triangle_h verify_inclusions vertex_order_check",
    "figures": "FigureSpec render render_string",
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_EXPORTS) + sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    elif name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
