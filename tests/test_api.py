"""Pin of the package's public surface.

A change that adds or drops an exported name fails here, so the list below
changes only together with a documented change to the public API.
"""

import inspect
import types

import schwartzcalc
from schwartzcalc import errors, families, green, grid, oracle, solver, spectral

PUBLIC_NAMES = [
    "ArityMismatch",
    "BasisMeasure",
    "ConfigError",
    "CoordinateDistribution",
    "CoordinateOperator",
    "DenseOperator",
    "DiagonalOperator",
    "DifferentialOperator",
    "DifferentialOperatorSpec",
    "DiracFamily",
    "DivisionPolicy",
    "EigenfamilyReport",
    "EigenspectrumMeasure",
    "FourierFamily",
    "GeneralizedMeasure",
    "GreenFamilyResult",
    "Grid",
    "GridDistribution",
    "GridMismatch",
    "IdentityOperator",
    "IllConditioned",
    "IndexOffGrid",
    "InvalidGrid",
    "KernelFamily",
    "LazyFamily",
    "MultiplicationOperator",
    "NonFiniteSamples",
    "NonFiniteSymbol",
    "NotABasis",
    "NotDivisible",
    "NotInvertible",
    "OperatorSpectralMeasure",
    "SLinearOperator",
    "ScaledMeasure",
    "SchwartzCalcError",
    "SchwartzFamily",
    "SolveResult",
    "SpectralProductMeasure",
    "SpectrumFunction",
    "SuperposeOperator",
    "SymbolFunction",
    "TooLarge",
    "UnsupportedOrder",
    "constant_symbol",
    "coordinates",
    "delta_distribution",
    "dense_from_diagonal",
    "differential_symbol",
    "divide",
    "dual_grid",
    "eigenspectrum_measure",
    "family_product",
    "finite_difference",
    "gaussian_probes",
    "green_family",
    "green_family_divided",
    "integrate_measure",
    "is_eigenfamily",
    "l2_norm",
    "left_inverse_family",
    "make_grid",
    "member",
    "operator_spectral_measure",
    "pairing",
    "quadrature_weight",
    "sample_function",
    "scale_family",
    "scale_measure",
    "solve",
    "solve_pde",
    "spectral_apply",
    "spectral_distribution",
    "spectral_product",
    "spectrum_identity",
    "spectrum_one",
    "sup_norm",
    "superpose",
    "unit_symbol",
    "zero_distribution",
]


def test_public_names_are_pinned():
    # submodules are left out: which of them are attributes of the package
    # depends on what else the test session imported
    names = sorted(
        name
        for name, value in vars(schwartzcalc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_each_public_name_is_declared_in_one_module():
    # the package star-imports these modules, so their __all__ lists are the
    # only statement of the public surface: disjoint, and together the pin
    declared = [
        name
        for module in (errors, grid, families, spectral, solver, green, oracle)
        for name in module.__all__
    ]
    assert len(declared) == len(set(declared))
    assert sorted(declared) == PUBLIC_NAMES


def test_lazy_family_takes_both_maps_with_no_default():
    # a lazy family's analysis is stated with its synthesis, never solved for
    params = list(inspect.signature(schwartzcalc.LazyFamily).parameters.values())
    assert [p.name for p in params] == ["index_grid", "space_grid", "rows_map", "coordinates_map"]
    assert all(p.default is inspect.Parameter.empty for p in params)
