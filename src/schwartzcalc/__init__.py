"""Desk-scale spectral calculus on periodic grids.

Continuous eigenfamilies (Dirac, Fourier, explicit kernels) discretized on
truncated uniform lattices; operators applied by expansion in
eigen-coordinates; a measure-style functional calculus over the eigenvalue
system; equation solving by thresholded symbol division; and Green kernel
families certified by weak probe pairings.
"""

from .errors import (
    ArityMismatch,
    ConfigError,
    GridMismatch,
    IllConditioned,
    IndexOffGrid,
    InvalidGrid,
    NonFiniteSamples,
    NonFiniteSymbol,
    NotABasis,
    NotDivisible,
    NotInvertible,
    SchwartzCalcError,
    TooLarge,
    UnsupportedOrder,
)
from .grid import (
    Grid,
    GridDistribution,
    SymbolFunction,
    constant_symbol,
    delta_distribution,
    dual_grid,
    l2_norm,
    make_grid,
    pairing,
    quadrature_weight,
    sample_function,
    sup_norm,
    unit_symbol,
    zero_distribution,
)
from .families import (
    CoordinateDistribution,
    DiracFamily,
    FourierFamily,
    KernelFamily,
    LazyFamily,
    SchwartzFamily,
    coordinates,
    family_product,
    member,
    scale_family,
    superpose,
)
from .spectral import (
    BasisMeasure,
    CoordinateOperator,
    DenseOperator,
    DiagonalOperator,
    EigenfamilyReport,
    EigenspectrumMeasure,
    GeneralizedMeasure,
    IdentityOperator,
    MultiplicationOperator,
    OperatorSpectralMeasure,
    ScaledMeasure,
    SLinearOperator,
    SpectralProductMeasure,
    SpectrumFunction,
    SuperposeOperator,
    eigenspectrum_measure,
    integrate_measure,
    is_eigenfamily,
    operator_spectral_measure,
    scale_measure,
    spectral_apply,
    spectral_distribution,
    spectral_product,
    spectrum_identity,
    spectrum_one,
)
from .solver import (
    DifferentialOperator,
    DifferentialOperatorSpec,
    DivisionPolicy,
    SolveResult,
    differential_symbol,
    divide,
    solve,
    solve_pde,
)
from .green import (
    GreenFamilyResult,
    gaussian_probes,
    green_family,
    green_family_divided,
    left_inverse_family,
)
from .oracle import dense_from_diagonal, finite_difference

__version__ = "0.1.0"
