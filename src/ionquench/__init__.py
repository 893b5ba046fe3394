"""Sudden-quench work statistics and nonequilibrium lag for a laser-driven
trapped ion, across carrier and sideband regimes."""

from .params import (
    HBAR,
    SPEED_OF_LIGHT,
    Branch,
    ReducedParams,
    reduce,
    reduced_from_ratios,
)
from .numerics import (
    CouplingValue,
    coupling_f,
    lncosh,
    log_sum_exp,
    sqrt_shift,
)
from .spectra import (
    DenseQuench,
    EigenPair,
    SpectrumTable,
    dense_hamiltonians,
    displacement_matrix,
    edge_eigenvalues,
    sideband_eigenvalues,
    sideband_eigenvectors,
    spectrum_table,
)
from .workstats import (
    MomentEstimate,
    WorkMoments,
    WorkPMF,
    moments_analytic,
    moments_numeric,
    work_pmf_sideband,
)
from .thermo import (
    DivergenceReport,
    LagResult,
    LogPartition,
    LowTemperatureLimit,
    TruncationReport,
    divergence_predicate_reduced,
    ln_partition_final,
    ln_partition_initial,
    low_temperature_limit,
    nonequilibrium_lag,
    phi_reduced,
)

__version__ = "0.1.0"

__all__ = [
    "HBAR",
    "SPEED_OF_LIGHT",
    "Branch",
    "ReducedParams",
    "reduce",
    "reduced_from_ratios",
    "CouplingValue",
    "coupling_f",
    "lncosh",
    "log_sum_exp",
    "sqrt_shift",
    "DenseQuench",
    "EigenPair",
    "SpectrumTable",
    "dense_hamiltonians",
    "displacement_matrix",
    "edge_eigenvalues",
    "sideband_eigenvalues",
    "sideband_eigenvectors",
    "spectrum_table",
    "MomentEstimate",
    "WorkMoments",
    "WorkPMF",
    "moments_analytic",
    "moments_numeric",
    "work_pmf_sideband",
    "DivergenceReport",
    "LagResult",
    "LogPartition",
    "LowTemperatureLimit",
    "TruncationReport",
    "divergence_predicate_reduced",
    "ln_partition_final",
    "ln_partition_initial",
    "low_temperature_limit",
    "nonequilibrium_lag",
    "phi_reduced",
]
