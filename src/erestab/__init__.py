"""Stability of elliptic relative equilibria in restricted N-body problems.

Builds central configurations of the primaries (collinear chains and
regular polygons with a central mass), attaches the massless body's
equilibrium, integrates the linearized Hamiltonian system over one period,
and decides linear stability from the monodromy spectrum and the twisted
Morse indices of the associated second-order operator.
"""

__version__ = "0.1.0"

from .central_config import (
    Configuration,
    MassSystem,
    collinear_three_primaries,
    locate_offline_equilibria,
    moulton_collinear,
    offline_equilibrium,
    restricted_position,
    solve_euler_quintic,
    solve_symmetric_y,
)
from .errors import (
    ConvergenceError,
    CurveExtractionError,
    DegenerateSolutionError,
    DomainError,
    ErestabError,
    ExistenceError,
    InvariantViolation,
    SingularityError,
)
from .linearization import (
    DMatrix,
    StabilityParams,
    compute_D,
    spectral_params,
    symmetric_beta,
    symmetric_z,
)
from .maslov import (
    IndexResult,
    assemble_operator,
    morse_index,
    r_e_fourier_coefficients,
)
from .monodromy import (
    Monodromy,
    SpectrumVerdict,
    Verdict,
    classify_spectrum,
    integrate_fundamental,
)
from .polygon_config import (
    BangQuantities,
    PolygonSystem,
    Site,
    bang_quantities,
    h1,
    hn,
    solve_site,
)
from .scan import (
    CurveKind,
    CurvePoint,
    MassScanPoint,
    MstarResult,
    PointResult,
    PolygonVerdictRecord,
    ScanRecord,
    ScanSettings,
    analyze,
    find_curves,
    find_mstar,
    mass_scan_4body,
    polygon_verdicts,
    scan_theta,
)

__all__ = [
    "__version__",
    "BangQuantities",
    "Configuration",
    "ConvergenceError",
    "CurveExtractionError",
    "CurveKind",
    "CurvePoint",
    "DMatrix",
    "DegenerateSolutionError",
    "DomainError",
    "ErestabError",
    "ExistenceError",
    "IndexResult",
    "InvariantViolation",
    "MassScanPoint",
    "MassSystem",
    "Monodromy",
    "MstarResult",
    "PointResult",
    "PolygonSystem",
    "PolygonVerdictRecord",
    "ScanRecord",
    "ScanSettings",
    "SingularityError",
    "Site",
    "SpectrumVerdict",
    "StabilityParams",
    "Verdict",
    "analyze",
    "assemble_operator",
    "bang_quantities",
    "classify_spectrum",
    "collinear_three_primaries",
    "compute_D",
    "find_curves",
    "find_mstar",
    "h1",
    "hn",
    "integrate_fundamental",
    "locate_offline_equilibria",
    "mass_scan_4body",
    "morse_index",
    "moulton_collinear",
    "offline_equilibrium",
    "polygon_verdicts",
    "r_e_fourier_coefficients",
    "restricted_position",
    "scan_theta",
    "solve_euler_quintic",
    "solve_site",
    "solve_symmetric_y",
    "spectral_params",
    "symmetric_beta",
    "symmetric_z",
]
