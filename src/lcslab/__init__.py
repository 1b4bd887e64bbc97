"""Chart-level verification toolkit for locally conformally symplectic data.

Everything works pointwise on explicit coordinate charts: differential forms
with scalar-field coefficients, exact forward-mode derivatives, and check
reports whose rows carry residuals against stated tolerances.  The gallery
module wires complete worked examples; the CLI runs them in batch.
"""

from .charts import Chart
from .errors import (
    ChartMismatchError,
    DegenerateInputError,
    DomainError,
    InvalidComplexError,
    InvalidStructureError,
    LcsError,
    NotHomothetyError,
    ParseError,
    PreconditionError,
    UsageError,
)
from .forms import (
    DifferentialForm,
    ScalarField,
    SmoothMap,
    VectorField,
    basis_vector,
    constant,
    coordinate,
    exterior_derivative,
    interior_product,
    lie_derivative,
    pullback,
    wedge,
)
from .lcs import (
    LCSStructure,
    solve_lee_form,
    twisted_derivative,
    verify_lcs,
)
from .actions import (
    ActionSpec,
    DeckElement,
    MomentumMap,
    automorphic_constants,
    deck_homothety,
    momentum_from_potential,
    verify_twisted_hamiltonian,
)
from .coupling import (
    CouplingChart,
    GaugeChart,
    build_coupling,
    fatness_check,
    gauge_curvature,
    horizontal_lift,
    lift_bracket_diagnostic,
    product_chart,
    verify_coupling,
)
from .cohomology import (
    TwistedComplex,
    betti,
    product_complex,
)
from .reduction import (
    LevelSlice,
    bundle_momentum_check,
    invariant_hamiltonian_check,
    level_scan,
    product_split_check,
    reduced_form_check,
)
from .gallery import GALLERY, ExampleManifest, evaluate_manifest, run_manifest
from .parser import parse_field
from .report import CheckResult, Report

__version__ = "0.1.0"
