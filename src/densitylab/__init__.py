"""densitylab: exact-arithmetic asymptotic density and density-measure lab.

Symbolically described subsets of ℕ with exact counting at arbitrary
horizons, permutations of ℕ with the three Lévy-group diagnostics,
finitely-additive density-measure surrogates built from subsequence limits,
and a counterexample suite around the double-exponential block set.
"""

__version__ = "0.1.0"

from .asymptotics import (
    All,
    DensityReport,
    Doubled,
    DoubleExponential,
    Explicit,
    Geometric,
    IndexSequence,
    LimitReport,
    StatReport,
    density,
    full_density_witness,
    limit_along,
    ratio_profile,
    statistical_limit,
)
from .errors import (
    CardinalityMismatch,
    ConfigError,
    DensityLabError,
    EnumerationBudgetExceeded,
    IndexBeyondSet,
    NoViolationFound,
    ParseError,
    PredicateCapExceeded,
    UnknownInfinitude,
    WitnessTooSparse,
)
from .measure import (
    AxiomReport,
    BlumlingerCombo,
    MeasureReport,
    MeasureRule,
    Mixture,
    SubsequenceLimit,
    ViolationCertificate,
    check_axioms,
    check_invariance,
    equal_measure_test,
    evaluate,
    find_invariance_violation,
)
from .nset import (
    Blocks,
    Complement,
    Diff,
    DoubleExponentialBlocks,
    Empty,
    ExplicitBlocks,
    FiniteList,
    Full,
    Infinitude,
    Intersect,
    Periodic,
    Predicate,
    Scaled,
    SymbolicSet,
    Union,
    blocks_dexp,
    blocks_explicit,
    compl,
    diff,
    finite,
    inter,
    periodic,
    scale,
    select,
    union,
)
from .parser import parse_expression
from .perm import (
    Classification,
    Compose,
    DefectProfile,
    FiniteTable,
    Identity,
    ImageSet,
    InterlacedPairing,
    Inverse,
    PermutationRule,
    QuarterBlockSwap,
    Restricted,
    displacement_classification,
    displacement_profile,
    exceptional_sets,
    levy_defect_profile,
    levy_witness_set,
    pairing_permutation,
    ratio_stat_report,
    restrict_pairing,
    van_douwen_ratio_report,
)
from .suite import SuiteReport, counterexample_suite
