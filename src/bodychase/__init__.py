"""bodychase: keep a nonnegative fractional point inside a drifting
packing-covering body while moving as little as possible in weighted l1.

The package has four layers:

* `core`: stream items (covering / packing rows and freezes), weighted
  shifted-KL projections onto single covering / packing halfspaces, the
  body-chasing loop, and the recourse ledger.
* `certify` / `offline`: per-run dual lower-bound certificates for the
  optimal offline recourse, and an exact LP oracle that computes it.
* `adapters`: translations of dynamic set cover, bipartite matching,
  makespan scheduling and MST into normalized packing-covering bodies.
* `round_*`: dynamic rounding schemes that turn the fractional point into
  integral solutions with recourse proportional to fractional movement.

`runner` and `cli` wire the layers together behind file formats defined
in `formats`.
"""

__version__ = "0.1.0"

from .adapters import (
    AdapterError,
    LoadBalanceState,
    MatchingState,
    MstState,
    SetCoverState,
    UpdateEvent,
    loadbalance_body,
    matching_body,
    mst_body,
    setcover_body,
)
from .certify import (
    CertificateError,
    DualCertificate,
    MovementDuals,
    MultiplierLog,
    build_refined_dual,
    build_warmup_dual,
    certify_run,
    refine_ytilde,
)
from .core import (
    ChaseError,
    ConstraintError,
    ConvergenceError,
    DimensionMismatch,
    FractionalPoint,
    Freeze,
    HalfspaceConstraint,
    InfeasibleBodyError,
    Kind,
    NotViolatedError,
    PositiveBody,
    RecourseLedger,
    Step,
    chase_body,
    project_and_record,
    project_covering,
    project_packing,
    scaled_output,
)
from .formats import FormatError, parse_stream, parse_updates, parse_weights, write_report
from .offline import OfflineError, OracleCapExceeded, solve_optimal_recourse
from .runner import RunConfig, replicate, run_chase, run_problem

__all__ = [
    "AdapterError",
    "CertificateError",
    "ChaseError",
    "ConstraintError",
    "ConvergenceError",
    "DimensionMismatch",
    "DualCertificate",
    "FormatError",
    "FractionalPoint",
    "Freeze",
    "HalfspaceConstraint",
    "InfeasibleBodyError",
    "Kind",
    "LoadBalanceState",
    "MatchingState",
    "MstState",
    "MovementDuals",
    "MultiplierLog",
    "NotViolatedError",
    "OfflineError",
    "OracleCapExceeded",
    "PositiveBody",
    "RecourseLedger",
    "RunConfig",
    "SetCoverState",
    "Step",
    "UpdateEvent",
    "build_refined_dual",
    "build_warmup_dual",
    "certify_run",
    "chase_body",
    "loadbalance_body",
    "matching_body",
    "mst_body",
    "parse_stream",
    "parse_updates",
    "parse_weights",
    "project_and_record",
    "project_covering",
    "project_packing",
    "refine_ytilde",
    "replicate",
    "run_chase",
    "run_problem",
    "scaled_output",
    "setcover_body",
    "solve_optimal_recourse",
    "write_report",
    "__version__",
]
