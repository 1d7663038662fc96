"""Multi-price online allocation toolkit.

Value-function construction for multi-price items, the balance and ranking
online policies, hindsight LP bounds (including a choice-based LP solved by
column generation), an adversarial tight-instance generator, and a
simulation harness with forecasting / hybrid benchmark policies.
"""

from .adversary import AdversarialInstance, analytic_bounds, build_instance, solve_betas
from .choice import (
    NEVER,
    HotelCatalog,
    MnlModel,
    assortment_value,
    choice_probs,
    default_hotel_model,
    optimize_assortment,
    sample_choice,
)
from .engine import (
    ArrivalSequence,
    Item,
    RunResult,
    Setup,
    run_balance,
    run_balance_assortment,
    run_balance_fractional,
    run_bidprice,
    run_conservative,
    run_gnr,
    run_hybrid,
    run_myopic,
    run_ranking,
)
from .errors import (
    DomainError,
    InvalidPriceSet,
    InvalidRange,
    MultipriceError,
    SolverLimitError,
    ValidationError,
)
from .harness import (
    ExperimentConfig,
    generate_hotel_ensemble,
    ingest_transactions,
    lp_bound,
    run_experiment,
)
from .lp import LpSolution, simplex_max, solve_choice_lp, solve_primal
from .perturb import (
    PerturbedValueFunction,
    RandomizedProcedure,
    build_perturbed,
    certified_lower_bounds,
    enumerate_seed_support,
    round_borders,
    single_unit_procedure,
    verify_conditions,
)
from .valuefn import (
    ContinuumValueFunction,
    PriceSet,
    ValueFunction,
    build_continuum,
    build_value_function,
    lambert_w,
    solve_alphas,
    solve_sigmas,
    two_price_F,
)

__version__ = "0.1.0"
