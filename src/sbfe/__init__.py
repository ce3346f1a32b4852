"""Sequential evaluation of Boolean functions with costly, stochastic tests.

The pieces fit together as a reduction: a formula becomes an integer-valued
covering utility on partial assignments whose goal is reached exactly when
the tested bits pin the function's value; adaptive policies then buy tests
until the goal is met.  Exhaustive small-instance oracles and executable
dual-feasibility checks certify the approximation bounds empirically.
"""

from .core import (
    STAR,
    CostVector,
    InvalidUtilityError,
    Leaf,
    LimitError,
    PolicyError,
    ProductDistribution,
    RunTrace,
    SbfeError,
    Branch,
    certificate_check,
    expected_cost,
    extend,
    optimal_expected_cost,
    sample_input,
    stars,
)
from .policies import (
    BoundReport,
    DualGreedyPolicy,
    FixedOrderPolicy,
    GreedyPolicy,
    bounds,
    cost_order_policy,
    cp_ratio_policy,
    policy_runs,
)
from .problems import (
    KnapsackInstance,
    RankingResult,
    ThresholdSet,
    evaluate_cdnf,
    evaluate_threshold_adg,
    evaluate_threshold_greedy,
    min_knapsack_adg,
    min_knapsack_bruteforce,
    rank_linear_functions,
    simultaneous_thresholds,
)
from .utility import (
    CdnfFormula,
    LinearSystem,
    ThresholdFormula,
    TruthTable,
    UtilityFunction,
    cdnf_utility,
    decision_tree_to_cdnf,
    ranking_pair_utility,
    threshold_utility,
    truth_table_utility,
)
from .verify import (
    CheckReport,
    DualCertificate,
    check_axioms,
    check_dual_feasibility,
    check_goal_certificate,
    observed_alpha,
    ratio_vs_opt,
)

__version__ = "0.1.0"
