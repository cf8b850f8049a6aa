"""hav: hybrid automata modeling, composition, and LTL verification.

Exact-rational concrete semantics, region-graph abstraction for timed
automata, LTL-to-Büchi translation with nested-DFS emptiness, bisimulation
quotients, the initialized rectangular/multi-rate reductions, and the
two-counter-machine encoding as a stress oracle.
"""

from .bisim import coarsest_quotient, is_bisimilar
from .buchi import BuchiAutomaton, buchi_accepts_lasso, translate_to_buchi
from .compose import Network, flatten_modes, product, reachable_modes, sync_set
from .kripke import FiniteKripke, KripkeTransition, make_kripke
from .ltl import Lasso, LtlFormula, eval_lasso, to_nnf
from .mcheck import Verdict, check, check_timed, nested_dfs_emptiness, synchronized_product
from .minsky import (
    MinskyConfig, MinskyMachine, encode, halting_path_check, parse_program,
    run_bounded, step,
)
from .model import (
    AtomicConstraint, AutomatonClass, ClassReport, Configuration,
    HybridAutomaton, JumpPredicate, Predicate, RateAffine, RateConst,
    RateInterval, Transition, Valuation, classify, is_initialized, max_constant,
)
from .rational import format_rational, parse_rational, sqrt_rational
from .reductions import ScaleCertificate, multirate_to_timed, rect_to_multirate
from .regions import (
    Region, RegionGraph, region_count_bound, region_graph,
    region_of, time_successor,
)
from .semantics import (
    PathQuery, Run, bouncing_ball, bounded_reach, configuration_graph,
    discrete_successor, lasso_total_time, path_feasible, simulate,
    timed_successor, total_time,
)
from .textfmt import (
    ModelDocument, ParseError, SemanticError, SourceSpan, emit_counterexample,
    emit_dot, parse_ltl, parse_model, print_ltl, print_model,
)

__version__ = "0.1.0"
