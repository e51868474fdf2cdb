"""Finite relations, termination certificates, and loops built on them.

The pieces, bottom up: values and spaces give a finite universe; relations
are pair sets or image functions over one space; the termination layer
decides whether descent always bottoms out and computes limits, heights,
and seeds; the catalog builds certified descending relations by name; loops
wire an initialization and a seed body to a certified order and come with
executable semantics plus two denotations that must agree.
"""

from .errors import (BodyNotSubsetOfOrder, DomainMismatch, EmptySpace,
                     FuelExhausted, InitEscapesSpace, InputOutsideSpace,
                     LimitExceeded, MalformedExpr, MalformedInput,
                     NegativeVariantValue, NoetError, NonTotalFunction,
                     NotNoetherian, OrderNotNoetherian, ParameterOutOfRange,
                     RequiresExtensional, SpaceMismatch, SpaceTooLarge,
                     UnknownNamedFunction, UnknownOracle, ValueOutsideSpace)
from .values import (Int, Interval, IntervalSet, Node, Pair, Seq, Tup,
                     render, render_chain, render_set, sort_values, value_key)
from .spaces import (DEFAULT_MAX_SPACE, Space, explicit, filtered, int_range,
                     interval_sets_of, intervals_of, lazy_explicit, product,
                     same_space)
from .relations import (Relation, RelationFlags, empty_relation, from_pairs,
                        from_successors, identity, pair_values)
from .noether import (DEFAULT_FUEL, Chain, MAXDEPTH, NOETHERIAN,
                      NOT_NOETHERIAN, REACHABLE_MINIMA, UNKNOWN,
                      NoetherianVerdict, SeedReport, assert_noetherian,
                      height_from, is_minimal, is_noetherian, is_seed,
                      limit_from, limit_relation, minima, reachable_from)
from .catalog import (CLAIMED, NAMED_FUNCTIONS, NoetherianCert, RULES, SOUND,
                      certify, closure_of, component_of, compose_rel,
                      exhaustive_cert, induced, inverse_of, make_depth_fn,
                      measure_descent, named, powerset_space, projection,
                      resolve_function, restrict_to, subrel)
from .loops import (ExecTrace, LoopDef, OBLIGATIONS, ObligationResult,
                    VerificationReport, denotation_closure, denotation_limit,
                    exit_condition, make_loop, run, served_inputs,
                    terminals_of, variant_to_relation, verify)
from .examples import (EXAMPLE_NAMES, EXAMPLE_PARAMS, ExampleInstance,
                       instantiate)
from .audit import (AuditFinding, CLAIM_IDS, reverify, run_audit)

__version__ = "0.1.0"
