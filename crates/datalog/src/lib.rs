//! # mdtw-datalog
//!
//! A from-scratch datalog engine for the *Monadic Datalog over Finite
//! Structures with Bounded Treewidth* reproduction (Gottlob, Pichler &
//! Wei, PODS 2007).
//!
//! The engine evaluates **stratified** datalog — negation over derived
//! predicates, as long as no predicate depends on its own negation — over
//! the finite structures of [`mdtw_structure`]. The core fixpoint engine
//! is *semipositive* (negation only on extensional atoms — the fragment
//! produced by the paper's MSO-to-datalog construction); the
//! [`stratify`](mod@crate::stratify) pipeline reduces stratified programs
//! to a bottom-up sequence of semipositive ones.
//!
//! The front door is the [`Evaluator`] **session API**
//! ([`evaluator`](mod@crate::evaluator)): construct it once per program —
//! validation, stratification and dependency analysis happen at
//! construction — and call [`Evaluator::evaluate`] per structure; the
//! session compiles its strata once (stratum sub-programs per input
//! signature, join plans per structure cardinality shape) and recycles
//! the engine scratch buffers, which is what makes the paper's
//! per-candidate and per-structure workloads cheap. Under the session layer:
//!
//! * [`ast`] / [`parser`] — programs as data or text;
//! * [`eval`] — semi-naive least-fixpoint evaluation (the semantics of
//!   §2.4; the naive oracle it is tested against lives in the
//!   `mdtw-tests` support library). The engine executes per-rule
//!   join plans over the arena-backed secondary-index layer of
//!   [`mdtw_structure`]: body literals probe argument-position hash
//!   indexes instead of scanning relations, a round's delta is the row
//!   range of the store the previous round appended, derived heads are
//!   buffered flat and deduplicated by the store insert that merges them,
//!   and the whole probe/insert path — row ranges, index keys, IDB
//!   membership — is keyed by interned integer ids, so deriving a fact
//!   costs one hash lookup and allocates nothing beyond amortized arena
//!   growth;
//! * [`plan`](mod@crate::plan) — the join planner: access-path selection
//!   (scan vs. index probe), greedy ordering by the estimated rows each
//!   literal enumerates (relation sizes and probe selectivities from
//!   relation statistics; probes before scans), delta-plan generation
//!   for the semi-naive rule split, early scheduling of negative
//!   literals;
//! * [`stratify`](mod@crate::stratify) — stratified negation: the
//!   predicate dependency graph (positive/negative edges), Tarjan SCC
//!   condensation, stratum assignment with a precise
//!   [`StratificationError`] when a negative edge closes a recursive
//!   cycle, and the bottom-up multi-stratum evaluation that materializes
//!   each stratum into the arena-backed relation layer so higher strata
//!   read it as EDB, reusing the indexed join loop unchanged; a session
//!   compiles its strata once (stratum sub-programs and their join
//!   plans), and evaluations and materialized views share them;
//! * [`ground`](mod@crate::ground) — **quasi-guarded** datalog (Definition 4.3): guard
//!   analysis with declared functional dependencies, grounding in
//!   `O(|P|·|𝒜|)`, and the linear-time evaluation of Theorem 4.4;
//! * [`horn`] — the LTUR/Dowling–Gallier linear-time propositional Horn
//!   solver the grounding is handed to;
//! * [`analysis`](mod@crate::analysis) — the static-analysis and lint
//!   framework: spanned [`Diagnostic`]s with stable `MD0xx` codes
//!   (safety, stratifiability, dead rules, always-empty predicates,
//!   singleton variables, duplicate/subsumed rules, monadicity and
//!   recursion classification, quasi-guard), driving both
//!   [`Evaluator::analyze`] and the `mdtw-lint` binary of
//!   [`lint`](mod@crate::lint);
//! * [`span`](mod@crate::span) — byte-span + line/column source
//!   locations, recorded by the parser for every rule, head and literal;
//! * [`profile`](mod@crate::profile) — the observability layer: a
//!   zero-cost-when-off profiler threaded through both engines
//!   ([`EvalOptions::profile`] → [`ProfileDetail`]), collecting a
//!   structured [`EvalProfile`] (per-stratum timeline, per-rule
//!   breakdown, per-literal observed selectivities) returned on
//!   [`EvalResult`] *and* on the partial result of a resource-limit
//!   trip, plus [`Evaluator::explain`] — the compiled join plans
//!   rendered as human text or JSON;
//! * [`incremental`](mod@crate::incremental) — incremental view
//!   maintenance: [`Evaluator::materialize`] turns a session into a
//!   long-lived [`MaterializedView`] that absorbs batched base-relation
//!   [`Update`]s (inserts *and* retracts) by semi-naive delta
//!   re-derivation and stratum-by-stratum DRed instead of
//!   re-evaluation (every maintenance join runs through the compiled-plan
//!   executor of evaluation), governed by the same [`EvalLimits`]
//!   budgets with a sound full-recompute fallback.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod ast;
pub mod eval;
pub mod evaluator;
pub mod ground;
pub mod horn;
pub mod incremental;
pub mod limits;
pub mod lint;
pub mod parser;
pub mod plan;
pub mod profile;
pub mod span;
pub mod stratify;

pub use analysis::{
    analyze, AnalysisOptions, Diagnostic, LintCode, ProgramReport, RecursionClass, Severity,
};
pub use ast::{Atom, IdbId, Literal, PredRef, Program, Rule, Term, Var};
pub use eval::{EvalStats, IdbStore};
pub use evaluator::{Engine, EvalError, EvalOptions, EvalResult, Evaluator};
pub use ground::{ground, FdCatalog, FuncDep, Grounding, QgError, QgStats};
pub use horn::HornProgram;
pub use incremental::{MaterializedView, Update};
pub use limits::{CancelToken, EvalLimits, LimitKind};
pub use parser::{parse_program, parse_program_lenient, ParseError, ParseErrorKind};
pub use plan::{
    plan_program, plan_program_with, plan_rule, plan_rule_with, Access, CardEstimator, JoinPlan,
    JoinStep, NoEstimates, RulePlans, StructureStats,
};
pub use profile::{
    eval_error_json, EvalProfile, Explanation, LiteralProfile, PlanExplanation, ProfileDetail,
    RuleExplanation, RuleProfile, StepExplanation, StratumExplanation, StratumProfile,
    UpdateProfile, UpdateStratumProfile,
};
pub use span::{RuleSpans, Span};
pub use stratify::{stratify, Stratification, StratificationError};
