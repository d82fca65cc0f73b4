//! The [`Evaluator`] session API: analyze a program once, evaluate it
//! many times.
//!
//! Every workload built on this engine — the §5 per-candidate solvers,
//! the Theorem 4.5 compilation (one program, many τ_td structures), the
//! property-test oracles, the benches — is a *repeated-evaluation*
//! workload. One-shot entry points would re-validate, re-stratify and
//! re-plan on every call; an [`Evaluator`] does that analysis once at
//! construction:
//!
//! * **parse-level validation** — safety (range restriction), head
//!   checks, and stratification (the dependency graph + Tarjan SCC
//!   pipeline of [`stratify`](crate::stratify::stratify())), so an
//!   unevaluable program is rejected before any structure is seen;
//! * **compiled strata** — each stratum's semipositive sub-program is
//!   built once per input signature, and its compiled join plans are
//!   kept per session (nothing is shared process-wide), keyed by the
//!   structure's power-of-two cardinality shape, so the second
//!   [`evaluate`](Evaluator::evaluate) of a per-candidate loop skips
//!   planning;
//! * **recycled scratch buffers** — the semi-naive head buffer, frontier
//!   row ranges and probe-key buffer live in the session and are reused
//!   across evaluations (and across the strata of one evaluation), so
//!   steady-state evaluation allocates nothing beyond arena growth.
//!
//! [`Evaluator::evaluate`] auto-dispatches: a semipositive program runs
//! the indexed semi-naive engine directly, a multi-stratum program runs
//! the bottom-up stratified pipeline (whose
//! [`Structure::extended`](mdtw_structure::Structure::extended)
//! materialization is copy-on-write, so extension costs O(#materialized
//! predicates)), and a session with an attached [`FdCatalog`] runs the
//! linear-time quasi-guarded pipeline of Theorem 4.4.
//!
//! ```
//! use mdtw_datalog::{parse_program, Evaluator};
//! use mdtw_structure::{Domain, ElemId, Signature, Structure};
//! use std::sync::Arc;
//!
//! let sig = Arc::new(Signature::from_pairs([("e", 2)]));
//! let mut s = Structure::new(Arc::clone(&sig), Domain::anonymous(3));
//! let e = sig.lookup("e").unwrap();
//! s.insert(e, &[ElemId(0), ElemId(1)]);
//! s.insert(e, &[ElemId(1), ElemId(2)]);
//!
//! let p = parse_program("path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).", &s).unwrap();
//! let mut session = Evaluator::new(p).unwrap();
//! let first = session.evaluate(&s).unwrap();
//! assert!(first.store.holds_named("path", &[ElemId(0), ElemId(2)]));
//! // The session reuses its analysis: the second evaluation reuses the
//! // compiled plans instead of re-planning.
//! let second = session.evaluate(&s).unwrap();
//! assert_eq!(second.stats.plan_cache_hits, 1);
//! ```

use crate::ast::{IdbId, PredRef, Program};
use crate::eval::{EvalStats, IdbStore, SeminaiveScratch};
use crate::ground::{FdCatalog, QgError, QgPlan, QgStats};
use crate::limits::{EvalLimits, Governor, LimitKind};
use crate::plan::{plan_program_with, StructureStats};
use crate::profile::{EvalProfile, Explanation, Profiler};
use crate::stratify::{stratify, Strata, Stratification, StratificationError};
use mdtw_structure::Structure;
use std::fmt;
use std::sync::Arc;

/// Which fixpoint engine a session runs. The default (chosen by
/// [`EvalOptions`] when no engine is forced) is [`Engine::SemiNaiveIndexed`],
/// or [`Engine::QuasiGuarded`] when an [`FdCatalog`] is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The semi-naive engine: per-rule join plans probing lazily built
    /// secondary indexes, each round's delta read as a row range of the
    /// store, the textbook rule split. Multi-stratum programs run the bottom-up stratified
    /// pipeline over the same engine.
    SemiNaiveIndexed,
    /// The linear-time quasi-guarded pipeline of Theorem 4.4 (ground into
    /// skeleton instances, solve them with LTUR without expanding them
    /// into propositional Horn rules). Requires an attached [`FdCatalog`];
    /// semipositive programs only.
    QuasiGuarded,
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Engine::SemiNaiveIndexed => "seminaive-indexed",
            Engine::QuasiGuarded => "quasi-guarded",
        })
    }
}

/// Configuration for an [`Evaluator`] session, built fluently:
///
/// ```
/// use mdtw_datalog::{Engine, EvalOptions};
/// let opts = EvalOptions::new()
///     .engine(Engine::SemiNaiveIndexed)
///     .outputs(["path"])
///     .profile(true);
/// # let _ = opts;
/// ```
#[derive(Debug, Clone, Default)]
pub struct EvalOptions {
    engine: Option<Engine>,
    fd_catalog: Option<FdCatalog>,
    outputs: Option<Vec<String>>,
    limits: Option<EvalLimits>,
    profile: bool,
}

impl EvalOptions {
    /// The defaults: engine auto-selected ([`Engine::SemiNaiveIndexed`],
    /// or [`Engine::QuasiGuarded`] once [`fd_catalog`](Self::fd_catalog)
    /// is attached), no declared outputs (every rule is kept), no limits,
    /// profiling off.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forces a specific engine instead of the auto-selection.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Attaches a functional-dependency catalog. Unless another engine
    /// was forced with [`engine`](Self::engine), this selects
    /// [`Engine::QuasiGuarded`] — the Theorem 4.4 pipeline needs the
    /// declared dependencies to resolve non-guard variables.
    pub fn fd_catalog(mut self, catalog: FdCatalog) -> Self {
        self.fd_catalog = Some(catalog);
        self
    }

    /// Declares the *output* predicates the session is evaluated for, and
    /// drops every rule no output depends on (see [`relevant_rules`])
    /// before stratification and planning. The pruned session derives
    /// exactly the same facts for every output (and every predicate an
    /// output transitively depends on) as one without declared outputs —
    /// pinned by property tests — but skips the strata, plans and
    /// fixpoint work of the dead fragment. A name that is not an
    /// intensional predicate of the program fails session construction
    /// with [`EvalError::UnknownOutput`].
    pub fn outputs<I, S>(mut self, outputs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.outputs = Some(outputs.into_iter().map(Into::into).collect());
        self
    }

    /// Attaches resource limits ([`EvalLimits`]) to the session. Every
    /// evaluation draws from the limits' shared meter; a trip surfaces as
    /// [`EvalError::LimitExceeded`] (with a partial result where the
    /// engine can guarantee soundness).
    ///
    /// ```
    /// use mdtw_datalog::{EvalLimits, EvalOptions};
    /// use std::time::Duration;
    /// let opts = EvalOptions::new()
    ///     .limits(EvalLimits::new().fuel(1_000_000).deadline(Duration::from_millis(100)));
    /// # let _ = opts;
    /// ```
    pub fn limits(mut self, limits: EvalLimits) -> Self {
        self.limits = Some(limits);
        self
    }

    /// Switches profiling on or off (default off). On, every
    /// [`EvalResult`] — and the partial result of an
    /// [`EvalError::LimitExceeded`] trip — carries an [`EvalProfile`]:
    /// the per-stratum timeline, the per-rule breakdown and the
    /// per-literal observed selectivities. Profiling never changes what
    /// is computed: the store and [`EvalStats`] are bit-identical to an
    /// unprofiled evaluation (property-tested), and off costs one branch
    /// per rule pass.
    ///
    /// ```
    /// use mdtw_datalog::EvalOptions;
    /// let opts = EvalOptions::new().profile(true);
    /// # let _ = opts;
    /// ```
    pub fn profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }
}

/// Why an [`Evaluator`] could not be constructed or an evaluation failed.
///
/// Equality compares the error *shape* (and, for
/// [`EvalError::LimitExceeded`], the [`LimitKind`]) — not the attached
/// statistics or partial results.
#[derive(Debug, Clone)]
pub enum EvalError {
    /// The program has no stratified semantics, or failed the per-rule
    /// safety/head checks.
    Stratification(StratificationError),
    /// Quasi-guarded analysis or grounding failed (a rule has no
    /// quasi-guard under the declared dependencies, or the data violates
    /// a declared dependency).
    QuasiGuarded(QgError),
    /// A semipositive-only engine was selected for a program that needs
    /// multi-stratum evaluation; use [`Engine::SemiNaiveIndexed`].
    NeedsStratifiedEngine {
        /// The selected semipositive-only engine.
        engine: Engine,
        /// The program's stratum count (≥ 2).
        strata: usize,
    },
    /// [`Engine::QuasiGuarded`] was selected without attaching an
    /// [`FdCatalog`] via [`EvalOptions::fd_catalog`].
    MissingFdCatalog,
    /// [`Evaluator::materialize`] was called on a session whose engine
    /// cannot drive incremental maintenance; only
    /// [`Engine::SemiNaiveIndexed`] compiles the delta-driven rule plans
    /// the maintenance pipeline replays.
    UnsupportedIncremental {
        /// The session's selected engine.
        engine: Engine,
    },
    /// A declared [`outputs`](EvalOptions::outputs) name is not an
    /// intensional predicate of the program (misspelled, extensional or
    /// absent), so pruning would drop every rule it was meant to keep.
    UnknownOutput(String),
    /// A resource limit attached via [`EvalOptions::limits`] tripped
    /// (see [`EvalLimits`]).
    LimitExceeded {
        /// Which limit tripped.
        kind: LimitKind,
        /// The work counters at the moment of the trip. On a
        /// multi-stratum evaluation `stats.strata` counts the *completed*
        /// strata (the partial result's materialized prefix); on a
        /// single-stratum trip it is 0.
        stats: EvalStats,
        /// The facts materialized before the trip — always a sound subset
        /// of the full least fixpoint (graceful degradation). `None` for
        /// the quasi-guarded engine, which cannot certify a partial
        /// grounding.
        partial: Option<Box<EvalResult>>,
    },
}

impl PartialEq for EvalError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (EvalError::Stratification(a), EvalError::Stratification(b)) => a == b,
            (EvalError::QuasiGuarded(a), EvalError::QuasiGuarded(b)) => a == b,
            (
                EvalError::NeedsStratifiedEngine { engine, strata },
                EvalError::NeedsStratifiedEngine {
                    engine: e2,
                    strata: s2,
                },
            ) => engine == e2 && strata == s2,
            (EvalError::MissingFdCatalog, EvalError::MissingFdCatalog) => true,
            (EvalError::UnknownOutput(a), EvalError::UnknownOutput(b)) => a == b,
            (
                EvalError::UnsupportedIncremental { engine },
                EvalError::UnsupportedIncremental { engine: e2 },
            ) => engine == e2,
            (EvalError::LimitExceeded { kind, .. }, EvalError::LimitExceeded { kind: k2, .. }) => {
                kind == k2
            }
            _ => false,
        }
    }
}

impl Eq for EvalError {}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Stratification(e) => write!(f, "stratification: {e}"),
            EvalError::QuasiGuarded(e) => write!(f, "quasi-guarded: {e}"),
            EvalError::NeedsStratifiedEngine { engine, strata } => write!(
                f,
                "engine `{engine}` evaluates semipositive programs only, but the program \
                 has {strata} strata; use Engine::SemiNaiveIndexed"
            ),
            EvalError::MissingFdCatalog => write!(
                f,
                "Engine::QuasiGuarded needs an FdCatalog (EvalOptions::fd_catalog)"
            ),
            EvalError::UnsupportedIncremental { engine } => write!(
                f,
                "engine `{engine}` cannot drive incremental maintenance; materialize \
                 requires Engine::SemiNaiveIndexed"
            ),
            EvalError::UnknownOutput(name) => {
                write!(f, "output `{name}` names no intensional predicate")
            }
            EvalError::LimitExceeded {
                kind,
                stats,
                partial,
            } => write!(
                f,
                "evaluation exceeded its {kind} limit in stratum {} after {} facts and {} \
                 rounds{}",
                stats.strata,
                stats.facts,
                stats.rounds,
                if partial.is_some() {
                    " (partial result attached)"
                } else {
                    ""
                }
            ),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<StratificationError> for EvalError {
    fn from(e: StratificationError) -> Self {
        EvalError::Stratification(e)
    }
}

impl From<QgError> for EvalError {
    fn from(e: QgError) -> Self {
        EvalError::QuasiGuarded(e)
    }
}

/// One evaluation's outcome: the least (stratified) model, the work
/// counters, and the session's stratification certificate.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// The computed model, one indexed relation per intensional predicate.
    pub store: IdbStore,
    /// Work counters.
    pub stats: EvalStats,
    /// The stratification the session computed at construction (1 stratum
    /// for semipositive programs). Shared with the session — an `Arc`
    /// bump per evaluation, not a copy, so per-candidate loops pay
    /// nothing for it.
    pub stratification: Arc<Stratification>,
    /// Grounding statistics when the quasi-guarded engine ran, `None`
    /// otherwise.
    pub qg: Option<QgStats>,
    /// The evaluation profile, when the session requested one via
    /// [`EvalOptions::profile`]; `None` with profiling off. Boxed:
    /// profiles are cold data next to the store.
    pub profile: Option<Box<EvalProfile>>,
}

/// A reusable evaluation session: one program, analyzed once, evaluated
/// against any number of structures. See the [module docs](self) for the
/// motivation and an example; construct with [`Evaluator::new`] (defaults)
/// or [`Evaluator::with_options`].
#[derive(Debug)]
pub struct Evaluator {
    engine: Engine,
    /// The compiled grounding plan ([`Engine::QuasiGuarded`] sessions).
    qg_plan: Option<QgPlan>,
    pruned_rules: usize,
    limits: Option<EvalLimits>,
    profile: bool,
    strata: Strata,
    scratch: SeminaiveScratch,
}

impl Evaluator {
    /// A session with default options (see [`EvalOptions::new`]).
    /// Validates and stratifies the program once.
    pub fn new(program: Program) -> Result<Self, EvalError> {
        Self::with_options(program, EvalOptions::new())
    }

    /// A session with explicit [`EvalOptions`]. All program-level
    /// analysis happens here: safety and head checks, stratification,
    /// engine resolution, and (for the quasi-guarded engine) the
    /// structure-independent guard analysis, compiled into a grounding
    /// plan grouped by extensional skeleton — so every later
    /// [`evaluate`](Self::evaluate) starts from a validated program.
    pub fn with_options(mut program: Program, options: EvalOptions) -> Result<Self, EvalError> {
        let mut pruned_rules = 0;
        if let Some(outputs) = &options.outputs {
            let ids = outputs
                .iter()
                .map(|s| {
                    program
                        .idb(s)
                        .ok_or_else(|| EvalError::UnknownOutput(s.clone()))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let keep = relevant_rules(&program, &ids);
            pruned_rules = keep.iter().filter(|&&k| !k).count();
            let mut keep_rules = keep.iter().copied();
            program.rules.retain(|_| keep_rules.next().unwrap());
        }
        let stratification = stratify(&program)?;
        let engine = options.engine.unwrap_or(if options.fd_catalog.is_some() {
            Engine::QuasiGuarded
        } else {
            Engine::SemiNaiveIndexed
        });
        if engine != Engine::SemiNaiveIndexed && stratification.stratum_count() > 1 {
            return Err(EvalError::NeedsStratifiedEngine {
                engine,
                strata: stratification.stratum_count(),
            });
        }
        let qg_plan = if engine == Engine::QuasiGuarded {
            let catalog = options
                .fd_catalog
                .as_ref()
                .ok_or(EvalError::MissingFdCatalog)?;
            Some(QgPlan::compile(&program, catalog)?)
        } else {
            None
        };
        let scratch = SeminaiveScratch::new(&program);
        Ok(Self {
            engine,
            qg_plan,
            pruned_rules,
            limits: options.limits,
            profile: options.profile,
            strata: Strata::new(program, stratification),
            scratch,
        })
    }

    /// Evaluates the session's program over `structure`.
    ///
    /// Dispatch is automatic: semipositive programs run the selected
    /// engine directly; multi-stratum programs run the bottom-up
    /// stratified pipeline (only [`Engine::SemiNaiveIndexed`] supports
    /// them — others are rejected at construction). Construction-time
    /// analysis is reused, so the per-call errors are data-dependent
    /// quasi-guarded failures ([`QgError::FdViolated`]) and — when
    /// [`EvalOptions::limits`] attached a budget —
    /// [`EvalError::LimitExceeded`].
    pub fn evaluate(&mut self, structure: &Structure) -> Result<EvalResult, EvalError> {
        let limits = self.limits.clone();
        // Per-evaluation deltas of the shared meter (the meter is
        // cumulative across every evaluation sharing it, so absolute
        // readings would mislead).
        let meter_before = limits.as_ref().map(|l| (l.checks_spent(), l.fuel_spent()));
        let mut profiler = self.profile.then(Profiler::new);
        let (store, mut stats, qg, trip) = match self.engine {
            Engine::SemiNaiveIndexed => {
                let (store, stats, trip) = self.strata.run(
                    structure,
                    &mut self.scratch,
                    limits.as_ref(),
                    profiler.as_mut(),
                );
                (store, stats, None, trip)
            }
            Engine::QuasiGuarded => {
                let plan = self
                    .qg_plan
                    .as_ref()
                    .expect("QuasiGuarded sessions compile a plan at construction");
                let mut gov = Governor::new(limits.as_ref());
                // The quasi-guarded pipeline has no per-rule pass
                // structure; the profiler records the timeline only.
                if let Some(p) = profiler.as_mut() {
                    p.begin_stratum_bare(0);
                }
                let (store, qg) = plan.evaluate(self.strata.program(), structure, &mut gov)?;
                let stats = EvalStats {
                    facts: store.fact_count(),
                    rounds: 1,
                    strata: 1,
                    ..EvalStats::default()
                };
                if let Some(p) = profiler.as_mut() {
                    p.end_stratum(stats.rounds, stats.facts, gov.tripped().is_some());
                }
                (store, stats, Some(qg), gov.tripped())
            }
        };
        if let Some((checks_before, fuel_before)) = meter_before {
            let meter = limits.as_ref().expect("meter snapshot implies limits");
            stats.limit_checks = (meter.checks_spent() - checks_before) as usize;
            stats.fuel_spent = meter.fuel_spent() - fuel_before;
        }
        let profile = profiler.map(|p| Box::new(p.finish()));
        if let Some(kind) = trip {
            if self.engine == Engine::QuasiGuarded {
                // The quasi-guarded engine completes no stratum on a trip;
                // the stratified driver already set the completed count.
                stats.strata = 0;
            }
            // The quasi-guarded engine cannot certify a partial grounding,
            // so it degrades without a partial result (and, since the
            // profile rides on the partial, without a profile).
            let partial = (self.engine != Engine::QuasiGuarded).then(|| {
                Box::new(EvalResult {
                    store,
                    stats,
                    stratification: Arc::clone(self.strata.stratification()),
                    qg: None,
                    profile,
                })
            });
            return Err(EvalError::LimitExceeded {
                kind,
                stats,
                partial,
            });
        }
        Ok(EvalResult {
            store,
            stats,
            stratification: Arc::clone(self.strata.stratification()),
            qg,
            profile,
        })
    }

    /// Consumes the session into a long-lived
    /// [`MaterializedView`](crate::incremental::MaterializedView) over
    /// `structure`: evaluates to fixpoint once, then hands the compiled
    /// strata (program, stratification, stratum sub-programs and plans)
    /// and the scratch arenas to the incremental maintenance pipeline so
    /// subsequent base-relation updates are absorbed by delta
    /// re-derivation instead of re-evaluation.
    ///
    /// Every construction option carries over: the view maintains the
    /// session's program as pruned to its declared
    /// [`outputs`](EvalOptions::outputs), and those outputs agree with a
    /// default session over the original program. Only
    /// [`Engine::SemiNaiveIndexed`] compiles the per-rule join plans the
    /// maintenance passes replay; any other engine choice is rejected up
    /// front with [`EvalError::UnsupportedIncremental`].
    /// Errors from the initial evaluation (including
    /// [`EvalError::LimitExceeded`] when the session carries a budget)
    /// propagate unchanged.
    pub fn materialize(
        mut self,
        structure: &Structure,
    ) -> Result<crate::incremental::MaterializedView, EvalError> {
        if self.engine != Engine::SemiNaiveIndexed {
            return Err(EvalError::UnsupportedIncremental {
                engine: self.engine,
            });
        }
        let result = self.evaluate(structure)?;
        Ok(crate::incremental::MaterializedView::from_session(
            self.strata,
            self.scratch,
            self.limits,
            structure,
            result.store,
            result.stats,
        ))
    }

    /// Renders the session's compiled evaluation strategy — per-stratum
    /// rule plans with join order, scan-vs-probe access paths, chosen
    /// probe key positions, and the semi-naive delta splits — as an
    /// [`Explanation`] (human text via [`Explanation::render_text`], JSON
    /// via [`Explanation::to_json`]; `mdtw-explain --explain` on the command
    /// line).
    ///
    /// Plans are compiled against `structure`'s statistics exactly as an
    /// (uncached) evaluation would compile them. One caveat for
    /// multi-stratum programs: during evaluation, higher strata plan
    /// against the *extended* structure holding the lower strata's
    /// materialized relations, whose real cardinalities can shift the
    /// planner's greedy tie-breaks — the explanation shows the
    /// base-structure baseline.
    pub fn explain(&self, structure: &Structure) -> Explanation {
        let plans = plan_program_with(self.strata.program(), &StructureStats::new(structure));
        crate::profile::explain_plans(
            self.strata.program(),
            self.strata.stratification(),
            structure,
            &plans,
            self.engine.to_string(),
        )
    }

    /// How many rules the declared [`outputs`](EvalOptions::outputs)
    /// dropped at construction (0 when no outputs were declared or nothing
    /// was dead).
    #[inline]
    pub fn pruned_rule_count(&self) -> usize {
        self.pruned_rules
    }

    /// The session's program (the session owns it; call sites that need
    /// predicate ids after construction look them up here). When the
    /// declared [`outputs`](EvalOptions::outputs) dropped rules this is the
    /// pruned program.
    #[inline]
    pub fn program(&self) -> &Program {
        self.strata.program()
    }

    /// The engine this session dispatches to.
    #[inline]
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The stratification computed at construction.
    #[inline]
    pub fn stratification(&self) -> &Stratification {
        self.strata.stratification()
    }
}

/// Per-rule relevance w.r.t. `outputs`, the rules a session with declared
/// [`outputs`](EvalOptions::outputs) keeps: the backward closure from the
/// output predicates over positive *and* negative body dependencies (a
/// negated predicate must be fully materialized before the negation is
/// decidable, so it is just as relevant). A rule is relevant iff its head
/// predicate is; rules with extensional heads (which no valid program
/// has) are conservatively kept. Dropping every irrelevant rule of a
/// stratified program leaves the derived facts of all relevant
/// predicates — in particular of every output — unchanged.
pub fn relevant_rules(program: &Program, outputs: &[IdbId]) -> Vec<bool> {
    let n = program.idb_count();
    let mut relevant = vec![false; n];
    let mut queue: Vec<IdbId> = Vec::new();
    for &o in outputs {
        if o.index() < n && !relevant[o.index()] {
            relevant[o.index()] = true;
            queue.push(o);
        }
    }
    // head → body-IDB edges, walked backwards from the outputs.
    let mut deps: Vec<Vec<IdbId>> = vec![Vec::new(); n];
    for rule in &program.rules {
        if let PredRef::Idb(h) = rule.head.pred {
            for lit in &rule.body {
                if let PredRef::Idb(b) = lit.atom.pred {
                    deps[h.index()].push(b);
                }
            }
        }
    }
    while let Some(p) = queue.pop() {
        for &b in &deps[p.index()] {
            if !relevant[b.index()] {
                relevant[b.index()] = true;
                queue.push(b);
            }
        }
    }
    program
        .rules
        .iter()
        .map(|rule| match rule.head.pred {
            PredRef::Idb(h) => relevant[h.index()],
            PredRef::Edb(_) => true,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::stratify::PLAN_SHAPES;
    use mdtw_structure::{Domain, ElemId, Signature};
    use std::sync::Arc;

    fn chain(n: usize) -> Structure {
        let sig = Arc::new(Signature::from_pairs([("e", 2), ("node", 1), ("first", 1)]));
        let dom = Domain::anonymous(n);
        let mut s = Structure::new(sig, dom);
        let e = s.signature().lookup("e").unwrap();
        let node = s.signature().lookup("node").unwrap();
        let first = s.signature().lookup("first").unwrap();
        for i in 0..n {
            s.insert(node, &[ElemId(i as u32)]);
        }
        for i in 0..n - 1 {
            s.insert(e, &[ElemId(i as u32), ElemId(i as u32 + 1)]);
        }
        s.insert(first, &[ElemId(0)]);
        s
    }

    const TC: &str = "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).";
    const UNREACH: &str = "reach(X) :- first(X).\n\
                           reach(Y) :- reach(X), e(X, Y).\n\
                           unreach(X) :- node(X), !reach(X).";

    #[test]
    fn session_reuse_hits_owned_plan_cache() {
        let s = chain(6);
        let p = parse_program(TC, &s).unwrap();
        let mut session = Evaluator::new(p).unwrap();
        assert_eq!(session.engine(), Engine::SemiNaiveIndexed);
        let first = session.evaluate(&s).unwrap();
        assert_eq!(first.stats.plan_cache_hits, 0, "cold session must plan");
        let second = session.evaluate(&s).unwrap();
        assert_eq!(second.stats.plan_cache_hits, 1, "warm session reuses plans");
        assert_eq!(first.stats.facts, second.stats.facts);
        let third = session.evaluate(&s).unwrap();
        assert_eq!(
            third.stats.plan_cache_hits, 1,
            "one plan set serves every call"
        );
        let path = session.program().idb("path").unwrap();
        assert_eq!(first.store.tuples(path), second.store.tuples(path));
    }

    #[test]
    fn second_evaluation_hits() {
        let s = chain(6);
        let mut session = Evaluator::new(parse_program(TC, &s).unwrap()).unwrap();
        let first = session.evaluate(&s).unwrap();
        let second = session.evaluate(&s).unwrap();
        assert_eq!(first.stats.plan_cache_hits, 0);
        assert_eq!(second.stats.plan_cache_hits, 1);
        assert_eq!(session.strata.plan_shapes(0), 1, "one plan set cached");
    }

    #[test]
    fn multi_stratum_auto_dispatch() {
        let s = chain(5);
        let p = parse_program(UNREACH, &s).unwrap();
        let mut session = Evaluator::new(p).unwrap();
        assert_eq!(session.stratification().stratum_count(), 2);
        let result = session.evaluate(&s).unwrap();
        assert_eq!(result.stats.strata, 2);
        assert_eq!(result.stratification.stratum_count(), 2);
        let unreach = session.program().idb("unreach").unwrap();
        assert!(
            result.store.unary(unreach).is_empty(),
            "chain fully reachable"
        );
        // Warm stratified session: one plan-cache hit per stratum.
        let warm = session.evaluate(&s).unwrap();
        assert_eq!(warm.stats.plan_cache_hits, 2);
    }

    /// Forcing the semipositive-only quasi-guarded engine on a
    /// multi-stratum program fails at construction, before the guard
    /// analysis runs.
    #[test]
    fn oracle_engines_reject_multi_stratum_at_construction() {
        let s = chain(4);
        let p = parse_program(UNREACH, &s).unwrap();
        let engine = Engine::QuasiGuarded;
        let opts = EvalOptions::new()
            .engine(engine)
            .fd_catalog(FdCatalog::new());
        let err = Evaluator::with_options(p, opts).unwrap_err();
        assert_eq!(err, EvalError::NeedsStratifiedEngine { engine, strata: 2 });
        assert!(err.to_string().contains("strata"));
    }

    /// A reused session agrees with the naive oracle, cold and warm.
    #[test]
    fn oracle_engines_agree_with_indexed() {
        let s = chain(7);
        let p = parse_program(TC, &s).unwrap();
        let path = p.idb("path").unwrap();
        let oracle = mdtw_tests::naive_model(
            &mdtw_tests::mdtw_datalog::parse_program(TC, &s).unwrap(),
            &s,
        );
        let mut session = Evaluator::new(p).unwrap();
        for _ in 0..2 {
            let result = session.evaluate(&s).unwrap();
            assert_eq!(result.store.tuples(path), oracle.relations[path.index()]);
            assert_eq!(result.stats.firings, oracle.instantiations);
        }
    }

    #[test]
    fn fd_catalog_selects_quasi_guarded_and_agrees() {
        let s = chain(8);
        let e = s.signature().lookup("e").unwrap();
        let mut catalog = FdCatalog::new();
        catalog.declare(e, vec![0], vec![1]);
        catalog.declare(e, vec![1], vec![0]);
        let p = parse_program("reach(X) :- first(X).\nreach(Y) :- reach(X), e(X, Y).", &s).unwrap();
        let mut qg =
            Evaluator::with_options(p.clone(), EvalOptions::new().fd_catalog(catalog)).unwrap();
        assert_eq!(qg.engine(), Engine::QuasiGuarded);
        let qg_result = qg.evaluate(&s).unwrap();
        assert!(qg_result.qg.is_some(), "quasi-guarded runs report QgStats");
        assert!(qg_result.qg.unwrap().ground_rules > 0);
        let indexed = Evaluator::new(p).unwrap().evaluate(&s).unwrap();
        let reach = qg.program().idb("reach").unwrap();
        assert_eq!(qg_result.store.tuples(reach), indexed.store.tuples(reach));
        assert_eq!(qg_result.stats.facts, indexed.stats.facts);
    }

    #[test]
    fn quasi_guarded_without_catalog_is_rejected() {
        let s = chain(3);
        let p = parse_program(TC, &s).unwrap();
        let err = Evaluator::with_options(p, EvalOptions::new().engine(Engine::QuasiGuarded))
            .unwrap_err();
        assert_eq!(err, EvalError::MissingFdCatalog);
    }

    #[test]
    fn unguarded_program_rejected_at_construction() {
        let s = chain(4);
        let p = parse_program("pair(X, Y) :- first(X), first(Y).", &s).unwrap();
        let err = Evaluator::with_options(p, EvalOptions::new().fd_catalog(FdCatalog::new()))
            .unwrap_err();
        assert_eq!(
            err,
            EvalError::QuasiGuarded(QgError::NotQuasiGuarded { rule: 0 })
        );
    }

    #[test]
    fn unstratifiable_program_rejected_at_construction() {
        // win(X) :- e(X, Y), !win(Y) — hand-built since the parser rejects
        // it with its own spanned error.
        use crate::ast::{Atom, Literal, PredRef, Rule, Term, Var};
        let s = chain(3);
        let e = s.signature().lookup("e").unwrap();
        let mut p = Program::default();
        let win = p.intern_idb("win", 1).unwrap();
        p.rules.push(Rule {
            head: Atom {
                pred: PredRef::Idb(win),
                terms: vec![Term::Var(Var(0))],
            },
            body: vec![
                Literal {
                    atom: Atom {
                        pred: PredRef::Edb(e),
                        terms: vec![Term::Var(Var(0)), Term::Var(Var(1))],
                    },
                    positive: true,
                },
                Literal {
                    atom: Atom {
                        pred: PredRef::Idb(win),
                        terms: vec![Term::Var(Var(1))],
                    },
                    positive: false,
                },
            ],
            var_count: 2,
            var_names: vec!["X".into(), "Y".into()],
        });
        let err = Evaluator::new(p).unwrap_err();
        assert!(matches!(
            err,
            EvalError::Stratification(StratificationError::NegativeCycle { .. })
        ));
    }

    const WITH_DEAD: &str = "reach(X) :- first(X).\n\
                             reach(Y) :- reach(X), e(X, Y).\n\
                             dead(X) :- node(X), e(X, Y).\n\
                             deader(X) :- dead(X).";

    #[test]
    fn declared_outputs_drop_irrelevant_fragment() {
        let s = chain(6);
        let p = parse_program(WITH_DEAD, &s).unwrap();
        let mut plain = Evaluator::new(p.clone()).unwrap();
        assert_eq!(plain.pruned_rule_count(), 0, "no outputs, no pruning");
        let mut pruned = Evaluator::with_options(p, EvalOptions::new().outputs(["reach"])).unwrap();
        assert_eq!(pruned.pruned_rule_count(), 2);
        assert_eq!(pruned.program().rules.len(), 2);
        let a = plain.evaluate(&s).unwrap();
        let b = pruned.evaluate(&s).unwrap();
        let reach = pruned.program().idb("reach").unwrap();
        assert_eq!(a.store.tuples(reach), b.store.tuples(reach));
        assert!(a.stats.facts > b.stats.facts, "dead facts skipped");
    }

    #[test]
    fn unknown_outputs_are_rejected_at_construction() {
        let p = parse_program(WITH_DEAD, &chain(3)).unwrap();
        for name in ["rech", "e"] {
            let err =
                Evaluator::with_options(p.clone(), EvalOptions::new().outputs(["reach", name]))
                    .unwrap_err();
            assert_eq!(err, EvalError::UnknownOutput(name.into()));
        }
    }

    #[test]
    fn relevant_rules_walk_back_from_the_outputs() {
        let s = chain(4);
        let p = parse_program(WITH_DEAD, &s).unwrap();
        let reach = p.idb("reach").unwrap();
        let dead = p.idb("dead").unwrap();
        let deader = p.idb("deader").unwrap();
        assert_eq!(relevant_rules(&p, &[reach]), [true, true, false, false]);
        assert_eq!(relevant_rules(&p, &[dead]), [false, false, true, false]);
        assert_eq!(relevant_rules(&p, &[deader]), [false, false, true, true]);
        assert_eq!(relevant_rules(&p, &[]), [false; 4]);
        // A negated body predicate is as relevant as a positive one.
        let p = parse_program("q(X) :- e(X, Y), !r(X).\nr(X) :- e(X, X).", &s).unwrap();
        assert_eq!(relevant_rules(&p, &[p.idb("q").unwrap()]), [true, true]);
    }

    #[test]
    fn stratified_extension_setup_is_memoized_per_signature() {
        let s = chain(5);
        let p = parse_program(UNREACH, &s).unwrap();
        let mut session = Evaluator::new(p).unwrap();
        session.evaluate(&s).unwrap();
        assert_eq!(session.strata.rebuilds, 1, "cold session builds once");
        session.evaluate(&s).unwrap();
        session.evaluate(&s).unwrap();
        assert_eq!(
            session.strata.rebuilds, 1,
            "same signature: extension setup reused"
        );
        // A structure over a different Signature allocation forces a
        // rebuild.
        let other = chain(9);
        session.evaluate(&other).unwrap();
        assert_eq!(session.strata.rebuilds, 2);
    }

    #[test]
    fn same_bucket_structure_hits() {
        // chain(5) and chain(6) put every relation in the same
        // power-of-two bucket (e: 4 and 5 tuples, node: 5 and 6, first: 1).
        let mut session = Evaluator::new(parse_program(TC, &chain(5)).unwrap()).unwrap();
        assert_eq!(
            session.evaluate(&chain(5)).unwrap().stats.plan_cache_hits,
            0
        );
        let warm = session.evaluate(&chain(6)).unwrap();
        assert_eq!(warm.stats.plan_cache_hits, 1);
        assert_eq!(warm.stats.facts, 6 * 5 / 2, "reused plans, exact answers");
        assert_eq!(session.strata.plan_shapes(0), 1);
    }

    #[test]
    fn bucket_crossing_misses() {
        let mut session = Evaluator::new(parse_program(TC, &chain(5)).unwrap()).unwrap();
        session.evaluate(&chain(5)).unwrap();
        // 63 edges: a different bucket, so the planner sees the new
        // statistics; the old shape stays cached beside the new one.
        let long = session.evaluate(&chain(64)).unwrap();
        assert_eq!(long.stats.plan_cache_hits, 0);
        assert_eq!(long.stats.facts, 64 * 63 / 2);
        assert_eq!(session.strata.plan_shapes(0), 2);
        assert_eq!(
            session.evaluate(&chain(5)).unwrap().stats.plan_cache_hits,
            1
        );
    }

    #[test]
    fn plan_shapes_stay_bounded() {
        // Three unary relations over 16 elements, each with 0, 1, 3, 7 or
        // 15 tuples: 125 distinct shapes, the first PLAN_SHAPES + 1 used.
        let sig = Arc::new(Signature::from_pairs([("a", 1), ("b", 1), ("c", 1)]));
        let structure = |shape: usize| {
            let mut s = Structure::new(Arc::clone(&sig), Domain::anonymous(16));
            for (k, p) in sig.preds().enumerate() {
                let bucket = shape / 5usize.pow(k as u32) % 5;
                for i in 0..(1u32 << bucket) - 1 {
                    s.insert(p, &[ElemId(i)]);
                }
            }
            s
        };
        let p = parse_program("q(X) :- a(X), b(X), c(X).", &structure(0)).unwrap();
        let mut session = Evaluator::new(p).unwrap();
        for shape in 0..=PLAN_SHAPES {
            let r = session.evaluate(&structure(shape)).unwrap();
            assert_eq!(r.stats.plan_cache_hits, 0, "shape {shape}");
        }
        assert_eq!(session.strata.plan_shapes(0), PLAN_SHAPES);
        // The newest shape is still cached, the oldest was evicted.
        let newest = session.evaluate(&structure(PLAN_SHAPES)).unwrap();
        assert_eq!(newest.stats.plan_cache_hits, 1);
        let oldest = session.evaluate(&structure(0)).unwrap();
        assert_eq!(oldest.stats.plan_cache_hits, 0);
        assert_eq!(session.strata.plan_shapes(0), PLAN_SHAPES);
    }

    #[test]
    fn one_session_many_structures() {
        let p = parse_program(TC, &chain(4)).unwrap();
        let mut session = Evaluator::new(p).unwrap();
        for n in [4usize, 5, 6, 7] {
            let s = chain(n);
            let result = session.evaluate(&s).unwrap();
            // Chain TC derives n·(n−1)/2 path facts.
            assert_eq!(result.stats.facts, n * (n - 1) / 2, "n={n}");
        }
    }
}
