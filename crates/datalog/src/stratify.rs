//! Stratified negation: predicate dependency analysis and the
//! multi-stratum evaluation pipeline.
//!
//! The core engines of [`eval`](crate::eval) are *semipositive* — negation
//! may only be applied to extensional atoms. This module lifts that
//! restriction to full **stratified datalog**:
//!
//! 1. [`stratify`] builds the predicate dependency graph of a program
//!    (one node per intensional predicate, a positive or negative edge
//!    `b → h` for every body occurrence of `b` in a rule for `h`),
//!    condenses it with Tarjan's strongly-connected-components algorithm,
//!    and assigns every predicate the maximum number of negative edges on
//!    any dependency path leading to it. A negative edge *inside* an SCC
//!    means the program has no stratified semantics; the resulting
//!    [`StratificationError`] names the offending predicate cycle.
//!    Safety (range restriction) and head checks run here too, so a
//!    [`Stratification`] certifies the program is evaluable.
//! 2. The stratified pipeline behind
//!    [`Evaluator::evaluate`](crate::evaluator::Evaluator::evaluate)
//!    evaluates the strata bottom-up. Each stratum is
//!    turned into a semipositive sub-program by rewriting references to
//!    lower-stratum predicates into *extensional* predicates of an
//!    extended structure ([`Structure::extended`]) holding the lower
//!    strata's materialized relations. [`Program::check_semipositive`] is
//!    exactly the stratum-local invariant this rewrite establishes.
//!
//! Because lower strata are materialized into the arena-backed
//! [`Relation`](mdtw_structure::Relation) layer, higher strata treat them
//! like any other EDB relation: positive occurrences are probed through
//! the cached [`PosIndex`](mdtw_structure::PosIndex) access paths (and
//! carry real cardinality estimates for the planner), negated
//! occurrences go through the existing constant-time negative-literal
//! membership checks, and the inner join loop of [`eval`](crate::eval)
//! is reused without modification.
//!
//! A session compiles its program once into a crate-private `Strata`
//! object: the extended signature, the rewritten sub-programs (built
//! once per input signature, not once per evaluation) and each stratum's
//! compiled join plans, keyed by the exact power-of-two cardinality
//! shape of the structure the stratum is planned against. The
//! [`MaterializedView`](crate::incremental::MaterializedView) a session
//! turns into keeps reading the same object.

use crate::ast::{IdbId, PredRef, Program};
use crate::eval::{run_seminaive_scratch, EvalStats, IdbStore, SeminaiveScratch};
use crate::limits::{EvalLimits, Governor, LimitKind};
use crate::plan::{plan_program_with, RulePlans, StructureStats};
use crate::profile::Profiler;
use mdtw_structure::{PredId, Signature, Structure};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Why a program has no stratified semantics (or is not evaluable at
/// all). Produced by [`stratify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StratificationError {
    /// A negative edge lands inside a strongly connected component of the
    /// predicate dependency graph: some rule for `head` negates `negated`,
    /// but `negated` (transitively) depends on `head` again, so no stratum
    /// assignment can place `negated` strictly below `head`.
    NegativeCycle {
        /// The rule (index into [`Program::rules`]) carrying the negation.
        rule: usize,
        /// The predicate being negated.
        negated: String,
        /// The dependency cycle, as predicate names: starts at the head of
        /// the offending rule, follows dependency edges to the negated
        /// predicate, which closes the cycle back to the head.
        cycle: Vec<String>,
    },
    /// A rule head is an extensional predicate.
    EdbHead {
        /// The offending rule index.
        rule: usize,
    },
    /// A rule is not range-restricted: a head variable or a variable of a
    /// negative literal occurs in no positive body literal.
    UnsafeRule {
        /// The offending rule index.
        rule: usize,
    },
}

impl fmt::Display for StratificationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StratificationError::NegativeCycle {
                rule,
                negated,
                cycle,
            } => {
                write!(
                    f,
                    "rule {rule}: negation of `{negated}` inside a recursive component \
                     (cycle: {} \u{ac}\u{2192} {})",
                    cycle.join(" \u{2192} "),
                    cycle.first().map_or("?", String::as_str),
                )
            }
            StratificationError::EdbHead { rule } => {
                write!(f, "rule {rule}: extensional predicate in head")
            }
            StratificationError::UnsafeRule { rule } => {
                write!(
                    f,
                    "rule {rule}: unsafe rule (every head variable and negated-literal \
                     variable must occur in a positive body literal)"
                )
            }
        }
    }
}

impl std::error::Error for StratificationError {}

/// A valid stratum assignment for a program: a certificate that evaluating
/// the strata bottom-up computes the stratified (perfect) model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stratification {
    /// Stratum of each intensional predicate (index = [`IdbId`]).
    pred_stratum: Vec<usize>,
    /// Rule indices per stratum, in source order within a stratum.
    strata: Vec<Vec<usize>>,
}

impl Stratification {
    /// Number of strata (1 for any semipositive program; 0 only for a
    /// program without intensional predicates).
    pub fn stratum_count(&self) -> usize {
        self.strata.len()
    }

    /// The stratum of an intensional predicate.
    pub fn stratum_of(&self, pred: IdbId) -> usize {
        self.pred_stratum[pred.index()]
    }

    /// Rule indices (into [`Program::rules`]) per stratum, bottom-up.
    pub fn strata(&self) -> &[Vec<usize>] {
        &self.strata
    }
}

/// One dependency edge `from → to`: predicate `from` occurs in the body of
/// rule `rule`, whose head is `to`.
struct DepEdge {
    from: IdbId,
    to: IdbId,
    negative: bool,
    rule: usize,
}

/// Computes a stratification of `program`, running the per-rule safety and
/// head checks on the way. See the [module docs](self) for the algorithm.
pub fn stratify(program: &Program) -> Result<Stratification, StratificationError> {
    let n = program.idb_count();

    // Per-rule checks first: an unstratifiable dependency graph over
    // ill-formed rules would report the wrong error.
    for (rule_idx, rule) in program.rules.iter().enumerate() {
        if matches!(rule.head.pred, PredRef::Edb(_)) {
            return Err(StratificationError::EdbHead { rule: rule_idx });
        }
        if !rule.is_safe() {
            return Err(StratificationError::UnsafeRule { rule: rule_idx });
        }
    }

    // Dependency graph: edge body-predicate → head-predicate.
    let mut edges: Vec<DepEdge> = Vec::new();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (rule_idx, rule) in program.rules.iter().enumerate() {
        let PredRef::Idb(head) = rule.head.pred else {
            unreachable!("EDB heads rejected above");
        };
        for lit in &rule.body {
            if let PredRef::Idb(body) = lit.atom.pred {
                adj[body.index()].push(edges.len());
                edges.push(DepEdge {
                    from: body,
                    to: head,
                    negative: !lit.positive,
                    rule: rule_idx,
                });
            }
        }
    }

    let (scc_of, scc_count) = tarjan_sccs(n, &edges, &adj);

    // A negative edge inside an SCC defeats stratification.
    for edge in &edges {
        if edge.negative && scc_of[edge.from.index()] == scc_of[edge.to.index()] {
            return Err(negative_cycle_error(program, &edges, &adj, &scc_of, edge));
        }
    }

    // Stratum of an SCC: the maximum number of negative edges on any
    // dependency path into it. Tarjan numbers SCCs in reverse topological
    // order of the condensation (an edge's target component always has the
    // smaller id), so walking ids downward visits sources before targets.
    let mut scc_out: Vec<Vec<(usize, bool)>> = vec![Vec::new(); scc_count];
    for edge in &edges {
        let (from_scc, to_scc) = (scc_of[edge.from.index()], scc_of[edge.to.index()]);
        if from_scc != to_scc {
            scc_out[from_scc].push((to_scc, edge.negative));
        }
    }
    let mut scc_stratum = vec![0usize; scc_count];
    for scc in (0..scc_count).rev() {
        for &(to_scc, negative) in &scc_out[scc] {
            let lifted = scc_stratum[scc] + usize::from(negative);
            scc_stratum[to_scc] = scc_stratum[to_scc].max(lifted);
        }
    }

    let pred_stratum: Vec<usize> = (0..n).map(|p| scc_stratum[scc_of[p]]).collect();
    let stratum_count = pred_stratum.iter().map(|&s| s + 1).max().unwrap_or(0);
    let mut strata: Vec<Vec<usize>> = vec![Vec::new(); stratum_count];
    for (rule_idx, rule) in program.rules.iter().enumerate() {
        let PredRef::Idb(head) = rule.head.pred else {
            unreachable!("EDB heads rejected above");
        };
        strata[pred_stratum[head.index()]].push(rule_idx);
    }

    Ok(Stratification {
        pred_stratum,
        strata,
    })
}

/// Builds the [`StratificationError::NegativeCycle`] for a negative edge
/// `bad` inside an SCC: recovers an explicit predicate cycle by BFS from
/// the edge's head back to its (negated) body predicate, inside the SCC.
fn negative_cycle_error(
    program: &Program,
    edges: &[DepEdge],
    adj: &[Vec<usize>],
    scc_of: &[usize],
    bad: &DepEdge,
) -> StratificationError {
    let scc = scc_of[bad.from.index()];
    let name = |p: IdbId| program.idb_names[p.index()].clone();

    // BFS from the head of the bad edge to its body predicate, restricted
    // to the SCC (both endpoints are in it, so a path exists).
    let mut prev: Vec<Option<IdbId>> = vec![None; program.idb_count()];
    let mut queue = std::collections::VecDeque::from([bad.to]);
    let mut seen = vec![false; program.idb_count()];
    seen[bad.to.index()] = true;
    while let Some(v) = queue.pop_front() {
        if v == bad.from {
            break;
        }
        for &ei in &adj[v.index()] {
            let w = edges[ei].to;
            if scc_of[w.index()] == scc && !seen[w.index()] {
                seen[w.index()] = true;
                prev[w.index()] = Some(v);
                queue.push_back(w);
            }
        }
    }

    // Path head → … → body (self-negation yields the one-element cycle).
    let mut cycle = vec![name(bad.from)];
    let mut cur = bad.from;
    while cur != bad.to {
        cur = prev[cur.index()].expect("SCC members are mutually reachable");
        cycle.push(name(cur));
    }
    cycle.reverse();

    StratificationError::NegativeCycle {
        rule: bad.rule,
        negated: name(bad.from),
        cycle,
    }
}

/// Iterative Tarjan over the predicate dependency graph. Returns the SCC
/// id of every node and the SCC count; ids are assigned in completion
/// order, so for any cross-component edge the *target* component has the
/// smaller id (reverse topological numbering of the condensation).
fn tarjan_sccs(n: usize, edges: &[DepEdge], adj: &[Vec<usize>]) -> (Vec<usize>, usize) {
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut scc_of = vec![usize::MAX; n];
    let mut scc_count = 0usize;
    let mut next_index = 0u32;
    // Explicit DFS frames `(node, next out-edge slot)` — predicate counts
    // are program-sized, so recursion depth must not be.
    let mut frames: Vec<(u32, usize)> = Vec::new();

    for start in 0..n as u32 {
        if index[start as usize] != UNVISITED {
            continue;
        }
        index[start as usize] = next_index;
        low[start as usize] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start as usize] = true;
        frames.push((start, 0));

        while let Some(&mut (v, ref mut slot)) = frames.last_mut() {
            let vi = v as usize;
            if let Some(&ei) = adj[vi].get(*slot) {
                *slot += 1;
                let w = edges[ei].to.0;
                let wi = w as usize;
                if index[wi] == UNVISITED {
                    index[wi] = next_index;
                    low[wi] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[wi] = true;
                    frames.push((w, 0));
                } else if on_stack[wi] {
                    low[vi] = low[vi].min(index[wi]);
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    let pi = parent as usize;
                    low[pi] = low[pi].min(low[vi]);
                }
                if low[vi] == index[vi] {
                    loop {
                        let w = stack.pop().expect("root still on stack");
                        on_stack[w as usize] = false;
                        scc_of[w as usize] = scc_count;
                        if w == v {
                            break;
                        }
                    }
                    scc_count += 1;
                }
            }
        }
    }
    (scc_of, scc_count)
}

/// Most plan sets one stratum keeps, one per cardinality shape; the
/// oldest is evicted beyond this.
pub(crate) const PLAN_SHAPES: usize = 64;

/// One stratum's compiled plan sets as `(shape, plans)` pairs, oldest
/// first.
type ShapedPlans = VecDeque<(Box<[u8]>, Arc<Vec<RulePlans>>)>;

/// A session's compiled strata: one program and its stratification,
/// plus everything about evaluating them that does not depend on a
/// structure's relations. [`Evaluator`](crate::evaluator::Evaluator)
/// sessions and the [`MaterializedView`](crate::incremental::MaterializedView)
/// they turn into own exactly one.
///
/// * **The extension**, built for one input signature: which
///   intensional predicates higher strata read, the extended
///   [`Signature`] materializing them as fresh extensional predicates
///   (names uniquified against the base signature), the IDB →
///   extension-predicate map, and each stratum's semipositive
///   sub-program — its rules with lower-stratum references rewritten to
///   those predicates. It is rebuilt when a structure arrives over a
///   different signature `Arc` (pointer identity is exact for the
///   dominant reuse pattern and never unsound, merely conservative for
///   structurally equal signatures). A single-stratum program needs no
///   rewrite: its one sub-program is the program itself.
/// * **Compiled join plans**, per stratum, keyed by the cardinality
///   shape of the structure the stratum is planned against: one byte per
///   predicate, its relation size bucketed by powers of two (the
///   granularity at which the planner's estimates can plausibly change
///   its join order). The key's length pins the predicate-id layout the
///   sub-program was rewritten to, so plans survive a signature rebuild
///   that keeps the layout, and no rule comparison is needed. Within a
///   bucket, plans may be mildly stale relative to the exact statistics;
///   staleness never affects correctness — every join order computes the
///   same fixpoint.
#[derive(Debug)]
pub(crate) struct Strata {
    program: Program,
    strat: Arc<Stratification>,
    /// The input signature the extension was built for (`None` before
    /// the first build).
    base_sig: Option<Arc<Signature>>,
    ext_sig: Option<Arc<Signature>>,
    ext_pred: Vec<Option<PredId>>,
    /// Stratum `k`'s semipositive sub-program at index `k`; empty for a
    /// single-stratum program, whose sub-program is `program`.
    subs: Vec<Program>,
    plans: Vec<ShapedPlans>,
    /// Reused buffer for the shape of the structure being planned.
    shape: Vec<u8>,
    /// How many times the extension was built (pinned by session tests).
    pub(crate) rebuilds: usize,
}

impl Strata {
    /// The compiled strata of `program` under `strat`; nothing is built
    /// until a structure arrives.
    pub(crate) fn new(program: Program, strat: Stratification) -> Self {
        let plans = (0..strat.stratum_count().max(1))
            .map(|_| VecDeque::new())
            .collect();
        Self {
            program,
            strat: Arc::new(strat),
            base_sig: None,
            ext_sig: None,
            ext_pred: Vec::new(),
            subs: Vec::new(),
            plans,
            shape: Vec::new(),
            rebuilds: 0,
        }
    }

    /// The program.
    pub(crate) fn program(&self) -> &Program {
        &self.program
    }

    /// The stratification certificate, shared with every result.
    pub(crate) fn stratification(&self) -> &Arc<Stratification> {
        &self.strat
    }

    /// The signature the extension was last built for.
    pub(crate) fn base_sig(&self) -> &Arc<Signature> {
        self.base_sig.as_ref().expect("extension built")
    }

    /// The extended signature: the base plus one predicate per
    /// intensional predicate a higher stratum reads.
    pub(crate) fn ext_sig(&self) -> &Arc<Signature> {
        self.ext_sig.as_ref().expect("extension built")
    }

    /// The extension predicate of each intensional predicate, if a higher
    /// stratum reads it.
    pub(crate) fn ext_pred(&self) -> &[Option<PredId>] {
        &self.ext_pred
    }

    /// Stratum `k`'s semipositive sub-program (the extension must be
    /// built for a multi-stratum program).
    pub(crate) fn sub(&self, k: usize) -> &Program {
        if self.strat.stratum_count() <= 1 {
            &self.program
        } else {
            &self.subs[k]
        }
    }

    /// Builds the extension and the stratum sub-programs for `base`,
    /// unless they were built for this signature already.
    pub(crate) fn prepare(&mut self, base: &Arc<Signature>) {
        if self.base_sig.as_ref().is_some_and(|s| Arc::ptr_eq(s, base)) {
            return;
        }
        self.rebuilds += 1;
        let (program, strat) = (&self.program, &*self.strat);
        // Which predicates higher strata actually read: only those are
        // materialized into the extended structure.
        let mut needed = vec![false; program.idb_count()];
        for rule in &program.rules {
            let PredRef::Idb(head) = rule.head.pred else {
                unreachable!("stratify rejects EDB heads");
            };
            for lit in &rule.body {
                if let PredRef::Idb(id) = lit.atom.pred {
                    if strat.stratum_of(id) < strat.stratum_of(head) {
                        needed[id.index()] = true;
                    }
                }
            }
        }
        // One fresh extensional predicate per needed intensional
        // predicate (names uniquified against the signature — IDB names
        // can collide with EDB names in hand-built programs).
        let mut ext_pairs: Vec<(String, usize)> = Vec::new();
        let mut ext_pred: Vec<Option<PredId>> = vec![None; program.idb_count()];
        for (i, need) in needed.iter().enumerate() {
            if *need {
                let mut name = program.idb_names[i].clone();
                while base.lookup(&name).is_some() || ext_pairs.iter().any(|(n, _)| n == &name) {
                    name.push('\'');
                }
                ext_pred[i] = Some(PredId((base.len() + ext_pairs.len()) as u32));
                ext_pairs.push((name, program.idb_arities[i]));
            }
        }
        if strat.stratum_count() > 1 {
            self.subs = strat
                .strata()
                .iter()
                .enumerate()
                .map(|(k, rules)| stratum_sub_program(program, strat, rules, k, &ext_pred))
                .collect();
        }
        self.ext_sig = Some(Arc::new(base.extend_with(ext_pairs)));
        self.ext_pred = ext_pred;
        self.base_sig = Some(Arc::clone(base));
    }

    /// Stratum `k`'s compiled plans for structures shaped like
    /// `structure`, and whether they were compiled before (`true`) or by
    /// this call (`false`).
    pub(crate) fn plans(&mut self, k: usize, structure: &Structure) -> (Arc<Vec<RulePlans>>, bool) {
        self.shape.clear();
        self.shape.extend(
            structure
                .signature()
                .preds()
                .map(|p| (structure.relation(p).len() as u64 + 1).ilog2() as u8),
        );
        let slots = &mut self.plans[k];
        if let Some((_, plans)) = slots.iter().find(|(shape, _)| **shape == *self.shape) {
            return (Arc::clone(plans), true);
        }
        let sub = if self.strat.stratum_count() <= 1 {
            &self.program
        } else {
            &self.subs[k]
        };
        let plans = Arc::new(plan_program_with(sub, &StructureStats::new(structure)));
        if slots.len() >= PLAN_SHAPES {
            slots.pop_front();
        }
        slots.push_back((self.shape.as_slice().into(), Arc::clone(&plans)));
        (plans, false)
    }

    /// Number of plan sets stratum `k` holds.
    #[cfg(test)]
    pub(crate) fn plan_shapes(&self, k: usize) -> usize {
        self.plans[k].len()
    }

    /// Evaluates the program over `structure` with session-recycled
    /// scratch buffers — the engine behind
    /// [`Evaluator`](crate::evaluator::Evaluator) sessions.
    ///
    /// A single stratum is semipositive as-is: exactly one semi-naive
    /// evaluation over `structure`, whose store is handed back as is.
    /// Otherwise the strata run bottom-up over the extended structure,
    /// each stratum's output materialized into it for the strata above,
    /// each sub-program handed to the indexed semi-naive engine.
    ///
    /// The returned [`EvalStats`] accumulates the per-stratum counters
    /// (`rounds` is the total across strata, `plan_cache_hits` counts per
    /// stratum) and reports the stratum count in [`EvalStats::strata`].
    ///
    /// The third return element is the tripped [`LimitKind`], if `limits`
    /// governed the run and a limit tripped. On a trip the store holds
    /// every completed stratum plus the partial output of the stratum that
    /// tripped (a sound subset of the fixpoint), and `stats.strata` is
    /// rewritten to the *completed*-stratum count.
    pub(crate) fn run(
        &mut self,
        structure: &Structure,
        scratch: &mut SeminaiveScratch,
        limits: Option<&EvalLimits>,
        mut prof: Option<&mut Profiler>,
    ) -> (IdbStore, EvalStats, Option<LimitKind>) {
        if self.strat.stratum_count() <= 1 {
            crate::eval::debug_assert_semipositive(&self.program);
            let (plans, hit) = self.plans(0, structure);
            let stats = EvalStats {
                plan_cache_hits: usize::from(hit),
                strata: self.strat.stratum_count(),
                ..EvalStats::default()
            };
            let mut gov = Governor::new(limits);
            if let Some(p) = prof.as_deref_mut() {
                p.begin_stratum(0, &self.program, None);
            }
            let (store, mut stats) = run_seminaive_scratch(
                &self.program,
                structure,
                &plans,
                stats,
                scratch,
                &mut gov,
                prof.as_deref_mut(),
            );
            if let Some(p) = prof {
                p.end_stratum(stats.rounds, stats.facts, gov.tripped().is_some());
            }
            if gov.tripped().is_some() {
                stats.strata = 0;
            }
            return (store, stats, gov.tripped());
        }

        self.prepare(structure.signature());
        let mut ext_structure = structure.extended_shared(self.ext_sig());
        let mut final_store = IdbStore::new_for(&self.program);
        let mut total = EvalStats {
            strata: self.strat.stratum_count(),
            ..EvalStats::default()
        };
        let mut completed = 0usize;
        let mut trip: Option<LimitKind> = None;
        let strat = Arc::clone(&self.strat);
        for (k, stratum_rules) in strat.strata().iter().enumerate() {
            if !stratum_rules.is_empty() {
                let (plans, hit) = self.plans(k, &ext_structure);
                let sub = &self.subs[k];
                let stats = EvalStats {
                    plan_cache_hits: usize::from(hit),
                    ..EvalStats::default()
                };
                // A fresh governor per stratum (the per-stratum stats
                // reset breaks the work counter's monotonicity); the
                // shared meter keeps the budget cumulative across strata.
                let mut gov = Governor::new(limits);
                if let Some(p) = prof.as_deref_mut() {
                    p.begin_stratum(k, sub, Some(stratum_rules.as_slice()));
                }
                let (sub_store, stats) = run_seminaive_scratch(
                    sub,
                    &ext_structure,
                    &plans,
                    stats,
                    scratch,
                    &mut gov,
                    prof.as_deref_mut(),
                );
                total.merge_counters(&stats);
                trip = gov.tripped();
                if let Some(p) = prof.as_deref_mut() {
                    p.end_stratum(stats.rounds, stats.facts, trip.is_some());
                }

                // Materialize this stratum's output: into the final store,
                // and into the extended structure for the strata above. A
                // tripped stratum's partial output is still materialized —
                // every fact in it is truly derivable (graceful
                // degradation).
                for pred in (0..self.program.idb_count() as u32).map(IdbId) {
                    if strat.stratum_of(pred) != k {
                        continue;
                    }
                    for tuple in sub_store.relation(pred).iter() {
                        final_store.insert_raw(pred, tuple);
                        if let Some(p) = self.ext_pred[pred.index()] {
                            ext_structure.insert(p, tuple);
                        }
                    }
                }
                if trip.is_some() {
                    break;
                }
            }
            completed = k + 1;
        }

        if trip.is_some() {
            total.strata = completed;
        }
        (final_store, total, trip)
    }
}

/// Stratum `k`'s semipositive sub-program: its rules, with every body
/// reference to a lower-stratum predicate rewritten to the extensional
/// predicate materializing it. [`Program::check_semipositive`] is
/// exactly the stratum-local invariant this rewrite establishes. The
/// IDB tables are kept whole: they fix the predicate-id space.
fn stratum_sub_program(
    program: &Program,
    strat: &Stratification,
    stratum_rules: &[usize],
    k: usize,
    ext_pred: &[Option<PredId>],
) -> Program {
    let rules = stratum_rules
        .iter()
        .map(|&ri| {
            let mut rule = program.rules[ri].clone();
            for lit in &mut rule.body {
                if let PredRef::Idb(id) = lit.atom.pred {
                    if strat.stratum_of(id) < k {
                        let p = ext_pred[id.index()].expect("cross-stratum reads are materialized");
                        lit.atom.pred = PredRef::Edb(p);
                    }
                }
            }
            rule
        })
        .collect();
    let sub = Program {
        rules,
        idb_names: program.idb_names.clone(),
        idb_arities: program.idb_arities.clone(),
        idb_by_name: program.idb_by_name.clone(),
    };
    debug_assert!(
        sub.check_semipositive().is_ok(),
        "stratum rewrite must produce a semipositive sub-program"
    );
    sub
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Literal, Rule, Term, Var};
    use crate::evaluator::Evaluator;
    use crate::parser::parse_program;
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

    /// One evaluation of `p` over `s` by a fresh session.
    fn evaluate(p: &Program, s: &Structure) -> (IdbStore, EvalStats) {
        let result = Evaluator::new(p.clone()).unwrap().evaluate(s).unwrap();
        (result.store, result.stats)
    }

    const UNREACH: &str = "reach(X) :- first(X).\n\
                           reach(Y) :- reach(X), e(X, Y).\n\
                           unreach(X) :- node(X), !reach(X).";

    #[test]
    fn semipositive_program_is_single_stratum() {
        let s = chain(4);
        let p = parse_program(
            "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).",
            &s,
        )
        .unwrap();
        let strat = stratify(&p).unwrap();
        assert_eq!(strat.stratum_count(), 1);
        assert_eq!(strat.stratum_of(p.idb("path").unwrap()), 0);
        assert_eq!(strat.strata(), &[vec![0, 1]]);
    }

    #[test]
    fn complement_reachability_gets_two_strata() {
        let s = chain(5);
        let p = parse_program(UNREACH, &s).unwrap();
        let strat = stratify(&p).unwrap();
        assert_eq!(strat.stratum_count(), 2);
        assert_eq!(strat.stratum_of(p.idb("reach").unwrap()), 0);
        assert_eq!(strat.stratum_of(p.idb("unreach").unwrap()), 1);
        assert_eq!(strat.strata(), &[vec![0, 1], vec![2]]);
    }

    #[test]
    fn stratified_complement_reachability_on_disconnected_chain() {
        // Two chain components; `first` marks only element 0, so the
        // second component is unreachable.
        let sig = Arc::new(Signature::from_pairs([("e", 2), ("node", 1), ("first", 1)]));
        let dom = Domain::anonymous(6);
        let mut s = Structure::new(sig, dom);
        let e = s.signature().lookup("e").unwrap();
        let node = s.signature().lookup("node").unwrap();
        let first = s.signature().lookup("first").unwrap();
        for i in 0..6 {
            s.insert(node, &[ElemId(i)]);
        }
        for i in [0u32, 1, 3, 4] {
            s.insert(e, &[ElemId(i), ElemId(i + 1)]);
        }
        s.insert(first, &[ElemId(0)]);

        let p = parse_program(UNREACH, &s).unwrap();
        let (store, stats) = evaluate(&p, &s);
        let unreach = p.idb("unreach").unwrap();
        assert_eq!(store.unary(unreach), vec![ElemId(3), ElemId(4), ElemId(5)]);
        assert_eq!(stats.strata, 2);
        assert_eq!(stats.negative_checks, 6, "one check per node");
        assert_eq!(stats.facts, store.fact_count());
    }

    #[test]
    fn negation_chain_three_strata() {
        let s = chain(5);
        let p = parse_program(
            &format!("{UNREACH}\nsettled(X) :- node(X), !unreach(X), !first(X)."),
            &s,
        )
        .unwrap();
        let strat = stratify(&p).unwrap();
        assert_eq!(strat.stratum_count(), 3);
        let (store, stats) = evaluate(&p, &s);
        assert_eq!(stats.strata, 3);
        // Whole chain reachable from 0 → unreach empty → settled is
        // everything but the first node.
        let settled = p.idb("settled").unwrap();
        assert_eq!(
            store.unary(settled),
            (1u32..5).map(ElemId).collect::<Vec<_>>()
        );
        assert!(store.unary(p.idb("unreach").unwrap()).is_empty());
    }

    #[test]
    fn semipositive_matches_eval_seminaive_exactly() {
        let s = chain(7);
        let p = parse_program(
            "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).\n\
             skip(X, Y) :- path(X, Y), !e(X, Y).",
            &s,
        )
        .unwrap();
        // The plain semi-naive loop, bypassing the stratified pipeline.
        let plans = crate::plan::plan_program_with(&p, &crate::plan::StructureStats::new(&s));
        let (semi, semi_stats) = crate::eval::run_seminaive_scratch(
            &p,
            &s,
            &plans,
            EvalStats::default(),
            &mut SeminaiveScratch::new(&p),
            &mut Governor::new(None),
            None,
        );
        let (strat, strat_stats) = evaluate(&p, &s);
        for idb in 0..p.idb_count() {
            let id = IdbId(idb as u32);
            assert_eq!(semi.tuples(id), strat.tuples(id));
        }
        assert_eq!(semi_stats.facts, strat_stats.facts);
        assert_eq!(semi_stats.rounds, strat_stats.rounds);
        assert_eq!(semi_stats.firings, strat_stats.firings);
        assert_eq!(strat_stats.strata, 1);
    }

    /// Hand-built (the parser rejects it earlier): `p :- node, !q` and
    /// `q :- node, !p` — mutual negative recursion.
    #[test]
    fn mutual_negation_reports_the_cycle() {
        let s = chain(3);
        let node = s.signature().lookup("node").unwrap();
        let mut p = Program::default();
        let qp = p.intern_idb("p", 1).unwrap();
        let qq = p.intern_idb("q", 1).unwrap();
        let mk = |head: IdbId, neg: IdbId| Rule {
            head: Atom {
                pred: PredRef::Idb(head),
                terms: vec![Term::Var(Var(0))],
            },
            body: vec![
                Literal {
                    atom: Atom {
                        pred: PredRef::Edb(node),
                        terms: vec![Term::Var(Var(0))],
                    },
                    positive: true,
                },
                Literal {
                    atom: Atom {
                        pred: PredRef::Idb(neg),
                        terms: vec![Term::Var(Var(0))],
                    },
                    positive: false,
                },
            ],
            var_count: 1,
            var_names: vec!["X".into()],
        };
        p.rules.push(mk(qp, qq));
        p.rules.push(mk(qq, qp));

        let err = stratify(&p).unwrap_err();
        match &err {
            StratificationError::NegativeCycle { negated, cycle, .. } => {
                assert!(negated == "p" || negated == "q");
                assert_eq!(cycle.len(), 2);
                assert!(cycle.contains(&"p".to_string()));
                assert!(cycle.contains(&"q".to_string()));
            }
            other => panic!("expected NegativeCycle, got {other:?}"),
        }
        let rendered = err.to_string();
        assert!(rendered.contains('p') && rendered.contains('q'));
        assert!(Evaluator::new(p).is_err());
    }

    /// `win(X) :- e(X, Y), !win(Y)` — negation through the predicate's own
    /// SCC (a self-loop), the classic unstratifiable game program.
    #[test]
    fn self_negation_is_a_one_predicate_cycle() {
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
        let err = stratify(&p).unwrap_err();
        assert_eq!(
            err,
            StratificationError::NegativeCycle {
                rule: 0,
                negated: "win".into(),
                cycle: vec!["win".into()],
            }
        );
    }

    #[test]
    fn positive_recursion_through_negation_level_is_fine() {
        // unreach is negated, and a higher stratum recurses positively on
        // itself over unreach facts — stratified, three SCCs, two strata.
        let s = chain(6);
        let p = parse_program(
            &format!(
                "{UNREACH}\nisland(X, Y) :- unreach(X), unreach(Y).\n\
                      island(X, Z) :- island(X, Y), island(Y, Z)."
            ),
            &s,
        )
        .unwrap();
        let strat = stratify(&p).unwrap();
        assert_eq!(strat.stratum_count(), 2);
        assert_eq!(strat.stratum_of(p.idb("island").unwrap()), 1);
        let (store, _) = evaluate(&p, &s);
        // Fully reachable chain: no unreach facts, no islands.
        assert_eq!(store.unary(p.idb("unreach").unwrap()), vec![]);
        assert!(store.tuples(p.idb("island").unwrap()).is_empty());
    }

    #[test]
    fn unsafe_and_edb_head_rules_are_reported() {
        let s = chain(3);
        let e = s.signature().lookup("e").unwrap();
        let mut p = Program::default();
        let q = p.intern_idb("q", 1).unwrap();
        // q(X) :- q(Y).  — X unbound.
        p.rules.push(Rule {
            head: Atom {
                pred: PredRef::Idb(q),
                terms: vec![Term::Var(Var(0))],
            },
            body: vec![Literal {
                atom: Atom {
                    pred: PredRef::Idb(q),
                    terms: vec![Term::Var(Var(1))],
                },
                positive: true,
            }],
            var_count: 2,
            var_names: vec!["X".into(), "Y".into()],
        });
        assert_eq!(
            stratify(&p).unwrap_err(),
            StratificationError::UnsafeRule { rule: 0 }
        );

        let mut p2 = Program::default();
        p2.rules.push(Rule {
            head: Atom {
                pred: PredRef::Edb(e),
                terms: vec![Term::Var(Var(0)), Term::Var(Var(0))],
            },
            body: vec![Literal {
                atom: Atom {
                    pred: PredRef::Edb(e),
                    terms: vec![Term::Var(Var(0)), Term::Var(Var(0))],
                },
                positive: true,
            }],
            var_count: 1,
            var_names: vec!["X".into()],
        });
        assert_eq!(
            stratify(&p2).unwrap_err(),
            StratificationError::EdbHead { rule: 0 }
        );
    }

    #[test]
    fn idb_name_clash_with_edb_is_uniquified() {
        // Hand-built program whose IDB predicate is named like the EDB
        // relation `node`: materialization must not collide.
        let s = chain(4);
        let e = s.signature().lookup("e").unwrap();
        let node_edb = s.signature().lookup("node").unwrap();
        let mut p = Program::default();
        let node_idb = p.intern_idb("node", 1).unwrap();
        let lone = p.intern_idb("lone", 1).unwrap();
        // node(X) :- e(X, Y).          (IDB `node`: elements with out-edges)
        p.rules.push(Rule {
            head: Atom {
                pred: PredRef::Idb(node_idb),
                terms: vec![Term::Var(Var(0))],
            },
            body: vec![Literal {
                atom: Atom {
                    pred: PredRef::Edb(e),
                    terms: vec![Term::Var(Var(0)), Term::Var(Var(1))],
                },
                positive: true,
            }],
            var_count: 2,
            var_names: vec!["X".into(), "Y".into()],
        });
        // lone(X) :- node_edb(X), !node_idb(X).
        p.rules.push(Rule {
            head: Atom {
                pred: PredRef::Idb(lone),
                terms: vec![Term::Var(Var(0))],
            },
            body: vec![
                Literal {
                    atom: Atom {
                        pred: PredRef::Edb(node_edb),
                        terms: vec![Term::Var(Var(0))],
                    },
                    positive: true,
                },
                Literal {
                    atom: Atom {
                        pred: PredRef::Idb(node_idb),
                        terms: vec![Term::Var(Var(0))],
                    },
                    positive: false,
                },
            ],
            var_count: 1,
            var_names: vec!["X".into()],
        });
        let (store, stats) = evaluate(&p, &s);
        assert_eq!(stats.strata, 2);
        // Elements 0..3 have out-edges; only the last element is lone.
        assert_eq!(store.unary(lone), vec![ElemId(3)]);
    }

    #[test]
    fn stratified_hits_plan_cache_per_stratum() {
        let s = chain(8);
        let p = parse_program(UNREACH, &s).unwrap();
        let mut session = Evaluator::new(p).unwrap();
        let first = session.evaluate(&s).unwrap().stats;
        assert_eq!(first.plan_cache_hits, 0);
        let second = session.evaluate(&s).unwrap().stats;
        assert_eq!(
            second.plan_cache_hits, 2,
            "both strata reuse their compiled plans"
        );
        assert_eq!(first.facts, second.facts);
    }
}
