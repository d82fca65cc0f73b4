//! Bottom-up evaluation: the semi-naive least-fixpoint computation of
//! semipositive datalog over a finite structure (paper §2.4). The entry
//! point is an [`Evaluator`](crate::evaluator::Evaluator) session running
//! [`Engine::SemiNaiveIndexed`](crate::evaluator::Engine::SemiNaiveIndexed):
//! per-rule join plans (module [`plan`](crate::plan)) probe lazily built
//! secondary indexes ([`mdtw_structure::PosIndex`]) instead of scanning
//! whole relations, the frontier is a set of per-predicate delta
//! relations, and rules with several intensional body atoms use the
//! textbook semi-naive split — for the delta at body position *i*,
//! positions before *i* read the pre-round store and positions after read
//! the updated store — so every rule instantiation fires exactly once.
//!
//! The compiled-plan join loop is also the only join executor of
//! incremental maintenance ([`incremental`](crate::incremental)): its
//! leaf action is a statically dispatched sink, which stages derived
//! facts during evaluation, collects DRed's overdeletions, or stops at
//! the first re-derivation of a fact.
//!
//! The *linear-time* evaluation of quasi-guarded programs (Theorem 4.4)
//! lives in the `ground` and `horn` modules.

use crate::ast::{Atom, IdbId, PredRef, Program, Rule, Term, Var};
use crate::limits::Governor;
use crate::plan::{Access, JoinPlan, RulePlans};
use crate::profile::{LitCount, Profiler};
use mdtw_structure::fx::FxHashMap;
use mdtw_structure::{ElemId, PosIndex, Relation, Structure};
use std::sync::Arc;

/// The computed least fixpoint: one indexed relation per intensional
/// predicate. The relations expose the same secondary-index layer as the
/// extensional [`Relation`]s, so joins probe IDB and EDB atoms uniformly.
#[derive(Debug, Clone)]
pub struct IdbStore {
    rels: Vec<Relation>,
    by_name: FxHashMap<String, IdbId>,
}

impl IdbStore {
    fn new(program: &Program) -> Self {
        Self {
            rels: program
                .idb_arities
                .iter()
                .map(|&a| Relation::new(a))
                .collect(),
            by_name: program
                .idb_names
                .iter()
                .enumerate()
                .map(|(i, n)| (n.clone(), IdbId(i as u32)))
                .collect(),
        }
    }

    /// True if `pred(args)` is in the least fixpoint.
    pub fn holds(&self, pred: IdbId, args: &[ElemId]) -> bool {
        self.rels[pred.index()].contains(args)
    }

    /// Looks a predicate up by name and tests membership. The name map is
    /// built once at store construction, so this is a hash lookup, not a
    /// scan over the predicate table. An unknown name, or a tuple of the
    /// wrong arity, is simply not in the model.
    pub fn holds_named(&self, name: &str, args: &[ElemId]) -> bool {
        self.by_name.get(name).is_some_and(|id| {
            let rel = &self.rels[id.index()];
            rel.arity() == args.len() && rel.contains(args)
        })
    }

    /// All tuples of `pred`, sorted for determinism.
    pub fn tuples(&self, pred: IdbId) -> Vec<Vec<ElemId>> {
        let mut out: Vec<Vec<ElemId>> = self.rels[pred.index()]
            .iter()
            .map(<[mdtw_structure::ElemId]>::to_vec)
            .collect();
        out.sort();
        out
    }

    /// The elements `x` with `pred(x)` in the fixpoint (unary predicates).
    pub fn unary(&self, pred: IdbId) -> Vec<ElemId> {
        let mut out: Vec<ElemId> = self.rels[pred.index()]
            .iter()
            .map(|t| {
                debug_assert_eq!(t.len(), 1);
                t[0]
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Total number of derived facts.
    pub fn fact_count(&self) -> usize {
        self.rels.iter().map(Relation::len).sum()
    }

    /// The relation of `pred` (with its secondary-index layer), e.g. to
    /// iterate derived tuples without the sorted copy of
    /// [`IdbStore::tuples`]. The stratified evaluator reads lower strata
    /// out of the store through this accessor when materializing them as
    /// extensional relations.
    #[inline]
    pub fn relation(&self, pred: IdbId) -> &Relation {
        &self.rels[pred.index()]
    }

    /// An empty store shaped for `program` whose relations for the
    /// predicates `program`'s rules define start with room for
    /// `sizes[pred]` facts ([`Relation::with_capacity`]); the others start
    /// empty. Presizing changes no result, only how often the store grows.
    fn presized(program: &Program, sizes: &[usize]) -> Self {
        let mut defined = vec![false; program.idb_count()];
        for id in defined_idbs(program) {
            defined[id.index()] = true;
        }
        let mut store = Self::new(program);
        for (i, rel) in store.rels.iter_mut().enumerate() {
            if defined[i] {
                *rel = Relation::with_capacity(rel.arity(), sizes[i]);
            }
        }
        store
    }

    /// Creates an empty store shaped for `program` (used by the
    /// quasi-guarded evaluator to decode LTUR models).
    pub(crate) fn new_for(program: &Program) -> Self {
        Self::new(program)
    }

    /// Direct insertion (used when decoding a ground model and when
    /// folding stratum outputs into the final store) — takes a borrowed
    /// tuple so bulk copies stay allocation-free.
    pub(crate) fn insert_raw(&mut self, pred: IdbId, args: &[ElemId]) {
        self.rels[pred.index()].insert(args);
    }

    /// Direct removal — the DRed overdeletion path of incremental
    /// maintenance. Returns `false` if the fact was not in the store.
    pub(crate) fn retract_raw(&mut self, pred: IdbId, args: &[ElemId]) -> bool {
        self.rels[pred.index()].retract(args)
    }
}

/// Evaluation statistics (for the linearity experiments and the
/// `bench_report` perf trajectory).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of successful rule instantiations. The semi-naive engine
    /// fires each instantiation whose body the model satisfies exactly
    /// once, whether or not its head fact is new.
    pub firings: usize,
    /// Number of distinct facts derived.
    pub facts: usize,
    /// Number of fixpoint rounds.
    pub rounds: usize,
    /// Secondary-index probes performed.
    pub index_probes: usize,
    /// Unindexed enumerations of an EDB relation or the IDB store
    /// (enumerating a round's delta — the point of semi-naive evaluation
    /// — is not counted).
    pub full_scans: usize,
    /// Candidate tuples enumerated across all literal accesses.
    pub tuples_considered: usize,
    /// Derivations that resolved to an already-interned tuple instead of
    /// allocating new storage: a head staged twice in one round is counted
    /// when it is staged again, and a staged head already in the store
    /// when the round's staged facts are merged into it. `interned_hits +
    /// facts` equals the number of firings with an intensional head.
    pub interned_hits: usize,
    /// 1 if this evaluation reused the rule plans its session compiled
    /// for an earlier structure of the same power-of-two cardinality
    /// shape, 0 if it had to plan (the stratified pipeline reports one
    /// potential hit per stratum).
    pub plan_cache_hits: usize,
    /// Number of negative-literal membership checks performed (a
    /// short-circuited conjunction counts only the checks it actually
    /// ran).
    pub negative_checks: usize,
    /// Number of evaluation strata: 1 for semipositive programs, the
    /// stratification's stratum count for the stratified pipeline.
    pub strata: usize,
    /// Amortized limit checkpoints the resource governor ran (0 when the
    /// evaluation carried no [`EvalLimits`](crate::limits::EvalLimits)).
    /// Session-level readback of the shared meter, reported per
    /// evaluation.
    pub limit_checks: usize,
    /// Fuel units the evaluation consumed against its
    /// [`EvalLimits`](crate::limits::EvalLimits) budget (0 without
    /// limits). Like [`EvalStats::limit_checks`], a per-evaluation delta
    /// of the shared meter.
    pub fuel_spent: u64,
}

impl EvalStats {
    /// Adds `part`'s additive work counters into `self` — the one place
    /// the field list is enumerated, used by the stratified pipeline's
    /// per-stratum totals and by multi-evaluation reports. `strata` is
    /// deliberately **not** summed: it describes an evaluation's shape,
    /// not accumulated work, so callers set it themselves.
    pub fn merge_counters(&mut self, part: &EvalStats) {
        self.firings += part.firings;
        self.facts += part.facts;
        self.rounds += part.rounds;
        self.index_probes += part.index_probes;
        self.full_scans += part.full_scans;
        self.tuples_considered += part.tuples_considered;
        self.interned_hits += part.interned_hits;
        self.plan_cache_hits += part.plan_cache_hits;
        self.negative_checks += part.negative_checks;
        self.limit_checks += part.limit_checks;
        self.fuel_spent += part.fuel_spent;
    }
}

/// The intensional predicates `program`'s rules define (their heads), once
/// per rule.
fn defined_idbs(program: &Program) -> impl Iterator<Item = IdbId> + '_ {
    program.rules.iter().map(|rule| match rule.head.pred {
        PredRef::Idb(id) => id,
        PredRef::Edb(_) => unreachable!("stratification rejects extensional heads"),
    })
}

/// Debug check for call sites where semipositivity is guaranteed by
/// construction (an [`Evaluator`](crate::evaluator::Evaluator) session
/// rejects multi-stratum programs on semipositive-only engines before
/// `evaluate` can run).
pub(crate) fn debug_assert_semipositive(program: &Program) {
    debug_assert!(
        program.check_semipositive().is_ok(),
        "caller must guarantee semipositivity"
    );
}

// ---------------------------------------------------------------------------
// Indexed semi-naive engine
// ---------------------------------------------------------------------------

/// The per-predicate delta relations of one semi-naive round. Plugged into
/// the same index layer as the store, so delta atoms with bound arguments
/// are probed rather than scanned. Recycled across rounds ([`Self::clear`])
/// so round turnover reallocates nothing.
#[derive(Debug)]
struct DeltaStore {
    rels: Vec<Relation>,
    count: usize,
}

impl DeltaStore {
    fn new(program: &Program) -> Self {
        Self {
            rels: program
                .idb_arities
                .iter()
                .map(|&a| Relation::new(a))
                .collect(),
            count: 0,
        }
    }

    fn insert(&mut self, pred: IdbId, args: &[ElemId]) {
        if self.rels[pred.index()].insert(args) {
            self.count += 1;
        }
    }

    fn clear(&mut self) {
        for rel in &mut self.rels {
            rel.clear();
        }
        self.count = 0;
    }

    #[inline]
    fn rel(&self, pred: IdbId) -> &Relation {
        &self.rels[pred.index()]
    }

    /// True when the delta of `rule`'s intensional body literal `pos` is
    /// empty: that literal's delta pass cannot match anything, so the
    /// round skips it without resolving steps or taking index locks.
    #[inline]
    fn is_empty_at(&self, rule: &Rule, pos: usize) -> bool {
        let PredRef::Idb(id) = rule.body[pos].atom.pred else {
            unreachable!("delta plans target intensional literals")
        };
        self.rel(id).is_empty()
    }
}

/// Per-predicate staging relations collecting one round's derivations
/// before they are folded into the store (facts derived in round *i*
/// become visible in round *i+1*). Staging does not consult the store: it
/// only dedups within the round, and [`merge_round`] sorts the staged
/// facts into new ones and duplicates of stored facts with the store
/// insert it makes anyway — one store lookup per staged fact. Arena-backed
/// like everything else, so the derive path stages tuples without boxing
/// them; recycled across rounds.
#[derive(Debug)]
struct FreshStore {
    rels: Vec<Relation>,
}

impl FreshStore {
    fn new(program: &Program) -> Self {
        Self {
            rels: program
                .idb_arities
                .iter()
                .map(|&a| Relation::new(a))
                .collect(),
        }
    }

    /// Stages a derivation; returns `false` if it was already staged this
    /// round.
    #[inline]
    fn insert(&mut self, pred: IdbId, args: &[ElemId]) -> bool {
        self.rels[pred.index()].insert(args)
    }

    fn clear(&mut self) {
        for rel in &mut self.rels {
            rel.clear();
        }
    }
}

/// What a plan execution does with each derived head fact: the leaf
/// action of [`descend_plan`], statically dispatched so the evaluation
/// hot path carries no per-firing branch on the caller's purpose.
trait Sink {
    /// Whether the pass checks the rule's negative literals. DRed's
    /// overdeletion runs the positive projection of each rule and
    /// ignores them.
    const NEGATIVES: bool;

    /// Handles the head fact `pred(args)` of one complete instantiation
    /// (`store` is the store the pass reads, for sinks that filter against
    /// it); returns `true` to stop the pass.
    fn emit(
        &mut self,
        pred: IdbId,
        args: &[ElemId],
        store: &IdbStore,
        stats: &mut EvalStats,
    ) -> bool;
}

/// Evaluation stages each derived head for the round's merge without
/// probing the store: a head already staged this round is an interned
/// hit here, and one already in the store is counted by [`merge_round`].
impl Sink for FreshStore {
    const NEGATIVES: bool = true;

    #[inline]
    fn emit(&mut self, pred: IdbId, args: &[ElemId], _: &IdbStore, stats: &mut EvalStats) -> bool {
        if !self.insert(pred, args) {
            stats.interned_hits += 1;
        }
        false
    }
}

/// DRed's overdeletion: a derived head still in the store joins the
/// overdeleted set and, the first time, the next round's frontier.
struct Overdelete<'a> {
    over: &'a mut [Relation],
    next: &'a mut DeltaStore,
}

impl Sink for Overdelete<'_> {
    const NEGATIVES: bool = false;

    fn emit(&mut self, pred: IdbId, args: &[ElemId], store: &IdbStore, _: &mut EvalStats) -> bool {
        if store.holds(pred, args) && self.over[pred.index()].insert(args) {
            self.next.insert(pred, args);
        }
        false
    }
}

/// The re-derivation check: the first derivation is a witness and stops
/// the pass.
struct Witness(bool);

impl Sink for Witness {
    const NEGATIVES: bool = true;

    fn emit(&mut self, _: IdbId, _: &[ElemId], _: &IdbStore, _: &mut EvalStats) -> bool {
        self.0 = true;
        true
    }
}

/// Everything a plan execution needs to look at (bundled so the recursion
/// stays within clippy's argument budget).
struct PlanCtx<'a> {
    rule: &'a Rule,
    plan: &'a JoinPlan,
    /// `Some((body index of the delta literal, delta store))` for delta
    /// passes, `None` for the unconstrained round-0 pass.
    delta: Option<(usize, &'a DeltaStore)>,
    /// `Some((body index, delta relation))` for an *extensional* delta
    /// pass — the incremental-maintenance seed pass, where one EDB body
    /// literal (a negated one read flipped) enumerates a batch's changed
    /// tuples instead of its relation. `None` everywhere else.
    edb_delta: Option<(usize, &'a Relation)>,
    /// `Some(deleted tuples, by extensional predicate)` during DRed
    /// overdeletion: the other extensional literals read their post-update
    /// relation plus these tuples — a superset of the pre-update state
    /// (the two are disjoint, so nothing is enumerated twice). `None`
    /// everywhere else.
    edb_overlay: Option<&'a [Relation]>,
    structure: &'a Structure,
    store: &'a IdbStore,
}

/// The recycled working set of the semi-naive round loop: the ping-ponged
/// per-predicate delta relations, the per-round staging relations, the
/// probe-key/head scratch buffer, and the store sizes of the last run.
/// One instance per
/// [`Evaluator`](crate::evaluator::Evaluator) session, reused across
/// evaluations (and across the strata of one stratified evaluation —
/// every stratum sub-program shares the session program's predicate
/// table, so the shapes always match), so round turnover and session
/// reuse reallocate nothing beyond amortized arena growth.
#[derive(Debug)]
pub(crate) struct SeminaiveScratch {
    delta: DeltaStore,
    next: DeltaStore,
    fresh: FreshStore,
    key: Vec<ElemId>,
    /// Facts per intensional predicate in the store of the last run that
    /// defined it: the next run presizes its store to these counts
    /// ([`IdbStore::presized`]), so a warm session's store does not grow
    /// from empty every evaluation. Per predicate, so the strata of a
    /// stratified evaluation each record and presize their own.
    store_sizes: Vec<usize>,
}

impl SeminaiveScratch {
    /// A scratch set shaped for `program`'s intensional predicates.
    pub(crate) fn new(program: &Program) -> Self {
        Self {
            delta: DeltaStore::new(program),
            next: DeltaStore::new(program),
            fresh: FreshStore::new(program),
            key: Vec::new(),
            store_sizes: vec![0; program.idb_count()],
        }
    }

    /// Empties every buffer (arena capacity is retained) so a new
    /// evaluation starts from a clean slate. The recorded store sizes
    /// stay.
    fn reset(&mut self) {
        self.delta.clear();
        self.next.clear();
        self.fresh.clear();
        self.key.clear();
    }
}

/// The semi-naive round loop over caller-owned (session-recycled) scratch
/// buffers. On a governor trip the loop unwinds after folding the staged
/// derivations in, so the returned store is a sound subset of the least
/// fixpoint; the caller reads the trip off the governor.
///
/// Profiling: the caller opens/closes the stratum
/// ([`Profiler::begin_stratum`] / [`Profiler::end_stratum`] — it knows
/// the stratum index and rule-id mapping); this loop accounts the
/// per-rule passes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_seminaive_scratch(
    program: &Program,
    structure: &Structure,
    plans: &[RulePlans],
    mut stats: EvalStats,
    scratch: &mut SeminaiveScratch,
    gov: &mut Governor<'_>,
    mut prof: Option<&mut Profiler>,
) -> (IdbStore, EvalStats) {
    scratch.reset();
    let SeminaiveScratch {
        delta,
        next,
        fresh,
        key,
        store_sizes,
    } = scratch;
    let mut store = IdbStore::presized(program, store_sizes);

    if gov.round(stats.tuples_considered, stats.facts) {
        return (store, stats);
    }

    // Round 0: all rules, unconstrained.
    stats.rounds += 1;
    for (ri, (rule, rp)) in program.rules.iter().zip(plans).enumerate() {
        let ctx = PlanCtx {
            rule,
            plan: &rp.base,
            delta: None,
            edb_delta: None,
            edb_overlay: None,
            structure,
            store: &store,
        };
        if profiled_apply(&ctx, ri, &mut stats, fresh, key, gov, &mut prof) {
            break;
        }
    }
    // Two delta stores ping-pong across rounds: `delta` is read by the
    // round while `next` collects the survivors, then they swap and the
    // stale one is cleared (arena capacity is retained).
    merge_round(&mut store, delta, fresh, &mut stats, None);

    seminaive_rounds(
        program, structure, plans, &mut stats, &mut store, delta, next, fresh, key, gov, &mut prof,
        None,
    );
    for id in defined_idbs(program) {
        store_sizes[id.index()] = store.rels[id.index()].len();
    }
    (store, stats)
}

/// The delta-driven rounds of semi-naive evaluation: while the frontier
/// is non-empty, run every rule's delta passes, fold the staged
/// derivations in, and swap the frontier buffers. Shared between
/// from-scratch evaluation ([`run_seminaive_scratch`], which seeds the
/// frontier with round 0's output) and incremental maintenance
/// ([`run_increment`], which seeds it from a base-relation delta). When
/// `added` is `Some`, every fact that enters the store is also recorded
/// in the corresponding sink relation (the maintenance path's net-change
/// ledger).
#[allow(clippy::too_many_arguments)]
fn seminaive_rounds(
    program: &Program,
    structure: &Structure,
    plans: &[RulePlans],
    stats: &mut EvalStats,
    store: &mut IdbStore,
    delta: &mut DeltaStore,
    next: &mut DeltaStore,
    fresh: &mut FreshStore,
    key: &mut Vec<ElemId>,
    gov: &mut Governor<'_>,
    prof: &mut Option<&mut Profiler>,
    mut added: Option<&mut [Relation]>,
) {
    while delta.count > 0 {
        if gov.round(stats.tuples_considered, stats.facts) {
            break;
        }
        stats.rounds += 1;
        'rules: for (ri, (rule, rp)) in program.rules.iter().zip(plans).enumerate() {
            for (dpos, plan) in &rp.delta {
                if delta.is_empty_at(rule, *dpos) {
                    continue;
                }
                let ctx = PlanCtx {
                    rule,
                    plan,
                    delta: Some((*dpos, &*delta)),
                    edb_delta: None,
                    edb_overlay: None,
                    structure,
                    store,
                };
                if profiled_apply(&ctx, ri, stats, fresh, key, gov, prof) {
                    break 'rules;
                }
            }
        }
        next.clear();
        merge_round(store, next, fresh, stats, added.as_deref_mut());
        std::mem::swap(delta, next);
    }
}

/// The extensional seed pass of incremental maintenance: every rule runs
/// once per changed extensional body literal, with that literal reading
/// the batch's changed tuples — `pos_delta` at a positive literal,
/// `neg_delta` at a negated one (run flipped) — instead of its relation.
/// Both delta vectors are indexed by extensional predicate; an empty
/// relation means "unchanged". Returns `true` when the pass stopped
/// early (a governor trip).
#[allow(clippy::too_many_arguments)]
fn edb_seed_pass<S: Sink>(
    program: &Program,
    structure: &Structure,
    store: &IdbStore,
    edb_plans: &[Vec<(usize, JoinPlan)>],
    (pos_delta, neg_delta): (&[Relation], &[Relation]),
    edb_overlay: Option<&[Relation]>,
    stats: &mut EvalStats,
    sink: &mut S,
    key: &mut Vec<ElemId>,
    gov: &mut Governor<'_>,
) -> bool {
    for (rule, rule_edb) in program.rules.iter().zip(edb_plans) {
        for (pos, plan) in rule_edb {
            let lit = &rule.body[*pos];
            let PredRef::Edb(p) = lit.atom.pred else {
                unreachable!("EDB delta plans target extensional literals")
            };
            let drel = if lit.positive {
                &pos_delta[p.index()]
            } else {
                &neg_delta[p.index()]
            };
            if drel.is_empty() {
                continue;
            }
            let ctx = PlanCtx {
                rule,
                plan,
                delta: None,
                edb_delta: Some((*pos, drel)),
                edb_overlay,
                structure,
                store,
            };
            if run_plan(&ctx, Bindings::new(rule), stats, sink, key, gov, None) {
                return true;
            }
        }
    }
    false
}

/// DRed's overdeletion phase: collects in `over` every fact of `store`
/// that some rule derives from a changed tuple, computed semi-naively
/// over the rules' positive projections (negative literals are ignored,
/// a sound over-approximation).
///
/// The seed pass reads the deleted tuples (`del`) at positive extensional
/// literals and the inserted ones (`ins`) at negated literals — an
/// insertion under a negation deletes. The delta rounds then use the
/// ordinary per-rule delta plans with the newly overdeleted facts as the
/// frontier. Extensional literals read `structure` (the post-update
/// state) plus `del`, a superset of the pre-update state; intensional
/// literals read the untouched pre-update `store`. All three choices
/// over-approximate, which is exactly what DRed needs.
///
/// On a governor trip the pass unwinds early; the caller must treat the
/// view as unmaintained.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_overdelete(
    program: &Program,
    structure: &Structure,
    plans: &[RulePlans],
    edb_plans: &[Vec<(usize, JoinPlan)>],
    (ins, del): (&[Relation], &[Relation]),
    store: &IdbStore,
    scratch: &mut SeminaiveScratch,
    gov: &mut Governor<'_>,
    stats: &mut EvalStats,
    over: &mut [Relation],
) {
    scratch.reset();
    let SeminaiveScratch {
        delta, next, key, ..
    } = scratch;
    if gov.round(stats.tuples_considered, stats.facts) {
        return;
    }
    let mut sink = Overdelete { over, next };
    if edb_seed_pass(
        program,
        structure,
        store,
        edb_plans,
        (del, ins),
        Some(del),
        stats,
        &mut sink,
        key,
        gov,
    ) {
        return;
    }
    loop {
        std::mem::swap(delta, sink.next);
        sink.next.clear();
        if delta.count == 0 || gov.round(stats.tuples_considered, stats.facts) {
            return;
        }
        for (rule, rp) in program.rules.iter().zip(plans) {
            for (dpos, plan) in &rp.delta {
                if delta.is_empty_at(rule, *dpos) {
                    continue;
                }
                let ctx = PlanCtx {
                    rule,
                    plan,
                    delta: Some((*dpos, &*delta)),
                    edb_delta: None,
                    edb_overlay: Some(del),
                    structure,
                    store,
                };
                if run_plan(&ctx, Bindings::new(rule), stats, &mut sink, key, gov, None) {
                    return;
                }
            }
        }
    }
}

/// True if `rule` derives `fact` over `structure` and `store`: the
/// rule's head-bound `plan` runs with the bindings the fact fixes and
/// stops at the first witness. Negative literals are checked. DRed's
/// re-derivation of overdeleted facts; on a governor trip the answer is
/// `false` and the caller reads the trip off the governor.
#[allow(clippy::too_many_arguments)]
pub(crate) fn derives(
    rule: &Rule,
    plan: &JoinPlan,
    fact: &[ElemId],
    structure: &Structure,
    store: &IdbStore,
    scratch: &mut SeminaiveScratch,
    gov: &mut Governor<'_>,
    stats: &mut EvalStats,
) -> bool {
    let mut bindings = Bindings::new(rule);
    if !bindings.unify(&rule.head, fact) {
        return false;
    }
    let ctx = PlanCtx {
        rule,
        plan,
        delta: None,
        edb_delta: None,
        edb_overlay: None,
        structure,
        store,
    };
    let mut witness = Witness(false);
    run_plan(
        &ctx,
        bindings,
        stats,
        &mut witness,
        &mut scratch.key,
        gov,
        None,
    );
    witness.0
}

/// One incremental re-derivation pass: semi-naive evaluation seeded from
/// a *base-relation* delta instead of round 0's full rule sweep.
///
/// The seed pass runs each rule once per changed extensional body
/// literal, on the already-updated `structure`: a positive literal reads
/// the batch's inserted tuples (`ins`), a negated literal the deleted
/// ones (`del`), since a deletion under a negation inserts. This is the
/// textbook semi-naive insertion delta, sound because a rule
/// instantiation with several changed tuples merely fires once per
/// changed literal and the store deduplicates. `seeds` (DRed's rederived
/// survivors) are staged alongside. From there the ordinary delta rounds
/// run to fixpoint. Every fact that enters the store is mirrored into
/// `added`, the maintenance ledger the caller diffs against the
/// overdeletion set.
///
/// On a governor trip the pass unwinds early; the caller must treat the
/// view as unmaintained and fall back to full re-evaluation.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_increment(
    program: &Program,
    structure: &Structure,
    plans: &[RulePlans],
    edb_plans: &[Vec<(usize, JoinPlan)>],
    (ins, del): (&[Relation], &[Relation]),
    seeds: &[(IdbId, Box<[ElemId]>)],
    store: &mut IdbStore,
    scratch: &mut SeminaiveScratch,
    gov: &mut Governor<'_>,
    stats: &mut EvalStats,
    added: &mut [Relation],
) {
    scratch.reset();
    let SeminaiveScratch {
        delta,
        next,
        fresh,
        key,
        ..
    } = scratch;
    if gov.round(stats.tuples_considered, stats.facts) {
        return;
    }
    stats.rounds += 1;
    edb_seed_pass(
        program,
        structure,
        store,
        edb_plans,
        (ins, del),
        None,
        stats,
        fresh,
        key,
        gov,
    );
    for (id, args) in seeds {
        fresh.insert(*id, args);
    }
    merge_round(store, delta, fresh, stats, Some(added));
    seminaive_rounds(
        program,
        structure,
        plans,
        stats,
        store,
        delta,
        next,
        fresh,
        key,
        gov,
        &mut None,
        Some(added),
    );
}

/// Folds a round's staged derivations into the store; survivors (genuinely
/// new facts) become the next round's delta. The store insert is the only
/// store lookup a staged fact costs: it either adds the fact (counted in
/// [`EvalStats::facts`]) or finds it already there (an interned hit, see
/// [`EvalStats::interned_hits`]). Drains the staging store. When `added`
/// is `Some`, every genuinely new fact is mirrored into the per-predicate
/// sink relations (incremental maintenance's ledger of facts added by a
/// re-derivation pass).
fn merge_round(
    store: &mut IdbStore,
    delta: &mut DeltaStore,
    fresh: &mut FreshStore,
    stats: &mut EvalStats,
    mut added: Option<&mut [Relation]>,
) {
    for (idx, staged) in fresh.rels.iter().enumerate() {
        let id = IdbId(idx as u32);
        for args in staged.iter() {
            if store.rels[idx].insert(args) {
                stats.facts += 1;
                delta.insert(id, args);
                if let Some(sink) = added.as_deref_mut() {
                    sink[idx].insert(args);
                }
            } else {
                stats.interned_hits += 1;
            }
        }
    }
    fresh.clear();
}

/// An evaluation pass ([`run_plan`] into the round's staging store) under
/// the profiler: at `Rules` detail and above, the pass is timed (on the
/// sampled passes [`Profiler::pass_timer`] selects) and its
/// [`EvalStats`] delta (plus, at `Literals`, the per-literal trace) is
/// folded into rule `ri`'s accumulator. With the profiler off (or at
/// `Strata`) this is exactly one branch on top of the plain pass — the
/// zero-cost-when-off fast path.
fn profiled_apply(
    ctx: &PlanCtx<'_>,
    ri: usize,
    stats: &mut EvalStats,
    out: &mut FreshStore,
    scratch: &mut Vec<ElemId>,
    gov: &mut Governor<'_>,
    prof: &mut Option<&mut Profiler>,
) -> bool {
    let bindings = Bindings::new(ctx.rule);
    match prof.as_deref_mut() {
        Some(p) if p.rules_on() => {
            let before = *stats;
            let timer = p.pass_timer(ri);
            p.begin_pass(ctx.rule.body.len());
            let stop = run_plan(ctx, bindings, stats, out, scratch, gov, p.trace());
            p.end_pass(
                ri,
                &before,
                stats,
                timer.map(|t| t.elapsed().as_nanos() as u64),
            );
            stop
        }
        _ => run_plan(ctx, bindings, stats, out, scratch, gov, None),
    }
}

/// Runs one rule pass from `bindings` (all unbound, or pre-seeded from a
/// head fact); returns `true` when the sink or the governor stopped it.
fn run_plan<S: Sink>(
    ctx: &PlanCtx<'_>,
    mut bindings: Bindings,
    stats: &mut EvalStats,
    sink: &mut S,
    scratch: &mut Vec<ElemId>,
    gov: &mut Governor<'_>,
    trace: Option<&mut [LitCount]>,
) -> bool {
    if S::NEGATIVES {
        for &ni in &ctx.plan.ground_negatives {
            stats.negative_checks += 1;
            if negative_holds(ctx, ni, &bindings.vals, scratch) {
                return false;
            }
        }
    }
    let execs = resolve_steps(ctx);
    descend_plan(
        ctx,
        &execs,
        0,
        &mut bindings,
        stats,
        sink,
        scratch,
        gov,
        trace,
    )
}

/// True if the *atom* of negative literal `ni` holds in the structure
/// (i.e. the literal fails). Instantiates into `scratch` — no allocation.
fn negative_holds(
    ctx: &PlanCtx<'_>,
    ni: usize,
    bindings: &[Option<ElemId>],
    scratch: &mut Vec<ElemId>,
) -> bool {
    let atom = &ctx.rule.body[ni].atom;
    instantiate_into(atom, bindings, scratch);
    match atom.pred {
        PredRef::Edb(p) => ctx.structure.holds(p, scratch),
        PredRef::Idb(_) => unreachable!(
            "negated intensional literal in the semipositive engine; \
             stratified programs run stratum by stratum"
        ),
    }
}

/// A relation a plan step enumerates, with the index its probe uses
/// (`None` for scans and for probes on every position).
type Source<'a> = (&'a Relation, Option<Arc<PosIndex>>);

/// A plan step resolved against one pass's relations: the source
/// relation, the delta exclusion (for pre-round reads), the overlay (for
/// overdeletion reads), and the probe indexes. Resolved once per
/// [`run_plan`] call so the recursive join touches no locks and clones
/// no `Arc`s.
struct StepExec<'a> {
    source: Source<'a>,
    /// `Some(delta relation)` when the step reads the pre-round store
    /// (store minus delta).
    exclude: Option<&'a Relation>,
    /// `Some(deleted tuples)` when the step also enumerates DRed's
    /// overlay after its relation.
    overlay: Option<Source<'a>>,
    /// True when the step enumerates the round's delta relation.
    from_delta: bool,
}

fn resolve_steps<'a>(ctx: &PlanCtx<'a>) -> Vec<StepExec<'a>> {
    ctx.plan
        .steps
        .iter()
        .map(|step| {
            let lit = &ctx.rule.body[step.literal];
            let mut from_delta = false;
            let mut overlay = None;
            let (rel, exclude): (&Relation, Option<&Relation>) = match lit.atom.pred {
                PredRef::Edb(p) => match ctx.edb_delta {
                    // The incremental seed pass: one EDB literal reads the
                    // batch's changed tuples instead of the base relation.
                    Some((dpos, drel)) if step.literal == dpos => {
                        from_delta = true;
                        (drel, None)
                    }
                    _ => {
                        overlay = ctx
                            .edb_overlay
                            .map(|del| &del[p.index()])
                            .filter(|r| !r.is_empty());
                        (ctx.structure.relation(p), None)
                    }
                },
                PredRef::Idb(id) => match ctx.delta {
                    None => (ctx.store.relation(id), None),
                    Some((dpos, ds)) => {
                        use std::cmp::Ordering;
                        match step.literal.cmp(&dpos) {
                            // The delta literal itself reads the frontier.
                            Ordering::Equal => {
                                from_delta = true;
                                (ds.rel(id), None)
                            }
                            // Body positions before the delta read the
                            // pre-round store, positions after read the
                            // updated store: an instantiation with several
                            // delta atoms fires exactly once, in the pass
                            // of its first delta position.
                            Ordering::Less => (ctx.store.relation(id), Some(ds.rel(id))),
                            Ordering::Greater => (ctx.store.relation(id), None),
                        }
                    }
                },
            };
            // A probe on every position is a membership test: the key is
            // the tuple, and the relation's own row table answers it.
            let source = |rel: &'a Relation| -> Source<'a> {
                match &step.access {
                    Access::Probe { positions } if positions.len() < rel.arity() => {
                        (rel, Some(rel.index_on(positions)))
                    }
                    _ => (rel, None),
                }
            };
            StepExec {
                source: source(rel),
                exclude,
                overlay: overlay.map(source),
                from_delta,
            }
        })
        .collect()
}

/// The recursive join; returns `true` when the pass should unwind — the
/// sink asked to stop, or the governor tripped (the amortized per-tuple
/// check fired).
#[allow(clippy::too_many_arguments)]
fn descend_plan<S: Sink>(
    ctx: &PlanCtx<'_>,
    execs: &[StepExec<'_>],
    step_idx: usize,
    bindings: &mut Bindings,
    stats: &mut EvalStats,
    sink: &mut S,
    scratch: &mut Vec<ElemId>,
    gov: &mut Governor<'_>,
    mut trace: Option<&mut [LitCount]>,
) -> bool {
    if step_idx == ctx.plan.steps.len() {
        stats.firings += 1;
        let PredRef::Idb(id) = ctx.rule.head.pred else {
            unreachable!("stratification rejects extensional heads")
        };
        instantiate_into(&ctx.rule.head, &bindings.vals, scratch);
        return sink.emit(id, scratch, ctx.store, stats);
    }

    let step = &ctx.plan.steps[step_idx];
    let lit = &ctx.rule.body[step.literal];
    let exec = &execs[step_idx];
    let exclude = exec.exclude;

    let on_tuple = |tuple: &[ElemId],
                    bindings: &mut Bindings,
                    stats: &mut EvalStats,
                    sink: &mut S,
                    scratch: &mut Vec<ElemId>,
                    gov: &mut Governor<'_>,
                    mut trace: Option<&mut [LitCount]>|
     -> bool {
        stats.tuples_considered += 1;
        if let Some(t) = trace.as_deref_mut() {
            t[step.literal].tuples_in += 1;
        }
        if gov.work(stats.tuples_considered, stats.facts) {
            return true;
        }
        let mut stop = false;
        let mark = bindings.trail.len();
        if bindings.unify(&lit.atom, tuple) {
            let negatives_ok = !S::NEGATIVES
                || step.negatives_after.iter().all(|&ni| {
                    stats.negative_checks += 1;
                    !negative_holds(ctx, ni, &bindings.vals, scratch)
                });
            if negatives_ok {
                if let Some(t) = trace.as_deref_mut() {
                    t[step.literal].tuples_out += 1;
                }
                stop = descend_plan(
                    ctx,
                    execs,
                    step_idx + 1,
                    bindings,
                    stats,
                    sink,
                    scratch,
                    gov,
                    trace,
                );
            }
        }
        bindings.undo_to(mark);
        stop
    };

    match &step.access {
        Access::Scan if !exec.from_delta => stats.full_scans += 1,
        Access::Scan => {}
        Access::Probe { .. } => stats.index_probes += 1,
    }
    // The step's relation, then (overdeletion only) its overlay of
    // deleted tuples.
    for (rel, index) in std::iter::once(&exec.source).chain(&exec.overlay) {
        match &step.access {
            Access::Scan => {
                for row in 0..rel.len() as u32 {
                    let tuple = rel.tuple(row);
                    if exclude.is_some_and(|d| d.contains(tuple)) {
                        continue;
                    }
                    if on_tuple(
                        tuple,
                        bindings,
                        stats,
                        sink,
                        scratch,
                        gov,
                        trace.as_deref_mut(),
                    ) {
                        return true;
                    }
                }
            }
            Access::Probe { positions } => {
                // Build the probe key in the shared scratch buffer: its
                // use ends at `rows_matching` (the row slice borrows the
                // index, not the key), so deeper recursion levels can
                // reuse it.
                scratch.clear();
                for &p in positions {
                    scratch.push(match lit.atom.terms[p] {
                        Term::Const(c) => c,
                        Term::Var(v) => {
                            bindings.vals[v.index()].expect("planner binds key positions")
                        }
                    });
                }
                let member;
                let rows = match index {
                    Some(index) => rel.rows_matching(index, scratch),
                    None => {
                        member = rel.row_of(scratch);
                        member.as_slice()
                    }
                };
                for &row in rows {
                    let tuple = rel.tuple(row);
                    if exclude.is_some_and(|d| d.contains(tuple)) {
                        continue;
                    }
                    if on_tuple(
                        tuple,
                        bindings,
                        stats,
                        sink,
                        scratch,
                        gov,
                        trace.as_deref_mut(),
                    ) {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// One pass's variable bindings, plus the trail of the variables the
/// current join prefix bound, in binding order. Backtracking truncates
/// the trail back to a mark, so matching a candidate tuple allocates
/// nothing (the trail never outgrows the rule's variable count).
struct Bindings {
    vals: Vec<Option<ElemId>>,
    trail: Vec<Var>,
}

impl Bindings {
    /// All of `rule`'s variables unbound.
    fn new(rule: &Rule) -> Self {
        let n = rule.var_count as usize;
        Self {
            vals: vec![None; n],
            trail: Vec::with_capacity(n),
        }
    }

    /// Tries to unify `atom` with `tuple` under the current bindings,
    /// binding (and trailing) its unbound variables. On failure only this
    /// call's bindings are undone.
    fn unify(&mut self, atom: &Atom, tuple: &[ElemId]) -> bool {
        debug_assert_eq!(atom.terms.len(), tuple.len());
        let mark = self.trail.len();
        for (term, &value) in atom.terms.iter().zip(tuple) {
            let ok = match term {
                Term::Const(c) => *c == value,
                Term::Var(v) => match self.vals[v.index()] {
                    Some(bound) => bound == value,
                    None => {
                        self.vals[v.index()] = Some(value);
                        self.trail.push(*v);
                        true
                    }
                },
            };
            if !ok {
                self.undo_to(mark);
                return false;
            }
        }
        true
    }

    /// Unbinds every variable trailed after `mark`.
    #[inline]
    fn undo_to(&mut self, mark: usize) {
        for v in self.trail.drain(mark..) {
            self.vals[v.index()] = None;
        }
    }
}

/// Instantiates an atom under complete bindings into a reusable buffer
/// (the zero-allocation twin of [`instantiate`], used by the indexed
/// engine's derive path).
///
/// # Panics
/// Panics if a variable of the atom is unbound (plan safety guarantees
/// all are).
#[inline]
pub(crate) fn instantiate_into(atom: &Atom, bindings: &[Option<ElemId>], out: &mut Vec<ElemId>) {
    out.clear();
    for t in &atom.terms {
        out.push(match t {
            Term::Const(c) => *c,
            Term::Var(v) => bindings[v.index()].expect("safe rule: atom fully bound"),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{Engine, EvalError, EvalOptions, Evaluator};
    use crate::ground::FdCatalog;
    use crate::parser::parse_program;
    use mdtw_structure::{Domain, Signature};
    use std::sync::Arc;

    fn chain(n: usize) -> Structure {
        let sig = Arc::new(Signature::from_pairs([("e", 2)]));
        let dom = Domain::anonymous(n);
        let mut s = Structure::new(sig, dom);
        let e = s.signature().lookup("e").unwrap();
        for i in 0..n - 1 {
            s.insert(e, &[ElemId(i as u32), ElemId(i as u32 + 1)]);
        }
        s
    }

    /// One evaluation of `p` over `s` by a fresh default session.
    fn eval(p: &Program, s: &Structure) -> (IdbStore, EvalStats) {
        let result = Evaluator::new(p.clone()).unwrap().evaluate(s).unwrap();
        (result.store, result.stats)
    }

    /// The test-support oracle's least model of `src` over `s` (parsed
    /// again by the oracle's own build of this crate).
    fn oracle(src: &str, s: &Structure) -> mdtw_tests::NaiveModel {
        let p = mdtw_tests::mdtw_datalog::parse_program(src, s).unwrap();
        mdtw_tests::naive_model(&p, s)
    }

    const TC: &str = "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).";
    const TC_NONLINEAR: &str = "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), path(Y, Z).";

    #[test]
    fn transitive_closure_naive() {
        let s = chain(5);
        let path = parse_program(TC, &s).unwrap().idb("path").unwrap();
        let model = &oracle(TC, &s).relations[path.index()];
        assert_eq!(model.len(), 4 + 3 + 2 + 1);
        assert!(model.contains(&vec![ElemId(0), ElemId(4)]));
        assert!(!model.contains(&vec![ElemId(4), ElemId(0)]));
    }

    #[test]
    fn seminaive_agrees_with_naive() {
        let s = chain(7);
        let p = parse_program(TC, &s).unwrap();
        let (semi, stats) = eval(&p, &s);
        let path = p.idb("path").unwrap();
        let model = &oracle(TC, &s).relations[path.index()];
        assert_eq!(&semi.tuples(path), model);
        assert_eq!(stats.facts, model.len());
    }

    /// Naive evaluation re-fires every satisfied instantiation in every
    /// round; semi-naive evaluation fires each exactly once, so its firing
    /// count is the oracle's instantiation count.
    #[test]
    fn seminaive_fires_less_than_naive() {
        let s = chain(12);
        let p = parse_program(TC, &s).unwrap();
        let (_, semi_stats) = eval(&p, &s);
        let model = oracle(TC, &s);
        assert_eq!(semi_stats.firings, model.instantiations);
        assert_eq!(semi_stats.facts, model.relations.iter().map(Vec::len).sum());
    }

    /// Regression test for the semi-naive double-firing bug: with a rule
    /// carrying two intensional body atoms, running one delta pass per
    /// position against the already-updated store fires an instantiation
    /// whose atoms both match delta tuples once per pass. The rule split
    /// fires it exactly once.
    ///
    /// On the 4-chain with nonlinear transitive closure the counts are
    /// small enough to pin exactly. Round 0 fires the base rule 3 times;
    /// round 1 joins the delta {p01,p12,p23} with itself — instantiations
    /// (p01,p12) and (p12,p23) are all-delta and fire once each (2
    /// firings); round 2 has two genuinely distinct derivations of p03
    /// (via p02⋈p23 and p01⋈p13); round 3 fires nothing. Total 3+2+2 = 7,
    /// the oracle's instantiation count.
    #[test]
    fn two_idb_atoms_fire_once_per_instantiation() {
        let s = chain(4);
        let p = parse_program(TC_NONLINEAR, &s).unwrap();
        let (store, indexed) = eval(&p, &s);
        let model = oracle(TC_NONLINEAR, &s);
        let path = p.idb("path").unwrap();
        assert_eq!(store.tuples(path), model.relations[path.index()]);
        assert_eq!(indexed.facts, 6);
        assert_eq!(
            indexed.firings, 7,
            "rule split must fire all-delta instantiations once"
        );
        assert_eq!(indexed.firings, model.instantiations);
    }

    /// On delta-bound literals the indexed engine must probe, not scan:
    /// the only full-relation scans of the whole linear-TC evaluation are
    /// the two round-0 scans (one per rule's first literal).
    #[test]
    fn delta_passes_probe_instead_of_scanning() {
        let s = chain(50);
        let p = parse_program(TC, &s).unwrap();
        let (_, stats) = eval(&p, &s);
        assert_eq!(
            stats.full_scans, 2,
            "only the unconstrained round-0 scans remain"
        );
        assert!(stats.index_probes > 0);
        // Each round's recursive pass probes `e` once per delta tuple, so
        // the work stays proportional to the output, not |store| × |e|.
        assert!(stats.tuples_considered < 5 * stats.facts + 100);
    }

    #[test]
    fn negation_on_edb() {
        let s = chain(4);
        let p = parse_program(
            "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).\n\
             skip(X, Y) :- path(X, Y), !e(X, Y).",
            &s,
        )
        .unwrap();
        let (store, _) = eval(&p, &s);
        let skip = p.idb("skip").unwrap();
        assert!(store.holds(skip, &[ElemId(0), ElemId(2)]));
        assert!(!store.holds(skip, &[ElemId(0), ElemId(1)]));
    }

    /// The parser accepts stratified programs, so the semipositive-only
    /// quasi-guarded engine must reject a negated intensional atom at
    /// session construction with a typed error, not a panic or an
    /// `unreachable!` mid-evaluation.
    #[test]
    fn semipositive_engine_rejects_stratified_programs_with_typed_error() {
        let s = chain(3);
        let p = parse_program("q(X) :- e(X, Y), !r(X). r(X) :- e(X, X).", &s).unwrap();
        let options = EvalOptions::new().fd_catalog(FdCatalog::new());
        let err = Evaluator::with_options(p, options).unwrap_err();
        let engine = Engine::QuasiGuarded;
        assert_eq!(err, EvalError::NeedsStratifiedEngine { engine, strata: 2 });
        assert!(err.to_string().contains("semipositive programs only"));
    }

    #[test]
    fn zero_ary_goal() {
        let s = chain(3);
        let p = parse_program(
            "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).\n\
             reachable :- path(x0, x2).",
            &s,
        )
        .unwrap();
        let (store, _) = eval(&p, &s);
        let g = p.idb("reachable").unwrap();
        assert!(store.holds(g, &[]));
    }

    #[test]
    fn constants_in_rules() {
        let s = chain(4);
        let p = parse_program("from_start(Y) :- e(x0, Y).", &s).unwrap();
        let (store, _) = eval(&p, &s);
        let q = p.idb("from_start").unwrap();
        assert_eq!(store.unary(q), vec![ElemId(1)]);
    }

    #[test]
    fn facts_in_program() {
        let s = chain(3);
        let p = parse_program("mark(x1). marked2(X) :- mark(X), e(X, Y).", &s).unwrap();
        let (store, _) = eval(&p, &s);
        let m2 = p.idb("marked2").unwrap();
        assert_eq!(store.unary(m2), vec![ElemId(1)]);
    }

    #[test]
    fn repeated_variables_filter() {
        let sig = Arc::new(Signature::from_pairs([("e", 2)]));
        let dom = Domain::anonymous(3);
        let mut s = Structure::new(sig, dom);
        let e = s.signature().lookup("e").unwrap();
        s.insert(e, &[ElemId(0), ElemId(0)]);
        s.insert(e, &[ElemId(0), ElemId(1)]);
        let p = parse_program("loop(X) :- e(X, X).", &s).unwrap();
        let (store, _) = eval(&p, &s);
        let l = p.idb("loop").unwrap();
        assert_eq!(store.unary(l), vec![ElemId(0)]);
    }

    #[test]
    fn empty_relation_derives_nothing() {
        let sig = Arc::new(Signature::from_pairs([("e", 2)]));
        let dom = Domain::anonymous(2);
        let s = Structure::new(sig, dom);
        let p = parse_program(TC, &s).unwrap();
        let (store, stats) = eval(&p, &s);
        assert_eq!(store.fact_count(), 0);
        assert_eq!(stats.facts, 0);
    }

    #[test]
    fn holds_named_uses_interned_names() {
        let s = chain(4);
        let p = parse_program(TC, &s).unwrap();
        let (store, _) = eval(&p, &s);
        assert!(store.holds_named("path", &[ElemId(0), ElemId(3)]));
        assert!(!store.holds_named("path", &[ElemId(3), ElemId(0)]));
        assert!(!store.holds_named("no_such_predicate", &[ElemId(0)]));
    }

    /// A tuple of the wrong arity is not in the model, in debug and
    /// release builds alike, through the store and through a maintained
    /// view.
    #[test]
    fn holds_named_is_false_for_wrong_arity() {
        let s = chain(4);
        let p = parse_program(TC, &s).unwrap();
        let (store, _) = eval(&p, &s);
        let view = Evaluator::new(p).unwrap().materialize(&s).unwrap();
        for args in [&[ElemId(0)][..], &[], &[ElemId(0), ElemId(1), ElemId(2)]] {
            assert!(!store.holds_named("path", args), "{args:?}");
            assert!(!view.holds("path", args), "{args:?}");
        }
        assert!(view.holds("path", &[ElemId(0), ElemId(1)]));
    }

    #[test]
    fn mutual_recursion_same_fixpoint_across_engines() {
        let sig = Arc::new(Signature::from_pairs([("succ", 2), ("zero", 1)]));
        let dom = Domain::anonymous(8);
        let mut s = Structure::new(sig, dom);
        let succ = s.signature().lookup("succ").unwrap();
        let zero = s.signature().lookup("zero").unwrap();
        s.insert(zero, &[ElemId(0)]);
        for i in 0..7u32 {
            s.insert(succ, &[ElemId(i), ElemId(i + 1)]);
        }
        let src = "even(X) :- zero(X).\nodd(Y) :- even(X), succ(X, Y).\n\
                   even(Y) :- odd(X), succ(X, Y).";
        let p = parse_program(src, &s).unwrap();
        let model = oracle(src, &s);
        let (indexed, _) = eval(&p, &s);
        let mut catalog = FdCatalog::new();
        catalog.declare(succ, vec![0], vec![1]);
        catalog.declare(succ, vec![1], vec![0]);
        let quasi_guarded =
            Evaluator::with_options(p.clone(), EvalOptions::new().fd_catalog(catalog))
                .unwrap()
                .evaluate(&s)
                .unwrap()
                .store;
        for name in ["even", "odd"] {
            let id = p.idb(name).unwrap();
            assert_eq!(indexed.tuples(id), model.relations[id.index()], "{name}");
            assert_eq!(
                quasi_guarded.tuples(id),
                model.relations[id.index()],
                "{name}"
            );
        }
    }
}
