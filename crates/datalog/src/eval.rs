//! Bottom-up evaluation: the semi-naive least-fixpoint computation of
//! semipositive datalog over a finite structure (paper §2.4). The entry
//! point is an [`Evaluator`](crate::evaluator::Evaluator) session running
//! [`Engine::SemiNaiveIndexed`](crate::evaluator::Engine::SemiNaiveIndexed):
//! per-rule join plans (module [`plan`](crate::plan)) probe lazily built
//! secondary indexes ([`mdtw_structure::PosIndex`]) instead of scanning
//! whole relations, and rules with several intensional body atoms use the
//! textbook semi-naive split — for the delta at body position *i*,
//! positions before *i* read the pre-round store and positions after read
//! the updated store — so every rule instantiation fires exactly once.
//!
//! # A round's delta is a row range of the store
//!
//! Store rows are dense ids in insertion order, and a fixpoint only
//! inserts, so a predicate's delta is the rows `[lo, hi)` the previous
//! round appended (timestamped semi-naive evaluation). A round's heads go
//! into one flat, unhashed buffer, and the store insert that merges them
//! is their only deduplication: one hash lookup per derived fact. In a
//! delta pass the delta literal reads rows `≥ lo`, intensional literals
//! before it read rows `< lo` (an integer compare per row), and every
//! other literal reads all rows. A scan iterates its range, an index
//! probe cuts its bucket once with `partition_point`, and a probe on
//! every position compares the row id it finds.
//!
//! The cut is exact after retracts too. A retract swap-removes, which
//! reorders rows that already exist, and incremental maintenance retracts
//! before its insertion fixpoint starts. From then on the old rows all
//! keep ids `< lo`, in whatever order a [`PosIndex`] bucket lists them,
//! and each new row gets an id `≥ lo` and is appended to its bucket. So
//! every bucket is partitioned at `lo`, and at each later round boundary.
//! DRed's overdeletion only appends to the overdeleted set: its frontier
//! is a row range of that set, and the literals before the delta position
//! skip a store tuple whose row there lies in the frontier.
//!
//! The compiled-plan join loop is also the only join executor of
//! incremental maintenance ([`incremental`](crate::incremental)): its
//! leaf action is a statically dispatched sink, which buffers derived
//! heads during evaluation and overdeletion, or stops at the first
//! re-derivation of a fact. Only overdeletion's sink reads DRed's
//! overlay of deleted tuples; every other pass walks one row source per
//! step.
//!
//! # A plan is resolved once per phase
//!
//! Before a join runs, each step of its plan is resolved against the
//! relations it reads: the relation, the row range, the probe's index.
//! That happens once per pass of a semi-naive round, and once per rule
//! for all the overdeleted facts DRed re-derives, never once per fact.
//! A pass takes its bindings and its step buffer from the session's
//! scratch buffers, so it allocates nothing once the buffers have
//! grown. The index handles of extensional probes are looked up once per
//! phase (an evaluation, or a maintenance phase) and borrowed by every
//! pass after; only probes of relations that change between passes (the
//! store, the overdeleted set, a batch's delta) look theirs up per pass.
//!
//! The *linear-time* evaluation of quasi-guarded programs (Theorem 4.4)
//! lives in the `ground` and `horn` modules.

use crate::ast::{Atom, IdbId, PredRef, Program, Rule, Term, Var};
use crate::limits::Governor;
use crate::plan::{Access, JoinPlan, RulePlans};
use crate::profile::{LitCount, Profiler};
use mdtw_structure::fx::FxHashMap;
use mdtw_structure::{ElemId, PosIndex, Relation, Structure};
use std::ops::Range;
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

/// Evaluation statistics (for the linearity experiments, the pinned
/// work counters of `eval_stats_pin` and the `perfbench` layer split).
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
    /// allocating new storage. Every duplicate is counted when the round's
    /// heads are merged into the store: a head already stored, and a head
    /// derived earlier in the same round. `interned_hits + facts` equals
    /// the number of firings with an intensional head.
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

/// Derived heads in derivation order: a flat buffer the derive sink
/// appends to without hashing. The round's merge inserts them into the
/// store ([`Heads::drain_into`]), and that insert is the only
/// deduplication a head costs. DRed's re-derivation collects its
/// survivors in one as well. Recycled across rounds.
#[derive(Debug, Default)]
struct Heads {
    preds: Vec<IdbId>,
    /// The heads' argument cells, back to back (a head of `pred` takes
    /// `pred`'s arity of them).
    cells: Vec<ElemId>,
}

impl Heads {
    #[inline]
    fn push(&mut self, pred: IdbId, args: &[ElemId]) {
        self.preds.push(pred);
        self.cells.extend_from_slice(args);
    }

    fn clear(&mut self) {
        self.preds.clear();
        self.cells.clear();
    }

    /// Inserts the buffered heads into `rels` (indexed by intensional
    /// predicate) in derivation order, telling `inserted` for each whether
    /// it was new, and empties the buffer.
    fn drain_into(&mut self, rels: &mut [Relation], mut inserted: impl FnMut(bool)) {
        let mut at = 0;
        for id in &self.preds {
            let rel = &mut rels[id.index()];
            let end = at + rel.arity();
            inserted(rel.insert(&self.cells[at..end]));
            at = end;
        }
        self.clear();
    }
}

/// Starts each predicate's frontier at the end of its relation in `rels`:
/// only rows added from now on can enter it.
fn open_frontier(frontier: &mut Vec<Range<u32>>, rels: &[Relation]) {
    frontier.clear();
    frontier.extend(rels.iter().map(|rel| rel.len() as u32..rel.len() as u32));
}

/// Moves each predicate's frontier past the rows it covered, onto the rows
/// its relation in `rels` gained since: after a merge, exactly the facts
/// the round added.
fn advance(frontier: &mut [Range<u32>], rels: &[Relation]) {
    for (range, rel) in frontier.iter_mut().zip(rels) {
        *range = range.end..rel.len() as u32;
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

    /// Whether the pass reads DRed's pre-update state: extensional steps
    /// also enumerate the overlay of deleted tuples, and intensional
    /// steps before the delta position skip the overdeletion frontier.
    /// Only overdeletion does; every other pass walks one row source per
    /// step and tests nothing per tuple for it.
    const OVERLAY: bool;

    /// Handles the head fact `pred(args)` of one complete instantiation
    /// (`store` is the store the pass reads, for sinks that filter against
    /// it); returns `true` to stop the pass.
    fn emit(&mut self, pred: IdbId, args: &[ElemId], store: &IdbStore) -> bool;
}

/// Evaluation buffers each derived head for the round's merge, which
/// counts it as a new fact or a duplicate.
impl Sink for Heads {
    const NEGATIVES: bool = true;
    const OVERLAY: bool = false;

    #[inline]
    fn emit(&mut self, pred: IdbId, args: &[ElemId], _: &IdbStore) -> bool {
        self.push(pred, args);
        false
    }
}

/// DRed's overdeletion: a derived head still in the store is buffered for
/// the overdeleted set; the merge adds it there, and the first time, to
/// the next round's frontier.
struct Overdelete<'a>(&'a mut Heads);

impl Sink for Overdelete<'_> {
    const NEGATIVES: bool = false;
    const OVERLAY: bool = true;

    fn emit(&mut self, pred: IdbId, args: &[ElemId], store: &IdbStore) -> bool {
        if store.holds(pred, args) {
            self.0.push(pred, args);
        }
        false
    }
}

/// DRed's re-derivation check of one overdeleted fact, whose values the
/// head-bound plan starts with bound: the first derivation is a witness
/// and stops the search for that fact.
struct Witness(bool);

impl Sink for Witness {
    const NEGATIVES: bool = true;
    const OVERLAY: bool = false;

    fn emit(&mut self, _: IdbId, _: &[ElemId], _: &IdbStore) -> bool {
        self.0 = true;
        true
    }
}

/// The frontier a delta pass reads: per intensional predicate, the rows
/// `[lo, hi)` the previous round added.
#[derive(Clone, Copy)]
struct Frontier<'a> {
    ranges: &'a [Range<u32>],
    /// `None` when the frontier rows are rows of the store (evaluation and
    /// DRed's insertion phase); `Some(overdeleted)` for DRed's
    /// overdeletion, whose frontier rows are rows of the overdeleted set.
    over: Option<&'a [Relation]>,
}

/// Everything a plan execution needs to look at (bundled so the recursion
/// stays within clippy's argument budget).
struct PlanCtx<'a> {
    rule: &'a Rule,
    plan: &'a JoinPlan,
    /// `Some((body index of the delta literal, frontier))` for delta
    /// passes, `None` for the unconstrained round-0 pass.
    delta: Option<(usize, Frontier<'a>)>,
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

/// The buffers a plan pass works in, recycled across passes so a pass
/// allocates nothing once they have grown to the largest rule.
#[derive(Debug, Default)]
struct PassBuffers {
    /// Probe keys, negative-literal instances and derived heads.
    key: Vec<ElemId>,
    bindings: Bindings,
    /// The running pass's resolved steps; empty between passes.
    steps: Vec<StepExec<'static>>,
    /// Index handles the running pass took from relations that change
    /// between its passes (the store, the overdeleted set, a batch's
    /// delta, DRed's overlay); dropped when it ends.
    pins: Vec<Arc<PosIndex>>,
    /// The phase's extensional index handles: one slot per step of every
    /// delta plan of the phase's plan set ([`open_edb_table`]), filled on
    /// first use and dropped when the phase ends, so the structure's
    /// indexes are looked up once per phase rather than once per pass. A
    /// pass outside the table (round 0, a seed pass, a re-derivation)
    /// resolves into slots past its end, dropped when the pass ends.
    edb: Vec<Option<Arc<PosIndex>>>,
}

/// Lays out `edb` for the delta plans of `plans`: per rule, each delta
/// plan's steps in turn, every slot empty. [`delta_passes`] walks it in
/// the same order.
fn open_edb_table(edb: &mut Vec<Option<Arc<PosIndex>>>, plans: &[RulePlans]) {
    let slots = plans
        .iter()
        .flat_map(|rp| &rp.delta)
        .map(|(_, plan)| plan.steps.len())
        .sum();
    edb.clear();
    edb.resize(slots, None);
}

/// The recycled working set of the semi-naive round loop: the round's
/// head buffer (every run drains it, also when a governor trip cuts a
/// pass short), the per-predicate frontier row ranges, the pass buffers,
/// DRed's re-derived survivors with their per-fact marks, and the store
/// sizes of the last run.
/// One instance per
/// [`Evaluator`](crate::evaluator::Evaluator) session, reused across
/// evaluations (and across the strata of one stratified evaluation —
/// every stratum sub-program shares the session program's predicate
/// table, so the shapes always match), so round turnover and session
/// reuse reallocate nothing beyond amortized store growth.
#[derive(Debug)]
pub(crate) struct SeminaiveScratch {
    heads: Heads,
    frontier: Vec<Range<u32>>,
    pass: PassBuffers,
    /// The overdeleted facts re-derivation found a witness for, in
    /// predicate and row order of the overdeleted set: the seeds of the
    /// insertion phase.
    seeds: Heads,
    /// Per overdeleted fact of the predicate being re-derived: whether an
    /// earlier rule already re-derived it.
    rederived: Vec<bool>,
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
            heads: Heads::default(),
            frontier: Vec::new(),
            pass: PassBuffers::default(),
            seeds: Heads::default(),
            rederived: Vec::new(),
            store_sizes: vec![0; program.idb_count()],
        }
    }
}

/// The semi-naive round loop over caller-owned (session-recycled) scratch
/// buffers. On a governor trip the loop unwinds after merging the heads
/// derived so far, so the returned store is a sound subset of the least
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
    let SeminaiveScratch {
        heads,
        frontier,
        pass,
        store_sizes,
        ..
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
        if profiled_apply(&ctx, None, ri, &mut stats, heads, pass, gov, &mut prof) {
            break;
        }
    }
    open_frontier(frontier, &store.rels);
    merge_round(&mut store, heads, &mut stats);
    advance(frontier, &store.rels);

    open_edb_table(&mut pass.edb, plans);
    seminaive_rounds(
        program, structure, plans, &mut stats, &mut store, frontier, heads, pass, gov, &mut prof,
    );
    pass.edb.clear();
    for id in defined_idbs(program) {
        store_sizes[id.index()] = store.rels[id.index()].len();
    }
    (store, stats)
}

/// The delta-driven rounds of semi-naive evaluation: while the frontier
/// holds a row, run every rule's delta passes, merge the round's heads
/// into the store, and move the frontier onto the rows they added. Shared
/// between from-scratch evaluation ([`run_seminaive_scratch`], whose
/// frontier is round 0's output) and incremental maintenance
/// ([`run_increment`], whose frontier is the seed pass's output). The
/// caller lays out the extensional index table for `plans`.
#[allow(clippy::too_many_arguments)]
fn seminaive_rounds(
    program: &Program,
    structure: &Structure,
    plans: &[RulePlans],
    stats: &mut EvalStats,
    store: &mut IdbStore,
    frontier: &mut [Range<u32>],
    heads: &mut Heads,
    pass: &mut PassBuffers,
    gov: &mut Governor<'_>,
    prof: &mut Option<&mut Profiler>,
) {
    while !frontier.iter().all(Range::is_empty) {
        if gov.round(stats.tuples_considered, stats.facts) {
            break;
        }
        stats.rounds += 1;
        let rows = Frontier {
            ranges: frontier,
            over: None,
        };
        delta_passes(
            program, structure, plans, store, rows, None, stats, heads, pass, gov, prof,
        );
        merge_round(store, heads, stats);
        advance(frontier, &store.rels);
    }
}

/// One round's delta passes: every rule's delta plans whose literal's
/// frontier holds a row, with `sink` taking the derived heads. Each pass
/// reads its extensional index handles from the table [`open_edb_table`]
/// laid out for `plans`. Returns `true` when a pass stopped early (a
/// governor trip).
#[allow(clippy::too_many_arguments)]
fn delta_passes<S: Sink>(
    program: &Program,
    structure: &Structure,
    plans: &[RulePlans],
    store: &IdbStore,
    frontier: Frontier<'_>,
    edb_overlay: Option<&[Relation]>,
    stats: &mut EvalStats,
    sink: &mut S,
    pass: &mut PassBuffers,
    gov: &mut Governor<'_>,
    prof: &mut Option<&mut Profiler>,
) -> bool {
    let mut at = 0;
    for (ri, (rule, rp)) in program.rules.iter().zip(plans).enumerate() {
        for (dpos, plan) in &rp.delta {
            let slots = at;
            at += plan.steps.len();
            let PredRef::Idb(id) = rule.body[*dpos].atom.pred else {
                unreachable!("delta plans target intensional literals")
            };
            if frontier.ranges[id.index()].is_empty() {
                continue;
            }
            let ctx = PlanCtx {
                rule,
                plan,
                delta: Some((*dpos, frontier)),
                edb_delta: None,
                edb_overlay,
                structure,
                store,
            };
            if profiled_apply(&ctx, Some(slots), ri, stats, sink, pass, gov, prof) {
                return true;
            }
        }
    }
    false
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
    pass: &mut PassBuffers,
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
            if run_plan(&ctx, None, stats, sink, pass, gov, None) {
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
/// frontier. `over` only grows, so that frontier is a row range of
/// `over`, and the intensional literals before the delta position skip a
/// store tuple whose row in `over` lies in it. Extensional literals read
/// `structure` (the post-update state) plus `del`, a superset of the
/// pre-update state; intensional literals read the untouched pre-update
/// `store`. All three choices over-approximate, which is exactly what
/// DRed needs.
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
    let SeminaiveScratch {
        heads,
        frontier,
        pass,
        ..
    } = scratch;
    if gov.round(stats.tuples_considered, stats.facts) {
        return;
    }
    open_frontier(frontier, over);
    let mut sink = Overdelete(heads);
    let mut stopped = edb_seed_pass(
        program,
        structure,
        store,
        edb_plans,
        (del, ins),
        Some(del),
        stats,
        &mut sink,
        pass,
        gov,
    );
    open_edb_table(&mut pass.edb, plans);
    loop {
        sink.0.drain_into(over, |_| ());
        advance(frontier, over);
        if stopped
            || frontier.iter().all(Range::is_empty)
            || gov.round(stats.tuples_considered, stats.facts)
        {
            break;
        }
        let rows = Frontier {
            ranges: frontier,
            over: Some(over),
        };
        stopped = delta_passes(
            program,
            structure,
            plans,
            store,
            rows,
            Some(del),
            stats,
            &mut sink,
            pass,
            gov,
            &mut None,
        );
    }
    pass.edb.clear();
}

/// DRed's re-derivation phase: collects in the scratch's seeds every fact
/// of the overdeleted set `over` that some rule derives over `structure`
/// (post-update) and `store` (overdeleted facts removed), negative
/// literals checked. Rule at a time: each rule's head-bound plan is
/// resolved once and runs over every overdeleted fact of its head
/// predicate that no earlier rule re-derived, with the bindings reset to
/// the fact's values and the search stopped at the first witness. Every
/// (fact, rule) pair is tried exactly when a fact-at-a-time search over
/// the rules in order would try it, and the seeds come out in predicate
/// and row order of `over`.
///
/// On a governor trip the phase unwinds early; the caller must treat the
/// view as unmaintained.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_rederive(
    program: &Program,
    structure: &Structure,
    head_plans: &[JoinPlan],
    over: &[Relation],
    store: &IdbStore,
    scratch: &mut SeminaiveScratch,
    gov: &mut Governor<'_>,
    stats: &mut EvalStats,
) {
    let SeminaiveScratch {
        pass,
        seeds,
        rederived,
        ..
    } = scratch;
    seeds.clear();
    for (i, facts) in over.iter().enumerate() {
        let id = IdbId(i as u32);
        rederived.clear();
        rederived.resize(facts.len(), false);
        for (rule, plan) in program.rules.iter().zip(head_plans) {
            if rule.head.pred != PredRef::Idb(id) || rederived.iter().all(|&done| done) {
                continue;
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
            pass.bindings.reset(rule);
            let tripped = with_resolved(&ctx, None, pass, |execs, bindings, key| {
                for (row, done) in rederived.iter_mut().enumerate() {
                    if *done || !bindings.unify(&rule.head, facts.tuple(row as u32)) {
                        continue;
                    }
                    let mut witness = Witness(false);
                    let stop = !negatives_fail(&ctx, &plan.ground_negatives, bindings, stats, key)
                        && descend_plan(
                            &ctx,
                            execs,
                            0,
                            bindings,
                            stats,
                            &mut witness,
                            key,
                            gov,
                            None,
                        );
                    bindings.undo_to(0);
                    if stop && !witness.0 {
                        return true;
                    }
                    *done = witness.0;
                }
                false
            });
            if tripped {
                return;
            }
        }
        for (row, _) in rederived.iter().enumerate().filter(|(_, &done)| done) {
            seeds.push(id, facts.tuple(row as u32));
        }
    }
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
/// changed literal and the store deduplicates. The seeds
/// [`run_rederive`] left in the scratch (DRed's rederived survivors) join
/// the store after the pass's heads. From there the ordinary delta
/// rounds run to fixpoint. The pass only appends to `store`, so the facts
/// it added are exactly each relation's rows from its length at the call
/// on: the maintenance ledger the caller diffs against the overdeletion
/// set.
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
    store: &mut IdbStore,
    scratch: &mut SeminaiveScratch,
    gov: &mut Governor<'_>,
    stats: &mut EvalStats,
) {
    let SeminaiveScratch {
        heads,
        frontier,
        pass,
        seeds,
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
        heads,
        pass,
        gov,
    );
    open_frontier(frontier, &store.rels);
    merge_round(store, heads, stats);
    // A seed the pass derived as well is already in; it fired no rule, so
    // it is no duplicate either.
    seeds.drain_into(&mut store.rels, |new| {
        if new {
            stats.facts += 1;
        }
    });
    advance(frontier, &store.rels);
    open_edb_table(&mut pass.edb, plans);
    seminaive_rounds(
        program, structure, plans, stats, store, frontier, heads, pass, gov, &mut None,
    );
    pass.edb.clear();
}

/// Inserts a round's heads into the store in derivation order. The
/// insert is the only store lookup a head costs: it adds a new fact
/// (counted in [`EvalStats::facts`]) or finds a duplicate — of a fact
/// stored earlier or of an earlier head of the same round — counted in
/// [`EvalStats::interned_hits`]. Only appends, so the facts a round adds
/// are each relation's rows past its length before the merge.
fn merge_round(store: &mut IdbStore, heads: &mut Heads, stats: &mut EvalStats) {
    heads.drain_into(&mut store.rels, |new| {
        if new {
            stats.facts += 1;
        } else {
            stats.interned_hits += 1;
        }
    });
}

/// An evaluation pass ([`run_plan`] into `out`) under the profiler: the
/// pass is timed (on the sampled passes [`Profiler::pass_timer`]
/// selects) and its [`EvalStats`] delta and per-literal trace are folded
/// into rule `ri`'s accumulator. With the profiler off this is exactly
/// one branch on top of the plain pass — the zero-cost-when-off fast
/// path.
#[allow(clippy::too_many_arguments)]
fn profiled_apply<S: Sink>(
    ctx: &PlanCtx<'_>,
    slots: Option<usize>,
    ri: usize,
    stats: &mut EvalStats,
    out: &mut S,
    pass: &mut PassBuffers,
    gov: &mut Governor<'_>,
    prof: &mut Option<&mut Profiler>,
) -> bool {
    match prof.as_deref_mut() {
        Some(p) => {
            let before = *stats;
            let timer = p.pass_timer(ri);
            p.begin_pass(ctx.rule.body.len());
            let stop = run_plan(ctx, slots, stats, out, pass, gov, Some(p.trace()));
            p.end_pass(
                ri,
                &before,
                stats,
                timer.map(|t| t.elapsed().as_nanos() as u64),
            );
            stop
        }
        None => run_plan(ctx, slots, stats, out, pass, gov, None),
    }
}

/// Runs one rule pass from unbound variables; returns `true` when the
/// sink or the governor stopped it. `slots` is where the pass's steps
/// start in the phase's extensional index table, `None` for a pass
/// outside it.
fn run_plan<S: Sink>(
    ctx: &PlanCtx<'_>,
    slots: Option<usize>,
    stats: &mut EvalStats,
    sink: &mut S,
    pass: &mut PassBuffers,
    gov: &mut Governor<'_>,
    trace: Option<&mut [LitCount]>,
) -> bool {
    pass.bindings.reset(ctx.rule);
    if S::NEGATIVES
        && negatives_fail(
            ctx,
            &ctx.plan.ground_negatives,
            &pass.bindings,
            stats,
            &mut pass.key,
        )
    {
        return false;
    }
    with_resolved(ctx, slots, pass, |execs, bindings, key| {
        descend_plan(ctx, execs, 0, bindings, stats, sink, key, gov, trace)
    })
}

/// True if one of the negative literals `negatives`, all bound under
/// `bindings`, fails (its atom holds); counts the checks it runs.
fn negatives_fail(
    ctx: &PlanCtx<'_>,
    negatives: &[usize],
    bindings: &Bindings,
    stats: &mut EvalStats,
    scratch: &mut Vec<ElemId>,
) -> bool {
    negatives.iter().any(|&ni| {
        stats.negative_checks += 1;
        negative_holds(ctx, ni, &bindings.vals, scratch)
    })
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

/// The row bound of a step that reads to its relation's end. A relation
/// does not grow during a pass, so a delta `[lo, hi)` is read as
/// `lo..END`, and resolving a step reads no relation's length.
const END: u32 = u32::MAX;

/// A relation a plan step enumerates, with the index its probe uses
/// (`None` for scans and for probes on every position).
type Source<'a> = (&'a Relation, Option<&'a PosIndex>);

/// A plan step resolved against one pass's relations: the source
/// relation and the rows of it the step reads, the overlay (for
/// overdeletion reads), and the probe indexes. Resolved once per pass
/// (once per rule for a re-derivation phase), so the recursive join
/// touches no locks and clones no `Arc`s.
#[derive(Debug)]
struct StepExec<'a> {
    source: Source<'a>,
    /// All rows (`0..END`), the delta (`lo..END`) or the pre-round rows
    /// (`0..lo`), cut at a round boundary (see the module docs).
    rows: Range<u32>,
    /// `Some(deleted tuples)` when the step also enumerates DRed's
    /// overlay (all of it) after its relation; only read by
    /// [`Sink::OVERLAY`] passes.
    overlay: Option<Source<'a>>,
    /// True when the step enumerates the round's delta.
    from_delta: bool,
}

// The join's hot loop reads one step per candidate; a larger step costs
// measurably on the τ_td evaluation.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<StepExec<'static>>() == 48);

/// The entries of `bucket`, a bucket of an index of the step's relation,
/// that lie in `rows`. Every bound is a round boundary, where the bucket
/// is partitioned (see the module docs), so a bound costs one
/// `partition_point`, and none at either end of the relation.
#[inline]
fn cut<'b>(bucket: &'b [u32], rows: &Range<u32>) -> &'b [u32] {
    let at = |bound: u32| match bound {
        0 => 0,
        END => bucket.len(),
        b => bucket.partition_point(|&r| r < b),
    };
    &bucket[at(rows.start)..at(rows.end)]
}

/// Gives an emptied step buffer the lifetime of another pass's relations.
/// Collecting an empty `Vec` into one of the same layout reuses its
/// allocation, so the buffer is recycled rather than reallocated.
fn recycle<'b>(mut steps: Vec<StepExec<'_>>) -> Vec<StepExec<'b>> {
    steps.clear();
    steps.into_iter().map(|_| unreachable!()).collect()
}

/// Resolves `ctx`'s plan into the recycled step buffer of `pass` and runs
/// `f` over the steps with the pass's bindings and key buffer. `slots` is
/// where the plan's steps start in the phase's extensional index table;
/// `None` resolves into slots past the table's end, dropped afterwards
/// with the pass's pins.
fn with_resolved<R>(
    ctx: &PlanCtx<'_>,
    slots: Option<usize>,
    pass: &mut PassBuffers,
    f: impl FnOnce(&[StepExec<'_>], &mut Bindings, &mut Vec<ElemId>) -> R,
) -> R {
    let PassBuffers {
        key,
        bindings,
        steps,
        pins,
        edb,
    } = pass;
    let n = ctx.plan.steps.len();
    let start = slots.unwrap_or_else(|| {
        edb.resize(edb.len() + n, None);
        edb.len() - n
    });
    let mut execs = recycle(std::mem::take(steps));
    resolve_steps(ctx, &mut edb[start..start + n], pins, &mut execs);
    let out = f(&execs, bindings, key);
    *steps = recycle(execs);
    pins.clear();
    if slots.is_none() {
        edb.truncate(start);
    }
    out
}

/// Where a plan step reads: its relation, the rows of it, whether those
/// are the delta, DRed's overlay relation, and whether the relation is the
/// structure's own (unchanged for a whole phase).
struct StepRead<'a> {
    rel: &'a Relation,
    rows: Range<u32>,
    from_delta: bool,
    overlay: Option<&'a Relation>,
    stable: bool,
}

/// Where the plan step on body literal `literal` reads in `ctx`'s pass.
fn step_read<'a>(ctx: &PlanCtx<'a>, literal: usize) -> StepRead<'a> {
    use std::cmp::Ordering;
    let read = |rel, rows| StepRead {
        rel,
        rows,
        from_delta: false,
        overlay: None,
        stable: false,
    };
    match ctx.rule.body[literal].atom.pred {
        PredRef::Edb(p) => match ctx.edb_delta {
            // The incremental seed pass: one EDB literal reads the
            // batch's changed tuples instead of the base relation.
            Some((dpos, drel)) if literal == dpos => StepRead {
                from_delta: true,
                ..read(drel, 0..END)
            },
            _ => StepRead {
                overlay: ctx
                    .edb_overlay
                    .map(|del| &del[p.index()])
                    .filter(|r| !r.is_empty()),
                stable: true,
                ..read(ctx.structure.relation(p), 0..END)
            },
        },
        PredRef::Idb(id) => {
            let store = ctx.store.relation(id);
            match ctx.delta {
                None => read(store, 0..END),
                Some((dpos, frontier)) => {
                    let lo = frontier.ranges[id.index()].start;
                    // The delta literal reads the frontier. Body positions
                    // before it read the pre-round store, positions after
                    // it the whole store: an instantiation with several
                    // delta atoms fires exactly once, in the pass of its
                    // first delta position. DRed's pre-round reads skip the
                    // frontier instead (see `descend_plan`).
                    match (literal.cmp(&dpos), frontier.over) {
                        (Ordering::Equal, over) => StepRead {
                            from_delta: true,
                            ..read(over.map_or(store, |over| &over[id.index()]), lo..END)
                        },
                        (Ordering::Less, None) => read(store, 0..lo),
                        _ => read(store, 0..END),
                    }
                }
            }
        }
    }
}

/// Resolves `ctx`'s plan steps into `out`. A probe of the structure's
/// relation takes its index handle from the step's slot in `edb`, looked
/// up on first use; every other probe's handle is looked up here and held
/// in `pins` for the pass. A probe on every position is a membership
/// test: the key is the tuple, and the relation's own row table answers
/// it without an index.
fn resolve_steps<'p>(
    ctx: &PlanCtx<'p>,
    edb: &'p mut [Option<Arc<PosIndex>>],
    pins: &'p mut Vec<Arc<PosIndex>>,
    out: &mut Vec<StepExec<'p>>,
) {
    // Take every handle first: the resolved steps borrow them.
    pins.clear();
    for (step, slot) in ctx.plan.steps.iter().zip(edb.iter_mut()) {
        let Access::Probe { positions } = &step.access else {
            continue;
        };
        let read = step_read(ctx, step.literal);
        if positions.len() < read.rel.arity() {
            if !read.stable {
                pins.push(read.rel.index_on(positions));
            } else if slot.is_none() {
                *slot = Some(read.rel.index_on(positions));
            }
            if let Some(overlay) = read.overlay {
                pins.push(overlay.index_on(positions));
            }
        }
    }
    let mut pins = pins.iter().map(|pin| &**pin);
    for (step, slot) in ctx.plan.steps.iter().zip(&*edb) {
        let read = step_read(ctx, step.literal);
        let probe = match &step.access {
            Access::Probe { positions } => positions.len() < read.rel.arity(),
            Access::Scan => false,
        };
        let index = match (probe, read.stable) {
            (false, _) => None,
            (true, true) => slot.as_deref(),
            (true, false) => pins.next(),
        };
        let overlay = read
            .overlay
            .map(|rel| (rel, if probe { pins.next() } else { None }));
        out.push(StepExec {
            source: (read.rel, index),
            rows: read.rows,
            overlay,
            from_delta: read.from_delta,
        });
    }
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
        return sink.emit(id, scratch, ctx.store);
    }

    let step = &ctx.plan.steps[step_idx];
    let lit = &ctx.rule.body[step.literal];
    let exec = &execs[step_idx];
    // DRed's overdeletion reads the untouched store before the delta
    // position, minus the store tuples whose row in the overdeleted set
    // lies in the frontier.
    let exclude = match (S::OVERLAY, ctx.delta, lit.atom.pred) {
        (
            true,
            Some((
                dpos,
                Frontier {
                    ranges,
                    over: Some(over),
                },
            )),
            PredRef::Idb(id),
        ) if step.literal < dpos => Some((&over[id.index()], ranges[id.index()].start)),
        _ => None,
    };

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

    // Enumerates the rows `rows` of one source, skipping excluded tuples.
    let walk = |(rel, index): &Source<'_>,
                rows: &Range<u32>,
                bindings: &mut Bindings,
                stats: &mut EvalStats,
                sink: &mut S,
                scratch: &mut Vec<ElemId>,
                gov: &mut Governor<'_>,
                trace: &mut Option<&mut [LitCount]>|
     -> bool {
        let excluded = |tuple: &[ElemId]| {
            exclude.is_some_and(|(over, lo): (&Relation, u32)| {
                over.row_of(tuple).is_some_and(|r| r >= lo)
            })
        };
        match &step.access {
            Access::Scan => {
                for row in rows.start..rows.end.min(rel.len() as u32) {
                    let tuple = rel.tuple(row);
                    if !excluded(tuple)
                        && on_tuple(
                            tuple,
                            bindings,
                            stats,
                            sink,
                            scratch,
                            gov,
                            trace.as_deref_mut(),
                        )
                    {
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
                let matched = match index {
                    Some(index) => cut(rel.rows_matching(index, scratch), rows),
                    None => {
                        member = rel.row_of(scratch).filter(|r| rows.contains(r));
                        member.as_slice()
                    }
                };
                for &row in matched {
                    let tuple = rel.tuple(row);
                    if !excluded(tuple)
                        && on_tuple(
                            tuple,
                            bindings,
                            stats,
                            sink,
                            scratch,
                            gov,
                            trace.as_deref_mut(),
                        )
                    {
                        return true;
                    }
                }
            }
        }
        false
    };

    match &step.access {
        Access::Scan if !exec.from_delta => stats.full_scans += 1,
        Access::Scan => {}
        Access::Probe { .. } => stats.index_probes += 1,
    }
    // The step's rows of its relation, then (overdeletion only) its
    // overlay of deleted tuples.
    if walk(
        &exec.source,
        &exec.rows,
        bindings,
        stats,
        sink,
        scratch,
        gov,
        &mut trace,
    ) {
        return true;
    }
    if S::OVERLAY {
        if let Some(overlay) = &exec.overlay {
            return walk(
                overlay,
                &(0..END),
                bindings,
                stats,
                sink,
                scratch,
                gov,
                &mut trace,
            );
        }
    }
    false
}

/// One pass's variable bindings, plus the trail of the variables the
/// current join prefix bound, in binding order. Backtracking truncates
/// the trail back to a mark, so matching a candidate tuple allocates
/// nothing (the trail never outgrows the rule's variable count). Kept in
/// the pass buffers and reset per pass, so a pass allocates none either.
#[derive(Debug, Default)]
struct Bindings {
    vals: Vec<Option<ElemId>>,
    trail: Vec<Var>,
}

impl Bindings {
    /// Makes all of `rule`'s variables unbound.
    fn reset(&mut self, rule: &Rule) {
        self.vals.clear();
        self.vals.resize(rule.var_count as usize, None);
        self.trail.clear();
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
