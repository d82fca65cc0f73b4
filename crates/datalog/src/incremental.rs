//! Incremental view maintenance: a long-lived [`MaterializedView`] that
//! absorbs batched insert/retract deltas by re-derivation instead of
//! re-evaluation.
//!
//! [`Evaluator::materialize`](crate::Evaluator::materialize) evaluates a
//! program to fixpoint once, then hands its compiled state — the
//! session's compiled strata (stratification, per-stratum semipositive
//! sub-programs and plans) and scratch arenas — to a view that serves
//! reads while accepting [`Update`] batches against the base
//! (extensional) relations:
//!
//! * **Insertions** re-derive semi-naively from the delta: each rule
//!   fires once per changed extensional body literal with that literal
//!   reading only the batch's changed tuples (compiled
//!   extensional-delta plans; a deletion under a negated literal counts
//!   as an insertion), and the resulting frontier runs the ordinary
//!   delta rounds through the existing per-rule join plans.
//! * **Retractions** use classic *DRed* (delete and re-derive):
//!   an over-deletion pass propagates the retracted tuples through the
//!   rules to a fixpoint of *possibly* invalidated facts (negative
//!   literals ignored — a sound over-approximation), the overdeleted
//!   facts are removed, survivors with an alternative derivation in the
//!   post state are re-derived, and the insertion frontier re-covers
//!   everything derivable through them.
//!
//! Every phase runs through the one compiled-plan join executor of
//! [`eval`](crate::eval), with plans compiled once per stratum at
//! [`materialize`](crate::Evaluator::materialize) time:
//!
//! * *overdeletion* is semi-naive evaluation of each rule's positive
//!   projection: the extensional-delta plans seed it (deleted tuples at
//!   positive literals, inserted ones at negated literals, read flipped),
//!   then the ordinary delta plans propagate it with the overdeleted
//!   facts as the frontier. Extensional literals read the post-update
//!   relations plus the deleted tuples, intensional literals the
//!   pre-update store;
//! * *re-derivation* goes rule by rule: each rule's head-bound plan is
//!   resolved once and runs over every overdeleted fact of its head
//!   predicate that no earlier rule re-derived, with the variables reset
//!   to the fact's values, and stops at each fact's first witness. The
//!   survivors collect in a flat buffer, in the overdeleted set's order;
//! * *insertion* is the extensional-delta seed pass plus the ordinary
//!   delta rounds, as above.
//!
//! A phase resolves each plan against its relations once (per pass in
//! the semi-naive rounds, per rule in re-derivation), never once per
//! fact, and takes its buffers from the session's recycled scratch, so
//! maintenance allocates per relation and stratum, not per fact.
//!
//! Both run **stratum by stratum**, so stratified negation stays sound:
//! the net delta of a lower stratum becomes an extensional delta of the
//! extended structure the strata above were compiled against — an
//! insertion *through* a negated literal turns into an over-deletion
//! seed upstairs, a deletion through negation into a re-derivation seed.
//!
//! Maintenance is governed like evaluation: the session's
//! [`EvalLimits`] (fuel, deadline, cancellation) meter every phase, and
//! a tripped budget triggers the sound fallback — discard the
//! maintenance state and re-evaluate the post-update base from scratch,
//! reported via [`UpdateProfile::fell_back`]. The view is never left in
//! a partially maintained state.

use crate::ast::{IdbId, Program};
use crate::eval::{
    run_increment, run_overdelete, run_rederive, EvalStats, IdbStore, SeminaiveScratch,
};
use crate::limits::{EvalLimits, Governor, LimitKind};
use crate::plan::{plan_edb_deltas, plan_head_bound, JoinPlan, RulePlans, StructureStats};
use crate::profile::{UpdateProfile, UpdateStratumProfile};
use crate::stratify::{Strata, Stratification};
use mdtw_structure::{ElemId, PredId, Relation, Structure};
use std::sync::Arc;
use std::time::Instant;

/// A batch of base-relation mutations for [`MaterializedView::apply`].
///
/// The batch is a *set* update with the usual normalized semantics
/// `new = (old \ retracts) ∪ inserts`: inserting a tuple already
/// present is a no-op, retracting an absent tuple is a no-op, and a
/// tuple both retracted and inserted in the same batch ends up present.
/// Tuples must be over the view's base signature and existing domain.
#[derive(Debug, Clone, Default)]
pub struct Update {
    inserts: Vec<(PredId, Box<[ElemId]>)>,
    retracts: Vec<(PredId, Box<[ElemId]>)>,
}

impl Update {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an insertion, builder-style.
    pub fn insert(mut self, pred: PredId, tuple: &[ElemId]) -> Self {
        self.push_insert(pred, tuple);
        self
    }

    /// Adds a retraction, builder-style.
    pub fn retract(mut self, pred: PredId, tuple: &[ElemId]) -> Self {
        self.push_retract(pred, tuple);
        self
    }

    /// Adds an insertion in place (loop-friendly).
    pub fn push_insert(&mut self, pred: PredId, tuple: &[ElemId]) {
        self.inserts.push((pred, tuple.into()));
    }

    /// Adds a retraction in place (loop-friendly).
    pub fn push_retract(&mut self, pred: PredId, tuple: &[ElemId]) {
        self.retracts.push((pred, tuple.into()));
    }

    /// Number of staged mutations (insertions plus retractions).
    pub fn len(&self) -> usize {
        self.inserts.len() + self.retracts.len()
    }

    /// True if the batch stages no mutations.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.retracts.is_empty()
    }
}

/// A materialized fixpoint kept consistent under batched base-relation
/// updates; created by [`Evaluator::materialize`](crate::Evaluator::materialize).
///
/// The view owns the post-update *extended* structure (base relations
/// plus the lower-stratum relations higher strata read as extensional),
/// the derived-fact store, the session's compiled strata (semipositive
/// sub-programs and their semi-naive join plans), and per stratum the
/// extensional-delta seed plans and the head-bound re-derivation
/// plans. Plans are compiled once against the cardinalities at
/// materialization time; later updates reuse them (staleness can cost
/// performance, never correctness).
#[derive(Debug)]
pub struct MaterializedView {
    strata: Strata,
    scratch: SeminaiveScratch,
    limits: Option<EvalLimits>,
    plans: Vec<Arc<Vec<RulePlans>>>,
    edb_plans: Vec<Vec<Vec<(usize, JoinPlan)>>>,
    head_plans: Vec<Vec<JoinPlan>>,
    /// The extended structure in *post* state: base relations plus the
    /// materialized lower-stratum relations of the strata's extension
    /// predicates.
    ext: Structure,
    store: IdbStore,
    /// The statistics of the last from-scratch evaluation (see
    /// [`MaterializedView::eval_stats`]).
    eval_stats: EvalStats,
    updates_applied: u64,
}

impl MaterializedView {
    pub(crate) fn from_session(
        mut strata: Strata,
        scratch: SeminaiveScratch,
        limits: Option<EvalLimits>,
        structure: &Structure,
        store: IdbStore,
        eval_stats: EvalStats,
    ) -> Self {
        strata.prepare(structure.signature());
        let ext = materialized(structure, &strata, &store);
        let strata_count = strata.stratification().stratum_count();
        let mut plans = Vec::with_capacity(strata_count);
        let mut edb_plans = Vec::with_capacity(strata_count);
        let mut head_plans = Vec::with_capacity(strata_count);
        for k in 0..strata_count {
            plans.push(strata.plans(k, &ext).0);
            let est = StructureStats::new(&ext);
            edb_plans.push(plan_edb_deltas(strata.sub(k), &est));
            head_plans.push(plan_head_bound(strata.sub(k), &est));
        }
        Self {
            strata,
            scratch,
            limits,
            plans,
            edb_plans,
            head_plans,
            ext,
            store,
            eval_stats,
            updates_applied: 0,
        }
    }

    /// Applies one batched update and maintains the fixpoint, returning
    /// the per-update [`UpdateProfile`] (overdeletion / re-derivation /
    /// net-change counters and per-stratum timings).
    ///
    /// Maintenance runs under a fresh meter of the session's
    /// [`EvalLimits`] (the budget is per update, the cancel token is
    /// shared). If any phase trips, the partially maintained state is
    /// discarded and the post-update base is re-evaluated from scratch
    /// without a budget — slower, but sound; [`UpdateProfile::fell_back`]
    /// names the tripped limit.
    ///
    /// # Panics
    ///
    /// If a tuple targets a predicate outside the base signature, has
    /// the wrong arity, or mentions an element outside the domain.
    pub fn apply(&mut self, update: &Update) -> UpdateProfile {
        let t0 = Instant::now();
        let mut profile = UpdateProfile::default();
        let (base_sig, ext_sig) = (self.strata.base_sig(), self.strata.ext_sig());
        let (nbase, next) = (base_sig.len(), ext_sig.len());

        // Normalize the batch: `new = (old \ R) ∪ I`. `req_ins` is the
        // *raw* insert set — it suppresses retractions of tuples the
        // same batch re-inserts. The effective deltas live at extended
        // predicate ids so lower-stratum net changes can join them.
        // Every tuple is validated here, before anything is mutated.
        let mut req_ins: Vec<Relation> = (0..nbase)
            .map(|p| Relation::new(base_sig.arity(PredId(p as u32))))
            .collect();
        let mut ins: Vec<Relation> = (0..next)
            .map(|p| Relation::new(ext_sig.arity(PredId(p as u32))))
            .collect();
        let mut del: Vec<Relation> = (0..next)
            .map(|p| Relation::new(ext_sig.arity(PredId(p as u32))))
            .collect();
        for (pred, tuple) in &update.inserts {
            self.check_target(*pred, tuple);
            req_ins[pred.index()].insert(tuple);
        }
        for (pred, tuple) in &update.retracts {
            self.check_target(*pred, tuple);
            if self.ext.holds(*pred, tuple) && !req_ins[pred.index()].contains(tuple) {
                del[pred.index()].insert(tuple);
            }
        }
        for (i, staged) in req_ins.iter().enumerate() {
            let p = PredId(i as u32);
            for tuple in staged.iter() {
                if !self.ext.holds(p, tuple) {
                    ins[i].insert(tuple);
                }
            }
        }
        self.updates_applied += 1;
        profile.base_inserted = ins[..nbase].iter().map(Relation::len).sum();
        profile.base_retracted = del[..nbase].iter().map(Relation::len).sum();
        if profile.base_inserted == 0 && profile.base_retracted == 0 {
            profile.total_nanos = t0.elapsed().as_nanos() as u64;
            return profile;
        }

        // Apply the base delta physically: the view is now in POST base
        // state, which is what every exact maintenance join reads.
        for (i, (dels, inss)) in del.iter().zip(ins.iter()).enumerate().take(nbase) {
            let p = PredId(i as u32);
            for tuple in dels.iter() {
                self.ext.retract(p, tuple);
            }
            for tuple in inss.iter() {
                self.ext.insert(p, tuple);
            }
        }

        let limits = self.limits.as_ref().map(EvalLimits::fresh);
        if let Some(kind) = self.maintain(&mut ins, &mut del, limits.as_ref(), &mut profile) {
            self.fall_back(kind, &mut profile);
        }
        profile.total_nanos = t0.elapsed().as_nanos() as u64;
        profile
    }

    /// Validates one staged mutation against the base signature and the
    /// domain.
    fn check_target(&self, pred: PredId, tuple: &[ElemId]) {
        let base_sig = self.strata.base_sig();
        assert!(
            pred.index() < base_sig.len(),
            "update targets predicate {} outside the base signature",
            pred.index()
        );
        assert_eq!(
            tuple.len(),
            base_sig.arity(pred),
            "update tuple arity mismatch for `{}`",
            base_sig.name(pred)
        );
        for &e in tuple {
            assert!(
                self.ext.domain().contains(e),
                "update tuple argument {e} outside the domain"
            );
        }
    }

    /// The stratum-by-stratum DRed pipeline over the already-applied
    /// base delta. Returns `Some(kind)` if a budget tripped (the caller
    /// falls back), `None` on completed maintenance.
    fn maintain(
        &mut self,
        ins: &mut [Relation],
        del: &mut [Relation],
        limits: Option<&EvalLimits>,
        profile: &mut UpdateProfile,
    ) -> Option<LimitKind> {
        // One governor over one monotone work counter
        // (`stats.tuples_considered`) spans every phase of the update.
        let mut gov = Governor::new(limits);
        let mut stats = EvalStats::default();

        let idb_arities = &self.strata.program().idb_arities;
        for k in 0..self.strata.stratification().stratum_count() {
            let st0 = Instant::now();
            // Each phase's nanoseconds since the previous phase ended.
            let mut phase_end = st0;
            let mut lap = || {
                let now = Instant::now();
                let nanos = now.duration_since(phase_end).as_nanos() as u64;
                phase_end = now;
                nanos
            };
            let sub = self.strata.sub(k);

            // Phase 1 — overdelete: every stored fact some rule derives
            // from a changed tuple, to a fixpoint (see `run_overdelete`).
            let mut over: Vec<Relation> = idb_arities.iter().map(|&a| Relation::new(a)).collect();
            run_overdelete(
                sub,
                &self.ext,
                &self.plans[k],
                &self.edb_plans[k],
                (ins, del),
                &self.store,
                &mut self.scratch,
                &mut gov,
                &mut stats,
                &mut over,
            );
            if let Some(kind) = gov.tripped() {
                return Some(kind);
            }
            let overdelete_nanos = lap();

            // Phase 2 — physically remove the overdeleted facts.
            for (i, o) in over.iter().enumerate() {
                let id = IdbId(i as u32);
                for fact in o.iter() {
                    let removed = self.store.retract_raw(id, fact);
                    debug_assert!(removed, "overdeletion only removes stored facts");
                }
            }
            let remove_nanos = lap();

            // Phase 3 — re-derive survivors: an overdeleted fact with an
            // alternative derivation in the post state (extensional atoms
            // read post only, intensional ones the post-removal store,
            // negatives checked against post) is seeded back. Rule at a
            // time: each head-bound plan is resolved once and runs over
            // all overdeleted facts of its head predicate that no earlier
            // rule re-derived (see `run_rederive`). Facts derivable only
            // *through* another survivor are re-covered by the seed
            // frontier's delta rounds in phase 4.
            run_rederive(
                sub,
                &self.ext,
                &self.head_plans[k],
                &over,
                &self.store,
                &mut self.scratch,
                &mut gov,
                &mut stats,
            );
            if let Some(kind) = gov.tripped() {
                return Some(kind);
            }
            let rederive_nanos = lap();

            // Phase 4 — the insertion frontier: rules fire once per
            // changed extensional literal reading the changed tuples, the
            // seeds join in, and ordinary semi-naive delta rounds run to
            // fixpoint. The phase only appends, so the facts it adds are
            // each relation's rows from `start` on; phase 5 diffs them
            // against `over`.
            let start: Vec<u32> = (0..idb_arities.len())
                .map(|i| self.store.relation(IdbId(i as u32)).len() as u32)
                .collect();
            run_increment(
                sub,
                &self.ext,
                &self.plans[k],
                &self.edb_plans[k],
                (ins, del),
                &mut self.store,
                &mut self.scratch,
                &mut gov,
                &mut stats,
            );
            if let Some(kind) = gov.tripped() {
                return Some(kind);
            }
            let insert_nanos = lap();

            // Phase 5 — net the stratum out: a fact overdeleted and not
            // re-added is a net deletion, a fact added and not
            // overdeleted a net insertion. Both are pushed into the
            // extended structure and recorded as *extensional* deltas at
            // the extension predicate ids, which is all the strata above
            // ever see of this one.
            let mut sp = UpdateStratumProfile {
                stratum: k,
                overdelete_nanos,
                remove_nanos,
                rederive_nanos,
                insert_nanos,
                ..Default::default()
            };
            let ext_pred = self.strata.ext_pred();
            for (i, (o, &from)) in over.iter().zip(&start).enumerate() {
                let id = IdbId(i as u32);
                let stored = self.store.relation(id);
                sp.overdeleted += o.len();
                for fact in o.iter() {
                    if self.store.holds(id, fact) {
                        sp.rederived += 1;
                    } else {
                        sp.deleted += 1;
                        if let Some(p) = ext_pred[i] {
                            self.ext.retract(p, fact);
                            del[p.index()].insert(fact);
                        }
                    }
                }
                for fact in (from..stored.len() as u32).map(|r| stored.tuple(r)) {
                    if !o.contains(fact) {
                        sp.inserted += 1;
                        if let Some(p) = ext_pred[i] {
                            self.ext.insert(p, fact);
                            ins[p.index()].insert(fact);
                        }
                    }
                }
            }
            sp.net_nanos = lap();
            sp.nanos = st0.elapsed().as_nanos() as u64;
            profile.overdeleted += sp.overdeleted;
            profile.rederived += sp.rederived;
            profile.inserted += sp.inserted;
            profile.deleted += sp.deleted;
            profile.strata.push(sp);
        }
        None
    }

    /// The sound escape hatch: throw the maintenance state away and
    /// re-evaluate the post-update base from scratch, ungoverned.
    fn fall_back(&mut self, kind: LimitKind, profile: &mut UpdateProfile) {
        let base_post = self.base_structure();
        let (store, stats, trip) = self.strata.run(&base_post, &mut self.scratch, None, None);
        debug_assert!(trip.is_none(), "ungoverned evaluation cannot trip");
        self.ext = materialized(&base_post, &self.strata, &store);
        self.store = store;
        self.eval_stats = stats;
        profile.fell_back = Some(kind);
    }

    /// The maintained fixpoint (the serving read path).
    pub fn store(&self) -> &IdbStore {
        &self.store
    }

    /// The [`EvalStats`] of the view's last from-scratch evaluation: the
    /// one [`Evaluator::materialize`](crate::Evaluator::materialize) ran,
    /// or the latest fall-back re-evaluation of [`apply`](Self::apply).
    pub fn eval_stats(&self) -> EvalStats {
        self.eval_stats
    }

    /// True if the named intensional predicate holds `args` in the
    /// maintained fixpoint.
    pub fn holds(&self, name: &str, args: &[ElemId]) -> bool {
        self.store.holds_named(name, args)
    }

    /// The program the view maintains.
    pub fn program(&self) -> &Program {
        self.strata.program()
    }

    /// The program's stratification.
    pub fn stratification(&self) -> &Stratification {
        self.strata.stratification()
    }

    /// A snapshot of the current (post-update) base structure. Cheap:
    /// relations are copy-on-write behind [`Arc`]s.
    pub fn base_structure(&self) -> Structure {
        self.ext.restricted(self.strata.base_sig())
    }

    /// Number of [`apply`](Self::apply) calls so far (no-ops included).
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied
    }
}

/// `base` extended by the strata's extension predicates, each holding
/// its intensional predicate's facts in `store`.
fn materialized(base: &Structure, strata: &Strata, store: &IdbStore) -> Structure {
    let mut ext = base.extended_shared(strata.ext_sig());
    for (i, slot) in strata.ext_pred().iter().enumerate() {
        if let Some(p) = *slot {
            for tuple in store.relation(IdbId(i as u32)).iter() {
                ext.insert(p, tuple);
            }
        }
    }
    ext
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{Engine, EvalError, EvalOptions, EvalResult, Evaluator};
    use crate::ground::FdCatalog;
    use crate::parser::parse_program;
    use mdtw_structure::{Domain, Signature};

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

    /// Pins the view bit-identical to a from-scratch evaluation of its
    /// own post-update base structure.
    fn assert_matches_scratch(view: &MaterializedView, ctx: &str) {
        let base = view.base_structure();
        let program = view.program().clone();
        let mut fresh = Evaluator::new(program).unwrap();
        let EvalResult { store, .. } = fresh.evaluate(&base).unwrap();
        for i in 0..view.program().idb_count() {
            let id = IdbId(i as u32);
            assert_eq!(
                view.store().tuples(id),
                store.tuples(id),
                "{ctx}: predicate `{}` diverged from scratch evaluation",
                view.program().idb_names[i]
            );
        }
    }

    #[test]
    fn inserts_rederive_semipositive() {
        let mut s = chain(6);
        let e = s.signature().lookup("e").unwrap();
        // Leave a gap so the insert below connects two components.
        s.retract(e, &[ElemId(2), ElemId(3)]);
        let p = parse_program(TC, &s).unwrap();
        let mut view = Evaluator::new(p).unwrap().materialize(&s).unwrap();
        let prof = view.apply(&Update::new().insert(e, &[ElemId(2), ElemId(3)]));
        assert_eq!(prof.base_inserted, 1);
        assert_eq!(prof.base_retracted, 0);
        assert!(prof.inserted > 1, "bridging edge derives transitive paths");
        assert_matches_scratch(&view, "bridge insert");
    }

    #[test]
    fn retracts_overdelete_and_rederive() {
        let mut s = chain(8);
        let e = s.signature().lookup("e").unwrap();
        // A shortcut edge gives some overdeleted paths a second
        // derivation, exercising the survivor re-derivation path.
        s.insert(e, &[ElemId(1), ElemId(3)]);
        let p = parse_program(TC, &s).unwrap();
        let mut view = Evaluator::new(p).unwrap().materialize(&s).unwrap();
        let prof = view.apply(&Update::new().retract(e, &[ElemId(2), ElemId(3)]));
        assert_eq!(prof.base_retracted, 1);
        assert!(prof.overdeleted > 0);
        assert!(prof.rederived > 0, "shortcut keeps some paths alive");
        assert!(prof.deleted > 0, "paths into 2 die");
        assert_matches_scratch(&view, "retract with shortcut");
    }

    #[test]
    fn multi_stratum_deltas_cross_negation() {
        let s = chain(6);
        let e = s.signature().lookup("e").unwrap();
        let p = parse_program(UNREACH, &s).unwrap();
        let mut view = Evaluator::new(p).unwrap().materialize(&s).unwrap();
        assert!(view.stratification().stratum_count() > 1);
        // Cutting the chain makes 3..6 unreachable: a deletion below the
        // negation inserts `unreach` facts above it.
        let prof = view.apply(&Update::new().retract(e, &[ElemId(2), ElemId(3)]));
        assert!(view.holds("unreach", &[ElemId(4)]));
        assert!(prof.strata.len() > 1);
        assert_matches_scratch(&view, "cut below negation");
        // Re-inserting the edge deletes them again: an insertion below
        // the negation overdeletes above it.
        view.apply(&Update::new().insert(e, &[ElemId(2), ElemId(3)]));
        assert!(!view.holds("unreach", &[ElemId(4)]));
        assert_matches_scratch(&view, "heal below negation");
    }

    #[test]
    fn empty_and_noop_updates() {
        let s = chain(5);
        let e = s.signature().lookup("e").unwrap();
        let p = parse_program(TC, &s).unwrap();
        let mut view = Evaluator::new(p).unwrap().materialize(&s).unwrap();
        let before = view.store().fact_count();
        let prof = view.apply(&Update::new());
        assert_eq!(
            prof,
            UpdateProfile {
                total_nanos: prof.total_nanos,
                ..UpdateProfile::default()
            }
        );
        // Inserting a present tuple and retracting an absent one
        // normalize to the empty delta.
        let prof = view.apply(
            &Update::new()
                .insert(e, &[ElemId(0), ElemId(1)])
                .retract(e, &[ElemId(3), ElemId(0)]),
        );
        assert_eq!((prof.base_inserted, prof.base_retracted), (0, 0));
        assert!(prof.strata.is_empty());
        assert_eq!(view.store().fact_count(), before);
        assert_eq!(view.updates_applied(), 2);
        assert_matches_scratch(&view, "no-op batch");
    }

    #[test]
    fn retract_everything_empties_the_view() {
        let s = chain(5);
        let e = s.signature().lookup("e").unwrap();
        let p = parse_program(TC, &s).unwrap();
        let mut view = Evaluator::new(p).unwrap().materialize(&s).unwrap();
        let mut update = Update::new();
        for i in 0..4u32 {
            update.push_retract(e, &[ElemId(i), ElemId(i + 1)]);
        }
        let prof = view.apply(&update);
        assert_eq!(prof.base_retracted, 4);
        assert_eq!(view.store().fact_count(), 0);
        assert_eq!(prof.rederived, 0);
        assert_matches_scratch(&view, "retract everything");
    }

    #[test]
    fn same_batch_reinsert_is_normalized() {
        let s = chain(6);
        let e = s.signature().lookup("e").unwrap();
        let p = parse_program(TC, &s).unwrap();
        let mut view = Evaluator::new(p).unwrap().materialize(&s).unwrap();
        // Retract + re-insert of the same present tuple must cancel.
        let prof = view.apply(
            &Update::new()
                .retract(e, &[ElemId(1), ElemId(2)])
                .insert(e, &[ElemId(1), ElemId(2)]),
        );
        assert_eq!((prof.base_inserted, prof.base_retracted), (0, 0));
        assert_matches_scratch(&view, "cancelled retraction");
    }

    #[test]
    fn tripped_budget_falls_back_soundly() {
        let s = chain(30);
        let e = s.signature().lookup("e").unwrap();
        let p = parse_program(TC, &s).unwrap();
        // The cancel token is shared across the per-update fresh meters,
        // so cancelling after materialization makes every subsequent
        // apply trip at its first checkpoint — deterministically.
        let token = crate::limits::CancelToken::new();
        let limits = EvalLimits::new().cancel_token(token.clone());
        let mut view = Evaluator::with_options(p, EvalOptions::new().limits(limits))
            .unwrap()
            .materialize(&s)
            .unwrap();
        token.cancel();
        let prof = view.apply(&Update::new().retract(e, &[ElemId(10), ElemId(11)]));
        assert_eq!(prof.fell_back, Some(LimitKind::Cancelled));
        assert_matches_scratch(&view, "post-fallback");
        // The fallback (ungoverned by design) leaves the view fully
        // serviceable: the next update maintains correctly again.
        let prof = view.apply(&Update::new().insert(e, &[ElemId(10), ElemId(11)]));
        assert_eq!(prof.fell_back, Some(LimitKind::Cancelled));
        assert_matches_scratch(&view, "second post-fallback");
    }

    /// Every documented panic of `apply` fires before the view mutates:
    /// a batch whose last insert names an element outside the domain
    /// leaves base and store untouched, although its retraction was
    /// staged first.
    #[test]
    fn out_of_domain_batch_panics_before_mutating() {
        let s = chain(5);
        let e = s.signature().lookup("e").unwrap();
        let p = parse_program(TC, &s).unwrap();
        let mut view = Evaluator::new(p).unwrap().materialize(&s).unwrap();
        let base_before = view.base_structure().relation(e).len();
        let store_before = view.store().tuples(IdbId(0));
        let bad = Update::new()
            .retract(e, &[ElemId(1), ElemId(2)])
            .insert(e, &[ElemId(3), ElemId(99)]);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| view.apply(&bad)));
        assert!(outcome.is_err(), "an out-of-domain element must panic");
        assert_eq!(view.base_structure().relation(e).len(), base_before);
        assert!(view.base_structure().holds(e, &[ElemId(1), ElemId(2)]));
        assert_eq!(view.store().tuples(IdbId(0)), store_before);
        assert_eq!(view.updates_applied(), 0);
        assert_matches_scratch(&view, "after rejected batch");
    }

    #[test]
    fn non_indexed_engines_are_rejected() {
        let s = chain(4);
        let p = parse_program("reach(X) :- first(X).\nreach(Y) :- reach(X), e(X, Y).", &s).unwrap();
        let err = Evaluator::with_options(p, EvalOptions::new().fd_catalog(FdCatalog::new()))
            .unwrap()
            .materialize(&s)
            .unwrap_err();
        assert_eq!(
            err,
            EvalError::UnsupportedIncremental {
                engine: Engine::QuasiGuarded
            }
        );
    }

    /// Phase 4's frontier is the store rows appended since it began, and
    /// `top`'s delta literal, which carries a constant, reads it through an
    /// index probe cut at that boundary. Each batch's retracts swap-remove
    /// `t` rows first, reordering the probed bucket's older entries. After
    /// every batch the view must equal a from-scratch evaluation, with
    /// every store relation coherent.
    #[test]
    fn dred_probes_reordered_buckets() {
        let n = 14u32;
        let mut s = chain(n as usize);
        let e = s.signature().lookup("e").unwrap();
        let hop = |i: u32| [ElemId(i % n), ElemId((i * 5 + 3) % n)];
        let step = |i: u32| [ElemId(i % n), ElemId((i + 1) % n)];
        for i in 0..n {
            s.insert(e, &hop(i));
        }
        let src = "t(X, Y) :- e(X, Y).\nt(X, Z) :- t(X, Y), e(Y, Z).\ntop(Y) :- t(Y, x1).";
        let p = parse_program(src, &s).unwrap();
        let mut view = Evaluator::new(p).unwrap().materialize(&s).unwrap();
        let (mut overdeleted, mut inserted) = (0, 0);
        for i in 0..12 {
            let batch = Update::new()
                .retract(e, &step(i))
                .retract(e, &hop(i + 5))
                .insert(e, &step(i + n - 3))
                .insert(e, &hop(i));
            let prof = view.apply(&batch);
            (overdeleted, inserted) = (overdeleted + prof.overdeleted, inserted + prof.inserted);
            for k in 0..view.program().idb_count() {
                view.store().relation(IdbId(k as u32)).check_invariants();
            }
            assert_matches_scratch(&view, &format!("batch {i}"));
        }
        assert!(overdeleted > 0 && inserted > 0, "{overdeleted} {inserted}");
    }

    #[test]
    fn update_profile_counts_and_json() {
        let mut s = chain(6);
        let e = s.signature().lookup("e").unwrap();
        s.retract(e, &[ElemId(3), ElemId(4)]);
        let p = parse_program(TC, &s).unwrap();
        let mut view = Evaluator::new(p).unwrap().materialize(&s).unwrap();
        let prof = view.apply(
            &Update::new()
                .insert(e, &[ElemId(3), ElemId(4)])
                .retract(e, &[ElemId(0), ElemId(1)]),
        );
        assert_eq!((prof.base_inserted, prof.base_retracted), (1, 1));
        assert_eq!(prof.strata.len(), 1);
        let json = prof.to_json().render();
        assert!(json.contains("\"base_inserted\":1"), "{json}");
        for phase in ["overdelete", "remove", "rederive", "insert", "net"] {
            assert!(json.contains(&format!("\"{phase}_nanos\":")), "{json}");
        }
        assert!(json.contains("\"fell_back\":null"), "{json}");
        assert_matches_scratch(&view, "mixed batch");
    }

    #[test]
    fn phase_times_sum_to_at_most_the_stratum_time() {
        let s = chain(40);
        let e = s.signature().lookup("e").unwrap();
        let p = parse_program(UNREACH, &s).unwrap();
        let mut view = Evaluator::new(p).unwrap().materialize(&s).unwrap();
        for i in 0..6u32 {
            let edge = [ElemId(5 * i), ElemId(5 * i + 1)];
            let prof = view.apply(&Update::new().retract(e, &edge));
            assert!(prof.strata.len() > 1, "the cut crosses the negation");
            for sp in &prof.strata {
                let phases = [
                    sp.overdelete_nanos,
                    sp.remove_nanos,
                    sp.rederive_nanos,
                    sp.insert_nanos,
                    sp.net_nanos,
                ];
                assert!(
                    phases.iter().sum::<u64>() <= sp.nanos,
                    "stratum {}: phases {phases:?} exceed {} ns",
                    sp.stratum,
                    sp.nanos
                );
                assert!(sp.nanos <= prof.total_nanos);
            }
            view.apply(&Update::new().insert(e, &edge));
            assert_matches_scratch(&view, "cut and heal");
        }
    }
}
