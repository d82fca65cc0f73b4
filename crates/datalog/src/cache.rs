//! Cross-evaluation memoization of compiled join plans.
//!
//! Planning a program is cheap, but the workloads built on the engine —
//! the PRIMALITY enumeration solver, the 3-colorability pipeline, the
//! property-test oracles — evaluate the *same* program over and over (per
//! candidate, per structure). A [`PlanCache`] memoizes the compiled
//! [`RulePlans`] so repeated evaluations skip planning (and, more
//! importantly, skip re-deriving the cardinality statistics that feed the
//! planner's tie-breaks). Every [`Evaluator`](crate::evaluator::Evaluator)
//! session owns one. The stratified pipeline plans each stratum's
//! rewritten sub-program against the structure extended with
//! the lower strata's materialized relations, so its cache keys — and
//! their cardinality shapes — incorporate those extensions like any other
//! relation.
//!
//! # Keying and invalidation
//!
//! An entry is keyed by *program identity* — a fingerprint of the rules
//! and intensional arities, verified by exact comparison on hit, so hash
//! collisions can never serve a wrong plan — together with a coarse
//! *cardinality shape* of the structure: the per-relation sizes bucketed
//! by powers of two. Consequently:
//!
//! * evaluating a different program, or the same program after editing a
//!   rule, misses and plans fresh (the old entry stays until evicted);
//! * re-evaluating the same program over the same structure — or any
//!   structure whose relation sizes stay within the same power-of-two
//!   buckets — hits;
//! * growing or shrinking a relation across a power-of-two boundary
//!   invalidates (misses), because the planner's cardinality tie-breaks
//!   may now choose a different join order.
//!
//! Within a bucket, plans may be mildly stale relative to the exact
//! statistics (a different structure of similar shape could prefer
//! another tie-break); staleness never affects correctness — every join
//! order computes the same fixpoint. [`PlanCache::clear`] drops all
//! entries; the cache also evicts its oldest entry beyond
//! [`PLAN_CACHE_CAPACITY`] entries, so long-running processes cannot
//! accumulate plans for unboundedly many programs.

use crate::ast::{Program, Rule};
use crate::plan::{plan_program_with, RulePlans, StructureStats};
use mdtw_structure::fx::FxHasher;
use mdtw_structure::Structure;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Maximum number of cached plan sets; the oldest entry is evicted
/// beyond this.
pub const PLAN_CACHE_CAPACITY: usize = 64;

/// A memo of compiled rule plans, keyed by program identity and the
/// structure's cardinality shape (see the module docs for the exact
/// invalidation rules). Cheap to share: lookups take a mutex for the map
/// probe only, and plan sets are handed out as `Arc`s.
#[derive(Debug, Default)]
pub struct PlanCache {
    entries: Mutex<VecDeque<CacheEntry>>,
}

#[derive(Debug)]
struct CacheEntry {
    fingerprint: u64,
    stats_key: u64,
    /// Exact program identity, checked on fingerprint match so a hash
    /// collision can never serve a foreign plan.
    rules: Vec<Rule>,
    idb_arities: Vec<usize>,
    plans: Arc<Vec<RulePlans>>,
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The compiled plans of `program` for structures shaped like
    /// `structure`, and whether they came from the cache (`true`) or were
    /// compiled by this call (`false`).
    pub fn plans(&self, program: &Program, structure: &Structure) -> (Arc<Vec<RulePlans>>, bool) {
        let fingerprint = program_fingerprint(program);
        let stats_key = cardinality_shape(structure);
        let find = |entries: &VecDeque<CacheEntry>| {
            entries
                .iter()
                .find(|e| {
                    e.fingerprint == fingerprint
                        && e.stats_key == stats_key
                        && e.idb_arities == program.idb_arities
                        && e.rules == program.rules
                })
                .map(|e| Arc::clone(&e.plans))
        };
        if let Some(plans) = find(&self.entries.lock().expect("plan cache lock")) {
            return (plans, true);
        }
        // Plan outside the lock — compiling walks every rule and derives
        // statistics from the structure; holding the mutex here would
        // serialize concurrent evaluations of unrelated programs.
        let plans = Arc::new(plan_program_with(program, &StructureStats::new(structure)));
        let mut entries = self.entries.lock().expect("plan cache lock");
        // Re-check: another thread may have planned the same program
        // between the locks; keep its entry rather than a duplicate.
        if let Some(plans) = find(&entries) {
            return (plans, true);
        }
        if entries.len() >= PLAN_CACHE_CAPACITY {
            entries.pop_front();
        }
        entries.push_back(CacheEntry {
            fingerprint,
            stats_key,
            rules: program.rules.clone(),
            idb_arities: program.idb_arities.clone(),
            plans: Arc::clone(&plans),
        });
        (plans, false)
    }

    /// Number of cached plan sets.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("plan cache lock").len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached entry (e.g. to force replanning after bulk
    /// mutations of a structure).
    pub fn clear(&self) {
        self.entries.lock().expect("plan cache lock").clear();
    }
}

fn program_fingerprint(program: &Program) -> u64 {
    let mut h = FxHasher::default();
    program.rules.hash(&mut h);
    program.idb_arities.hash(&mut h);
    h.finish()
}

/// The structure's cardinality shape: per-relation sizes bucketed by
/// powers of two (the granularity at which the planner's tie-breaks can
/// plausibly change), hashed in signature order.
fn cardinality_shape(structure: &Structure) -> u64 {
    let mut h = FxHasher::default();
    for p in structure.signature().preds() {
        h.write_u32((structure.relation(p).len() as u64 + 1).ilog2());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use mdtw_structure::{Domain, ElemId, Signature};

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

    const TC: &str = "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).";

    #[test]
    fn second_evaluation_hits() {
        let s = chain(6);
        let p = parse_program(TC, &s).unwrap();
        let cache = PlanCache::new();
        let (first, first_hit) = cache.plans(&p, &s);
        let (second, second_hit) = cache.plans(&p, &s);
        assert!(!first_hit);
        assert!(second_hit);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn same_shape_structure_hits_cross_boundary_misses() {
        let cache = PlanCache::new();
        let s6 = chain(6);
        let p = parse_program(TC, &s6).unwrap();
        let (plans6, _) = cache.plans(&p, &s6);
        // 6 edges vs 5: same power-of-two bucket (⌊log2(6..8)⌋ = 2) → hit.
        let s7 = chain(7);
        let (plans7, hit) = cache.plans(&p, &s7);
        assert!(hit);
        assert!(Arc::ptr_eq(&plans6, &plans7));
        // 63 edges: different bucket → replanned with the new stats.
        let s64 = chain(64);
        let (_, hit) = cache.plans(&p, &s64);
        assert!(!hit);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn different_program_misses() {
        let s = chain(6);
        let p1 = parse_program(TC, &s).unwrap();
        let p2 = parse_program(
            "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), path(Y, Z).",
            &s,
        )
        .unwrap();
        let cache = PlanCache::new();
        let (_, _) = cache.plans(&p1, &s);
        let (_, hit) = cache.plans(&p2, &s);
        assert!(!hit);
        assert_eq!(cache.len(), 2);
    }

    /// A program whose rule body has `i + 1` copies of `e(X, Y)` —
    /// structurally distinct per `i` (identity ignores predicate *names*:
    /// plans only reference predicate ids, so a renamed but structurally
    /// identical program correctly shares the cached plans).
    fn distinct_program(i: usize, s: &Structure) -> crate::ast::Program {
        let body = vec!["e(X, Y)"; i + 1].join(", ");
        parse_program(&format!("q(X) :- {body}."), s).unwrap()
    }

    #[test]
    fn capacity_evicts_oldest() {
        let s = chain(4);
        let cache = PlanCache::new();
        for i in 0..PLAN_CACHE_CAPACITY + 5 {
            let (_, hit) = cache.plans(&distinct_program(i, &s), &s);
            assert!(!hit);
        }
        assert_eq!(cache.len(), PLAN_CACHE_CAPACITY);
        // The most recent program is still cached …
        assert!(
            cache
                .plans(&distinct_program(PLAN_CACHE_CAPACITY + 4, &s), &s)
                .1
        );
        // … the first one was evicted.
        assert!(!cache.plans(&distinct_program(0, &s), &s).1);
    }

    #[test]
    fn renamed_program_shares_structural_plans() {
        let s = chain(5);
        let cache = PlanCache::new();
        let p1 = parse_program("walk(X, Y) :- e(X, Y).", &s).unwrap();
        let p2 = parse_program("hop(X, Y) :- e(X, Y).", &s).unwrap();
        let _ = cache.plans(&p1, &s);
        // Plans reference predicate ids, never names: same structure, same
        // plans — a hit, and a correct one.
        assert!(cache.plans(&p2, &s).1);
    }

    #[test]
    fn clear_forces_replanning() {
        let s = chain(4);
        let p = parse_program(TC, &s).unwrap();
        let cache = PlanCache::new();
        let _ = cache.plans(&p, &s);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert!(!cache.plans(&p, &s).1);
    }
}
