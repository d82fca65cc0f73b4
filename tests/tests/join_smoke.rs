//! Fast CI smoke for the indexed join engine: on chain workloads the rule
//! split fires every rule instantiation exactly once, so the firing counts
//! match closed forms (and, where it is cheap enough, the naive oracle's
//! instantiation count), and no delta pass performs a full-relation scan
//! on a delta-bound literal — after round 0, every store- or EDB-side
//! literal of a delta pass is an index probe.

use mdtw_datalog::{parse_program, EvalStats, Evaluator, IdbStore, Program};
use mdtw_structure::{Domain, ElemId, Signature, Structure};
use mdtw_tests::naive_model;
use std::sync::Arc;

/// One-shot evaluation through a fresh default session.
fn run(p: &Program, s: &Structure) -> (IdbStore, EvalStats) {
    let r = Evaluator::new(p.clone())
        .and_then(|mut session| session.evaluate(s))
        .expect("semipositive workload");
    (r.store, r.stats)
}

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

/// A two-IDB-atom recursion: `even` walks the chain two steps at a time,
/// `epair` pairs evens. Each round's delta is one `even` tuple, and the
/// all-delta instantiation `epair(2k, 2k)` must fire once, not once per
/// delta position. On a chain of `n = 2m` vertices the firings are
/// 1 (the fact) + (m − 1) (`even` steps) + m² (`epair`).
const EVEN_PAIRS: &str = "even(x0).\n\
                          even(Z) :- even(X), e(X, Y), e(Y, Z).\n\
                          epair(X, Y) :- even(X), even(Y).";

#[test]
fn even_pairs_fire_once_per_instantiation_on_200_chain() {
    let s = chain(200);
    let p = parse_program(EVEN_PAIRS, &s).unwrap();
    let (store, stats) = run(&p, &s);
    let naive = naive_model(&p, &s);
    let epair = p.idb("epair").unwrap();
    assert_eq!(store.tuples(epair).len(), 100 * 100);
    assert_eq!(store.tuples(epair), naive.relations[epair.index()]);
    assert_eq!(stats.firings, 1 + 99 + 100 * 100);
    assert_eq!(stats.firings, naive.instantiations);
}

#[test]
fn even_pairs_firings_match_closed_form_at_chain_1000() {
    let s = chain(1000);
    let p = parse_program(EVEN_PAIRS, &s).unwrap();
    let (store, stats) = run(&p, &s);
    assert_eq!(store.fact_count(), 500 + 500 * 500);
    assert_eq!(stats.facts, store.fact_count());
    assert_eq!(stats.firings, 1 + 499 + 500 * 500);
}

/// Nonlinear transitive closure on a chain of `n` vertices fires the base
/// rule `n − 1` times and the recursive rule once per triple `i < j < k`
/// (`path(i, j)`, `path(j, k)`): C(n, 3) times.
#[test]
fn nonlinear_tc_fires_once_per_instantiation() {
    let s = chain(60);
    let p = parse_program(
        "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), path(Y, Z).",
        &s,
    )
    .unwrap();
    let (store, stats) = run(&p, &s);
    let naive = naive_model(&p, &s);
    let path = p.idb("path").unwrap();
    assert_eq!(store.tuples(path).len(), 59 * 60 / 2);
    assert_eq!(store.tuples(path), naive.relations[path.index()]);
    assert_eq!(stats.firings, 59 + 60 * 59 * 58 / 6);
    assert_eq!(stats.firings, naive.instantiations);
}

#[test]
fn no_full_scans_on_delta_bound_literals_at_chain_1000() {
    let s = chain(1000);
    let p = parse_program(
        "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).",
        &s,
    )
    .unwrap();
    let (store, stats) = run(&p, &s);
    assert_eq!(store.fact_count(), 999 * 1000 / 2);
    // The only unindexed enumerations are the two unconstrained round-0
    // scans (one per rule's first body literal); every literal of every
    // delta pass either enumerates the delta relation or probes an index.
    assert_eq!(
        stats.full_scans, 2,
        "delta-bound literals must probe indexes, not scan relations"
    );
    assert!(stats.index_probes > 0);
}

/// Repeated evaluations through one session must reuse compiled plans:
/// every `evaluate` after the first on an identical program/structure
/// shape reports a plan-cache hit (this is what makes per-candidate
/// re-evaluation loops cheap).
#[test]
fn repeated_evaluations_hit_the_session_plan_cache() {
    let s = chain(120);
    let p = parse_program(EVEN_PAIRS, &s).unwrap();
    // The session owns its cache: hit/miss accounting is independent of
    // anything else in the process.
    let mut session = Evaluator::new(p).unwrap();
    let first = session.evaluate(&s).unwrap();
    assert_eq!(first.stats.plan_cache_hits, 0, "first evaluation must plan");
    let mut hits = 0;
    for _ in 0..3 {
        let r = session.evaluate(&s).unwrap();
        assert_eq!(r.store.fact_count(), first.store.fact_count());
        assert_eq!(r.stats.facts, first.stats.facts);
        assert_eq!(r.stats.firings, first.stats.firings);
        hits += r.stats.plan_cache_hits;
    }
    assert!(hits > 0, "repeated evaluations must reuse compiled plans");
    assert_eq!(hits, 3, "every re-evaluation hits");
    assert_eq!(session.plan_cache().len(), 1);

    // A fresh session starts cold — per-session isolation.
    let p = parse_program(EVEN_PAIRS, &s).unwrap();
    let cold = Evaluator::new(p).unwrap().evaluate(&s).unwrap();
    assert_eq!(cold.stats.plan_cache_hits, 0);
}

/// The derive path interns: every firing with an intensional head either
/// creates a new fact or resolves to an already-interned tuple, and the
/// accounting must add up exactly. Nonlinear transitive closure derives
/// `path(x, z)` once per intermediate vertex, so duplicates are plentiful.
#[test]
fn interning_accounts_for_every_firing() {
    let s = chain(40);
    let p = parse_program(
        "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), path(Y, Z).",
        &s,
    )
    .unwrap();
    let (_, stats) = run(&p, &s);
    assert_eq!(
        stats.interned_hits + stats.facts,
        stats.firings,
        "each firing is a new fact or an interned duplicate"
    );
    assert!(
        stats.interned_hits > 0,
        "re-derivations through different midpoints are interned"
    );
}
