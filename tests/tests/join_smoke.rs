//! Fast CI smoke for the indexed join engine: on chain workloads the rule
//! split fires every rule instantiation exactly once, so the firing counts
//! match closed forms (and, where it is cheap enough, the naive oracle's
//! instantiation count), and no delta pass performs a full-relation scan
//! on a delta-bound literal — after round 0, every store- or EDB-side
//! literal of a delta pass is an index probe.

use mdtw_datalog::{parse_program, EvalStats, Evaluator, IdbId, IdbStore, Program};
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
    // delta pass either enumerates the delta rows or probes an index.
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
    // A structure in another power-of-two size bucket is planned afresh,
    // and the first shape's plans are still kept beside its own.
    let long = chain(300);
    assert_eq!(session.evaluate(&long).unwrap().stats.plan_cache_hits, 0);
    assert_eq!(session.evaluate(&long).unwrap().stats.plan_cache_hits, 1);
    assert_eq!(session.evaluate(&s).unwrap().stats.plan_cache_hits, 1);

    // A fresh session starts cold — per-session isolation.
    let p = parse_program(EVEN_PAIRS, &s).unwrap();
    let cold = Evaluator::new(p).unwrap().evaluate(&s).unwrap();
    assert_eq!(cold.stats.plan_cache_hits, 0);
}

/// Linear transitive closure: one derivation per fact on a chain.
const LINEAR_TC: &str = "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).";

/// Nonlinear transitive closure derives `path(x, z)` once per
/// intermediate vertex, so duplicates are plentiful.
const NONLINEAR_TC: &str = "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), path(Y, Z).";

/// Two strata: `node` is derived once per incident edge, and `apart`
/// negates the lower stratum's `path`.
const STRATIFIED: &str = "path(X, Y) :- e(X, Y).\n\
                          path(X, Z) :- path(X, Y), e(Y, Z).\n\
                          node(X) :- e(X, Y).\n\
                          node(Y) :- e(X, Y).\n\
                          apart(X, Y) :- node(X), node(Y), !path(X, Y).";

/// The derive path interns: every firing with an intensional head either
/// creates a new fact or resolves to an already-interned tuple — derived
/// twice in one round, or already in the store when the round merges —
/// and the accounting must add up exactly, through `evaluate` and through
/// the evaluation `materialize` runs alike.
#[test]
fn interning_accounts_for_every_firing() {
    let s = chain(40);
    for (name, src, duplicates) in [
        ("linear TC", LINEAR_TC, false),
        ("nonlinear TC", NONLINEAR_TC, true),
        ("stratified", STRATIFIED, true),
    ] {
        let p = parse_program(src, &s).unwrap();
        let (_, evaluated) = run(&p, &s);
        let view = Evaluator::new(p).unwrap().materialize(&s).unwrap();
        let materialized = view.eval_stats();
        assert_eq!(evaluated, materialized, "{name}: materialize evaluates");
        assert_eq!(
            evaluated.interned_hits + evaluated.facts,
            evaluated.firings,
            "{name}: each firing is a new fact or an interned duplicate"
        );
        assert_eq!(
            evaluated.interned_hits > 0,
            duplicates,
            "{name}: {} interned hits",
            evaluated.interned_hits
        );
    }
}

/// A session presizes each store from the previous evaluation's fact
/// counts. Presizing must change no result: evaluating a large chain, a
/// small one and the large one again through one session returns the
/// oracle's model and the statistics of a fresh session every time (plan
/// cache hits aside), for a semipositive and a stratified program.
#[test]
fn presized_stores_change_no_result() {
    for (name, src) in [("nonlinear TC", NONLINEAR_TC), ("stratified", STRATIFIED)] {
        let mut session = Evaluator::new(parse_program(src, &chain(60)).unwrap()).unwrap();
        for n in [60, 8, 60] {
            let s = chain(n);
            let p = parse_program(src, &s).unwrap();
            let warm = session.evaluate(&s).unwrap();
            let (cold_store, cold_stats) = run(&p, &s);
            let work = |stats: EvalStats| EvalStats {
                plan_cache_hits: 0,
                ..stats
            };
            assert_eq!(work(warm.stats), work(cold_stats), "{name}, chain {n}");
            for i in 0..p.idb_count() {
                let id = IdbId(i as u32);
                assert_eq!(
                    warm.store.tuples(id),
                    cold_store.tuples(id),
                    "{name}, chain {n}"
                );
            }
            if src == NONLINEAR_TC {
                let naive = naive_model(&p, &s);
                let path = p.idb("path").unwrap();
                assert_eq!(warm.store.tuples(path), naive.relations[path.index()]);
                assert_eq!(warm.stats.firings, naive.instantiations);
            }
        }
    }
}
