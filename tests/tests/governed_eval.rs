//! Resource-governed evaluation: every limit kind trips with a typed
//! error and a *sound* partial result, and the deterministic
//! fault-injection hook (`trip_after_checks`) proves graceful
//! degradation at **every** checkpoint an evaluation passes — the
//! partial store is always a subset of the untripped fixpoint, and
//! every completed stratum is bit-identical to it.

use mdtw_datalog::{
    parse_program, CancelToken, Engine, EvalError, EvalLimits, EvalOptions, EvalResult, Evaluator,
    IdbId, LimitKind, Program,
};
use mdtw_structure::{Domain, ElemId, Signature, Structure};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Workload builders
// ---------------------------------------------------------------------------

fn chain(n: usize) -> Structure {
    let sig = Arc::new(Signature::from_pairs([("e", 2), ("node", 1), ("first", 1)]));
    let mut s = Structure::new(sig, Domain::anonymous(n));
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

/// Transitive closure over a chain: one stratum, Θ(n) rounds, Θ(n²)
/// facts — plenty of rounds, facts and fuel to trip on.
const TC: &str = "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).";

/// A 3-stratum negation chain (reach, its complement, the complement's
/// complement) — the graceful-degradation shape: completed strata must
/// survive a trip in a later one.
const STRAT3: &str = "reach(X) :- first(X).\nreach(Y) :- reach(X), e(X, Y).\n\
     unreach(X) :- node(X), !reach(X).\n\
     settled(X) :- node(X), !unreach(X), !first(X).";

fn governed(program: &Program, s: &Structure, limits: EvalLimits) -> Result<EvalResult, EvalError> {
    Evaluator::with_options(program.clone(), EvalOptions::new().limits(limits))
        .unwrap()
        .evaluate(s)
}

/// Every tuple of `part` must also be in `full` — a partial result never
/// invents facts.
fn assert_subset(part: &EvalResult, full: &EvalResult, program: &Program, ctx: &str) {
    for idb in 0..program.idb_count() {
        let id = IdbId(idb as u32);
        for tuple in part.store.tuples(id) {
            assert!(
                full.store.holds(id, &tuple),
                "{ctx}: partial result invented {}{tuple:?}",
                program.idb_names[idb]
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Per-kind trip tests
// ---------------------------------------------------------------------------

fn expect_trip(program: &Program, s: &Structure, limits: EvalLimits, want: LimitKind) -> EvalError {
    match governed(program, s, limits) {
        Err(err @ EvalError::LimitExceeded { kind, .. }) => {
            assert_eq!(kind, want, "tripped on the wrong limit: {err}");
            err
        }
        Ok(_) => panic!("{want:?} limit never tripped"),
        Err(other) => panic!("unexpected error in place of {want:?}: {other}"),
    }
}

#[test]
fn max_rounds_trips_with_partial_result() {
    let s = chain(64);
    let p = parse_program(TC, &s).unwrap();
    let full = governed(&p, &s, EvalLimits::new()).unwrap();
    let err = expect_trip(&p, &s, EvalLimits::new().max_rounds(3), LimitKind::Rounds);
    let EvalError::LimitExceeded { stats, partial, .. } = err else {
        unreachable!()
    };
    // The governor checks at round granularity: it may finish the round
    // in flight, never more.
    assert!(
        stats.rounds <= 4,
        "ran {} rounds past a 3-round cap",
        stats.rounds
    );
    assert!(stats.facts > 0, "trip stats must be populated");
    let partial = partial.expect("join engines always attach a partial result");
    assert!(partial.store.fact_count() > 0);
    assert!(partial.store.fact_count() < full.store.fact_count());
    assert_subset(&partial, &full, &p, "max_rounds");
}

#[test]
fn max_derived_facts_trips() {
    let s = chain(64);
    let p = parse_program(TC, &s).unwrap();
    let full = governed(&p, &s, EvalLimits::new()).unwrap();
    let err = expect_trip(
        &p,
        &s,
        EvalLimits::new().max_derived_facts(100),
        LimitKind::Facts,
    );
    let EvalError::LimitExceeded { stats, partial, .. } = err else {
        unreachable!()
    };
    assert!(stats.facts >= 100, "must have actually exceeded the cap");
    let partial = partial.expect("partial result");
    assert!(partial.store.fact_count() < full.store.fact_count());
    assert_subset(&partial, &full, &p, "max_derived_facts");
}

#[test]
fn fuel_trips_and_meter_reports_spend() {
    let s = chain(64);
    let p = parse_program(TC, &s).unwrap();
    let limits = EvalLimits::new().fuel(200);
    let err = expect_trip(&p, &s, limits.clone(), LimitKind::Fuel);
    let EvalError::LimitExceeded { partial, .. } = err else {
        unreachable!()
    };
    assert!(partial.is_some());
    // The shared meter records the spend (amortized: overshoot bounded
    // by one check interval per engine loop).
    assert!(limits.fuel_spent() > 200);
    assert!(limits.checks_spent() > 0);
}

#[test]
fn deadline_trips_immediately_when_zero() {
    let s = chain(64);
    let p = parse_program(TC, &s).unwrap();
    expect_trip(
        &p,
        &s,
        EvalLimits::new().deadline(Duration::ZERO),
        LimitKind::Deadline,
    );
}

#[test]
fn cancellation_token_is_shared_and_trips() {
    let s = chain(64);
    let p = parse_program(TC, &s).unwrap();
    let token = CancelToken::new();
    assert!(!token.is_cancelled());
    // Not cancelled: evaluation completes.
    let limits = EvalLimits::new().cancel_token(token.clone());
    governed(&p, &s, limits).unwrap();
    // Cancelled (from a clone — the token is shared): evaluation trips.
    token.cancel();
    assert!(token.is_cancelled());
    let limits = EvalLimits::new().cancel_token(token.clone());
    expect_trip(&p, &s, limits, LimitKind::Cancelled);
}

#[test]
fn quasi_guarded_trip_carries_no_partial() {
    // The QG pipeline cannot attach a sound partial model (the least
    // model of a partial grounding is not a subset of the real one), so
    // its trip must carry `partial: None`.
    let s = chain(16);
    let p = parse_program("reach(X) :- first(X).\nreach(Y) :- reach(X), e(X, Y).", &s).unwrap();
    let mut catalog = mdtw_datalog::FdCatalog::new();
    let e = s.signature().lookup("e").unwrap();
    catalog.declare(e, vec![0], vec![1]);
    catalog.declare(e, vec![1], vec![0]);
    let result = Evaluator::with_options(
        p,
        EvalOptions::new()
            .engine(Engine::QuasiGuarded)
            .fd_catalog(catalog)
            .limits(EvalLimits::new().trip_after_checks(1)),
    )
    .unwrap()
    .evaluate(&s);
    match result {
        Err(EvalError::LimitExceeded { kind, partial, .. }) => {
            assert_eq!(kind, LimitKind::Injected);
            assert!(partial.is_none(), "QG trips must not attach partials");
        }
        other => panic!("expected an injected trip, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Deterministic fault injection: the k-sweep
// ---------------------------------------------------------------------------

/// Trips at every checkpoint an untripped evaluation passes, one at a
/// time, and pins the graceful-degradation contract at each: typed
/// `Injected` error, partial ⊆ full, completed strata bit-identical.
fn sweep_every_checkpoint(program: &Program, s: &Structure, ctx: &str) {
    let probe = EvalLimits::new();
    let full = governed(program, s, probe.clone()).unwrap();
    let total_checks = probe.checks_spent();
    assert!(
        total_checks > 0,
        "{ctx}: a governed run must check at least once"
    );
    let full_strata = full.stats.strata;

    for k in 1..=total_checks {
        let limits = EvalLimits::new().trip_after_checks(k);
        match governed(program, s, limits) {
            Err(EvalError::LimitExceeded {
                kind,
                stats,
                partial,
            }) => {
                assert_eq!(kind, LimitKind::Injected, "{ctx}: k={k}");
                let partial = partial.unwrap_or_else(|| panic!("{ctx}: k={k}: no partial"));
                assert_subset(&partial, &full, program, ctx);
                // Completed strata are final: their predicates hold
                // exactly the untripped fixpoint, tuple for tuple.
                assert!(stats.strata <= full_strata, "{ctx}: k={k}");
                for idb in 0..program.idb_count() {
                    let id = IdbId(idb as u32);
                    if full.stratification.stratum_of(id) < stats.strata {
                        assert_eq!(
                            partial.store.tuples(id),
                            full.store.tuples(id),
                            "{ctx}: k={k}: completed stratum {} predicate {} diverged",
                            full.stratification.stratum_of(id),
                            program.idb_names[idb]
                        );
                    }
                }
            }
            Ok(_) => panic!("{ctx}: k={k} ≤ {total_checks} checks must trip"),
            Err(other) => panic!("{ctx}: k={k}: unexpected error {other}"),
        }
    }

    // One checkpoint past the last: the evaluation completes untouched.
    let limits = EvalLimits::new().trip_after_checks(total_checks + 1);
    let redo = governed(program, s, limits).unwrap();
    for idb in 0..program.idb_count() {
        let id = IdbId(idb as u32);
        assert_eq!(
            redo.store.tuples(id),
            full.store.tuples(id),
            "{ctx}: k>total"
        );
    }
}

#[test]
fn tc_survives_a_trip_at_every_checkpoint() {
    let s = chain(48);
    let p = parse_program(TC, &s).unwrap();
    sweep_every_checkpoint(&p, &s, "linear TC");
}

#[test]
fn stratified_chain_survives_a_trip_at_every_checkpoint() {
    let s = chain(48);
    let p = parse_program(STRAT3, &s).unwrap();
    sweep_every_checkpoint(&p, &s, "3-stratum chain");
}

// ---------------------------------------------------------------------------
// Randomized stratified programs
// ---------------------------------------------------------------------------

/// Builds a random stratified program over `e`/`node`/`first`: a base
/// reachability stratum, then `depth` alternating-negation strata.
fn layered_program(depth: usize, fanout: usize, s: &Structure) -> Program {
    let mut src = String::from("p0(X) :- first(X).\np0(Y) :- p0(X), e(X, Y).\n");
    for d in 1..=depth {
        let prev = d - 1;
        src.push_str(&format!("p{d}(X) :- node(X), !p{prev}(X).\n"));
        for f in 0..fanout {
            src.push_str(&format!("p{d}(Y) :- p{d}(X), e(X, Y), node(Y). % f{f}\n"));
        }
    }
    parse_program(&src, s).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_layered_programs_degrade_gracefully(
        n in 8usize..24,
        depth in 1usize..4,
        fanout in 0usize..2,
        k in 1u64..12,
    ) {
        let s = chain(n);
        let p = layered_program(depth, fanout, &s);
        let probe = EvalLimits::new();
        let full = governed(&p, &s, probe.clone()).unwrap();
        let total = probe.checks_spent();
        let limits = EvalLimits::new().trip_after_checks(k);
        match governed(&p, &s, limits) {
            Ok(redo) => {
                // Didn't trip: k exceeded the checkpoint count, and the
                // result matches the untripped fixpoint exactly.
                prop_assert!(k > total);
                for idb in 0..p.idb_count() {
                    let id = IdbId(idb as u32);
                    prop_assert_eq!(redo.store.tuples(id), full.store.tuples(id));
                }
            }
            Err(EvalError::LimitExceeded { kind, stats, partial }) => {
                prop_assert_eq!(kind, LimitKind::Injected);
                prop_assert!(k <= total);
                let partial = partial.expect("stratified trips carry partials");
                assert_subset(&partial, &full, &p, "layered");
                for idb in 0..p.idb_count() {
                    let id = IdbId(idb as u32);
                    if full.stratification.stratum_of(id) < stats.strata {
                        prop_assert_eq!(partial.store.tuples(id), full.store.tuples(id));
                    }
                }
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Budget sharing across the stack
// ---------------------------------------------------------------------------

#[test]
fn budget_is_cumulative_across_evaluations_sharing_a_meter() {
    let s = chain(32);
    let p = parse_program(TC, &s).unwrap();
    // One evaluation spends ~f fuel; a budget of 1.5f shared across two
    // evaluations of the same session must trip on the second.
    let probe = EvalLimits::new();
    governed(&p, &s, probe.clone()).unwrap();
    let single = probe.fuel_spent();
    assert!(single > 0);

    let limits = EvalLimits::new().fuel(single + single / 2);
    let mut session =
        Evaluator::with_options(p.clone(), EvalOptions::new().limits(limits)).unwrap();
    session
        .evaluate(&s)
        .expect("first evaluation fits the budget");
    match session.evaluate(&s) {
        Err(EvalError::LimitExceeded { kind, .. }) => assert_eq!(kind, LimitKind::Fuel),
        other => panic!("shared meter must exhaust on the second run, got {other:?}"),
    }
}

#[test]
fn limit_error_display_names_the_tripped_limit() {
    let s = chain(64);
    let p = parse_program(TC, &s).unwrap();
    let err = expect_trip(&p, &s, EvalLimits::new().max_rounds(1), LimitKind::Rounds);
    let msg = err.to_string();
    assert!(msg.contains("rounds"), "{msg}");
    assert!(msg.contains("partial result attached"), "{msg}");
}
