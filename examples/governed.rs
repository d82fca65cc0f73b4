//! Resource-governed evaluation end to end: budgets, deadlines,
//! cancellation, and graceful degradation.
//!
//! ```text
//! cargo run --example governed
//! ```
//!
//! Builds a transitive-closure workload whose full fixpoint is Θ(n²)
//! facts, then evaluates it under successively tighter [`EvalLimits`]:
//! a round cap, a fact cap, a fuel budget, and a cancelled token. Each
//! trip surfaces as a typed [`EvalError::LimitExceeded`] carrying the
//! work counters and a *partial* result — a sound subset of the full
//! least fixpoint — which the example verifies tuple by tuple.

use mdtw::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// A directed chain 0 → 1 → … → n-1 with `first(0)` marked.
fn chain(n: u32) -> Structure {
    let sig = Arc::new(Signature::from_pairs([("e", 2), ("first", 1)]));
    let mut s = Structure::new(sig, Domain::anonymous(n as usize));
    let e = s.signature().lookup("e").unwrap();
    let first = s.signature().lookup("first").unwrap();
    s.insert(first, &[ElemId(0)]);
    for i in 0..n - 1 {
        s.insert(e, &[ElemId(i), ElemId(i + 1)]);
    }
    s
}

const TC: &str = "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).";

/// Runs the program under `limits` and reports what happened: the full
/// result, or the trip kind plus how much of the fixpoint survived.
fn run(label: &str, s: &Structure, limits: EvalLimits, full: Option<&EvalResult>) {
    let program = mdtw::datalog::parse_program(TC, s).unwrap();
    let mut session =
        Evaluator::with_options(program.clone(), EvalOptions::new().limits(limits.clone()))
            .unwrap();
    match session.evaluate(s) {
        Ok(result) => println!(
            "{label:<18} completed: {} facts in {} rounds ({} fuel spent)",
            result.store.fact_count(),
            result.stats.rounds,
            limits.fuel_spent(),
        ),
        Err(EvalError::LimitExceeded {
            kind,
            stats,
            partial,
        }) => {
            let partial = partial.expect("fixpoint engines attach partial results");
            // Graceful degradation: every partial fact is truly derivable.
            if let Some(full) = full {
                let path = program.idb_names.iter().position(|n| n == "path").unwrap();
                let id = mdtw::datalog::IdbId(path as u32);
                for tuple in partial.store.tuples(id) {
                    assert!(full.store.holds(id, &tuple), "partial invented a fact");
                }
            }
            println!(
                "{label:<18} tripped on `{kind}` after {} rounds: kept {} of the full \
                 fixpoint's facts, all verified derivable",
                stats.rounds,
                partial.store.fact_count(),
            );
        }
        Err(other) => panic!("unexpected evaluation error: {other}"),
    }
}

fn main() {
    let s = chain(256);
    let program = mdtw::datalog::parse_program(TC, &s).unwrap();
    let full = Evaluator::new(program).unwrap().evaluate(&s).unwrap();
    println!(
        "chain(256) transitive closure: {} facts, ungoverned\n",
        full.store.fact_count()
    );

    run(
        "max_rounds(8)",
        &s,
        EvalLimits::new().max_rounds(8),
        Some(&full),
    );
    run(
        "max_facts(5000)",
        &s,
        EvalLimits::new().max_derived_facts(5000),
        Some(&full),
    );
    run(
        "fuel(20_000)",
        &s,
        EvalLimits::new().fuel(20_000),
        Some(&full),
    );
    run(
        "deadline(1h)",
        &s,
        EvalLimits::new().deadline(Duration::from_secs(3600)),
        Some(&full),
    );

    // Cooperative cancellation: cancel() from any clone of the token —
    // here before evaluation even starts, in real use from another
    // thread — stops the run at its next checkpoint.
    let token = CancelToken::new();
    token.cancel();
    run(
        "cancelled token",
        &s,
        EvalLimits::new().cancel_token(token),
        Some(&full),
    );

    // Clones of one EvalLimits share a meter: the spend is cumulative
    // across evaluations, so a session budget covers *all* the work its
    // evaluations do, not just one of them.
    let budget = EvalLimits::new().fuel(100_000);
    let program = mdtw::datalog::parse_program(TC, &s).unwrap();
    let mut session =
        Evaluator::with_options(program, EvalOptions::new().limits(budget.clone())).unwrap();
    let mut runs = 0usize;
    loop {
        match session.evaluate(&s) {
            Ok(_) => runs += 1,
            Err(EvalError::LimitExceeded { kind, .. }) => {
                println!(
                    "\nshared meter: {runs} full evaluations fit in a 100k-fuel budget \
                     before run {} tripped on `{kind}` ({} fuel spent)",
                    runs + 1,
                    budget.fuel_spent(),
                );
                break;
            }
            Err(other) => panic!("unexpected evaluation error: {other}"),
        }
    }
}
