//! Hot-rule diagnosis with the evaluation profiler: find out *which
//! rule*, *which literal*, and *which stratum* burn the work.
//!
//! ```text
//! cargo run --example profile
//! ```
//!
//! Builds the 3-stratum reachability/negation workload from the bench
//! suite, renders its compiled join plans with [`Evaluator::explain`],
//! then evaluates it with profiling on and walks the
//! collected [`EvalProfile`]: the per-stratum timeline, the hottest
//! rules, and the observed per-literal selectivities — the feedstock a
//! cost-based re-planner needs. Finally it trips a fuel budget to show
//! that a partial profile still pinpoints where the work went.

use mdtw::prelude::*;
use std::sync::Arc;

/// The 3-stratum negation chain: reachability from a mid-chain source,
/// its complement, and the nodes settled by double negation.
const PROGRAM: &str = "reach(X) :- first(X).\nreach(Y) :- reach(X), e(X, Y).\n\
     unreach(X) :- node(X), !reach(X).\n\
     settled(X) :- node(X), !unreach(X), !first(X).";

/// A directed chain of `n` nodes with `first` marking the middle.
fn chain(n: u32) -> Structure {
    let sig = Arc::new(Signature::from_pairs([("e", 2), ("node", 1), ("first", 1)]));
    let mut s = Structure::new(sig, Domain::anonymous(n as usize));
    let e = s.signature().lookup("e").unwrap();
    let node = s.signature().lookup("node").unwrap();
    let first = s.signature().lookup("first").unwrap();
    for i in 0..n {
        s.insert(node, &[ElemId(i)]);
    }
    for i in 0..n - 1 {
        s.insert(e, &[ElemId(i), ElemId(i + 1)]);
    }
    s.insert(first, &[ElemId(n / 2)]);
    s
}

fn main() {
    let s = chain(512);
    let program = mdtw::datalog::parse_program(PROGRAM, &s).unwrap();

    // 1. What will run: the compiled join plans, per stratum.
    let session = Evaluator::new(program.clone()).unwrap();
    println!("== explain ==\n{}", session.explain(&s).render_text());

    // 2. What actually ran: a profiled evaluation.
    let mut session =
        Evaluator::with_options(program.clone(), EvalOptions::new().profile(true)).unwrap();
    let result = session.evaluate(&s).unwrap();
    let profile = result.profile.expect("profiling enabled");

    println!("== per-stratum timeline ==");
    for st in &profile.strata {
        println!(
            "stratum {}: {} rounds, {} facts, {:.1} us",
            st.index,
            st.rounds,
            st.facts,
            st.nanos as f64 / 1e3
        );
    }

    // The hot-rule diagnosis: rules ranked by time spent.
    println!("== hottest rules ==");
    for rp in profile.hottest_rules().iter().take(3) {
        println!(
            "rule {} ({}): {} firings, {} tuples considered, {} probes, {:.1} us",
            rp.rule,
            rp.head,
            rp.firings,
            rp.tuples_considered,
            rp.index_probes,
            rp.nanos as f64 / 1e3
        );
        // Observed selectivities, literal by literal: `tuples_in`
        // candidates enumerated at the join position, `tuples_out`
        // surviving unification — a selective early literal is what a
        // cost-based join order wants to schedule first.
        for lit in &rp.literals {
            let pred = &program.rules[rp.rule].body[lit.literal].atom.pred;
            let name = match *pred {
                mdtw::datalog::PredRef::Edb(p) => s.signature().name(p).to_owned(),
                mdtw::datalog::PredRef::Idb(i) => program.idb_names[i.0 as usize].clone(),
            };
            let sel = lit.tuples_out as f64 / (lit.tuples_in as f64).max(1.0);
            println!(
                "    literal {} ({name}): {} -> {} (selectivity {sel:.2})",
                lit.literal, lit.tuples_in, lit.tuples_out,
            );
        }
    }

    // 3. A tripped budget still tells you where the fuel went.
    let mut governed = Evaluator::with_options(
        program,
        EvalOptions::new()
            .profile(true)
            .limits(EvalLimits::new().fuel(200)),
    )
    .unwrap();
    match governed.evaluate(&s) {
        Err(EvalError::LimitExceeded {
            kind,
            stats,
            partial,
        }) => {
            println!("== tripped run ==");
            println!("budget tripped on {kind:?} after {} facts", stats.facts);
            let profile = partial
                .and_then(|p| p.profile)
                .expect("trip keeps the profile");
            println!(
                "tripped in stratum {:?}; partial timeline has {} strata",
                profile.trip_stratum,
                profile.strata.len()
            );
        }
        other => panic!("a 200-unit fuel budget must trip, got {other:?}"),
    }
}
