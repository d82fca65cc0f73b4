//! Dead-rule pruning must be invisible: for any program and any declared
//! outputs, an `Evaluator` with those `outputs` (which drops every rule no
//! output depends on) derives exactly the same facts for every output
//! predicate (and everything an output transitively depends on) as a
//! session without declared outputs.

use mdtw_datalog::{parse_program, relevant_rules, EvalOptions, Evaluator};
use mdtw_structure::{Domain, ElemId, Signature, Structure};
use proptest::prelude::*;
use std::sync::Arc;

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

/// One random rule for head predicate `q<head>`. Negation and positive
/// IDB dependencies only target strictly lower-numbered predicates, so
/// every generated program is safe and stratified by construction
/// (self-recursion is positive).
fn render_rule(head: usize, kind: u8, dep: usize) -> String {
    let h = format!("q{head}");
    let d = format!("q{}", if head == 0 { 0 } else { dep % head });
    match kind % 7 {
        0 => format!("{h}(X) :- node(X)."),
        1 => format!("{h}(X) :- first(X)."),
        2 => format!("{h}(X) :- e(X, Y), node(Y)."),
        3 if head > 0 => format!("{h}(X) :- node(X), {d}(X)."),
        4 if head > 0 => format!("{h}(X) :- node(X), !{d}(X)."),
        5 if head > 0 => format!("{h}(Y) :- {d}(X), e(X, Y)."),
        _ => format!("{h}(Y) :- {h}(X), e(X, Y)."),
    }
}

/// Random programs as source text plus a nonempty output set.
fn arb_program() -> impl Strategy<Value = (String, Vec<String>)> {
    (1usize..=5).prop_flat_map(|npreds| {
        let rules = proptest::collection::vec((0..npreds, 0u8..7, 0usize..8), npreds..=3 * npreds);
        let mask = proptest::collection::vec(0u8..2, npreds);
        (rules, mask).prop_map(move |(rules, mask)| {
            let source: Vec<String> = rules
                .iter()
                .map(|&(head, kind, dep)| render_rule(head, kind, dep))
                .collect();
            let mut outputs: Vec<String> = (0..npreds)
                .filter(|&i| mask[i] == 1)
                .map(|i| format!("q{i}"))
                .collect();
            if outputs.is_empty() {
                outputs.push("q0".into());
            }
            (source.join("\n"), outputs)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pruned_evaluation_matches_unpruned_on_outputs((source, outputs) in arb_program()) {
        let s = chain(9);
        let program = parse_program(&source, &s).expect("generated programs parse");
        let mut plain = Evaluator::new(program.clone()).expect("generated programs stratify");
        let mut pruned = Evaluator::with_options(
            program,
            EvalOptions::new().outputs(outputs.iter().cloned()),
        )
        .expect("pruning preserves stratifiability");

        let a = plain.evaluate(&s).unwrap();
        let b = pruned.evaluate(&s).unwrap();

        // Every output — and every predicate an output depends on — has
        // the identical relation. Relevance is computed on the unpruned
        // program, so the check covers the whole closure.
        let output_ids: Vec<_> = outputs.iter().filter_map(|o| plain.program().idb(o)).collect();
        let relevant = relevant_rules(plain.program(), &output_ids);
        let mut relevant_preds = vec![false; plain.program().idb_count()];
        for (i, rule) in plain.program().rules.iter().enumerate() {
            if relevant[i] {
                if let mdtw_datalog::PredRef::Idb(h) = rule.head.pred {
                    relevant_preds[h.index()] = true;
                }
                for lit in &rule.body {
                    if let mdtw_datalog::PredRef::Idb(p) = lit.atom.pred {
                        relevant_preds[p.index()] = true;
                    }
                }
            }
        }
        for name in &outputs {
            if let Some(id) = plain.program().idb(name) {
                relevant_preds[id.index()] = true;
            }
        }
        for (p, &rel) in relevant_preds.iter().enumerate() {
            if rel {
                let id = mdtw_datalog::IdbId(p as u32);
                prop_assert_eq!(
                    a.store.tuples(id),
                    b.store.tuples(id),
                    "predicate q{} differs (pruned {} rules)\n{}",
                    p,
                    pruned.pruned_rule_count(),
                    source
                );
            }
        }

        // Stats stay compatible: pruning can only remove work.
        prop_assert!(b.stats.facts <= a.stats.facts);
        prop_assert!(b.stats.strata <= a.stats.strata);
        prop_assert!(pruned.program().rules.len() + pruned.pruned_rule_count()
            == plain.program().rules.len());
    }
}

#[test]
fn crafted_workload_prunes_rules_with_bit_identical_store() {
    // `reach` is the output; the `dead`/`deader`/`island` fragment (3
    // rules) is irrelevant and must be pruned without disturbing a single
    // derived tuple of the relevant closure.
    let src = "reach(X) :- first(X).\n\
               reach(Y) :- reach(X), e(X, Y).\n\
               far(X) :- reach(X), node(X).\n\
               dead(X) :- node(X), e(X, Y).\n\
               deader(X) :- dead(X), !far(X).\n\
               island(X) :- island(X), node(X).";
    let s = chain(11);
    let program = parse_program(src, &s).unwrap();
    let outputs = ["reach", "far"];

    let mut plain = Evaluator::new(program.clone()).unwrap();
    let mut pruned = Evaluator::with_options(program, EvalOptions::new().outputs(outputs)).unwrap();

    assert_eq!(pruned.pruned_rule_count(), 3, "dead fragment dropped");
    assert_eq!(pruned.program().rules.len(), 3);

    let a = plain.evaluate(&s).unwrap();
    let b = pruned.evaluate(&s).unwrap();
    for name in outputs {
        let id = plain.program().idb(name).unwrap();
        assert_eq!(a.store.tuples(id), b.store.tuples(id), "{name}");
        assert!(!a.store.tuples(id).is_empty(), "{name} derives facts");
    }
    assert!(
        b.stats.facts < a.stats.facts,
        "pruning skipped the dead fragment's facts"
    );
}
