//! Stratified negation, cross-validated three ways:
//!
//! * a property test that a default `Evaluator` session on random
//!   *semipositive* programs takes the single-stratum fast path, matches
//!   the naive ground truth, and is bit-identical when the session is
//!   reused (warm plan cache);
//! * a property test that the stratified session agrees with an
//!   independent brute-force per-stratum oracle on random *stratified*
//!   programs whose rules negate derived predicates;
//! * pinned multi-stratum fixtures (3 strata, negation chains) with exact
//!   expected models, checked against the same oracle.

use mdtw_datalog::{
    parse_program, stratify, Atom, EvalError, Evaluator, IdbId, Literal, PredRef, Program, Rule,
    StratificationError, Term, Var,
};
use mdtw_structure::{Domain, ElemId, PredId, Signature, Structure};
use mdtw_tests::naive_model;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

const NVARS: u8 = 3;

fn build_structure(n: usize, edges: &[(u8, u8)], marks: &[u8]) -> Structure {
    let sig = Arc::new(Signature::from_pairs([("e", 2), ("m", 1)]));
    let dom = Domain::anonymous(n);
    let mut s = Structure::new(sig, dom);
    let e = s.signature().lookup("e").unwrap();
    let m = s.signature().lookup("m").unwrap();
    for &(a, b) in edges {
        s.insert(
            e,
            &[ElemId(a as u32 % n as u32), ElemId(b as u32 % n as u32)],
        );
    }
    for &a in marks {
        s.insert(m, &[ElemId(a as u32 % n as u32)]);
    }
    s
}

// ---------------------------------------------------------------------------
// Brute-force per-stratum oracle
// ---------------------------------------------------------------------------

/// Evaluates `program` stratum by stratum with brute-force substitution
/// enumeration: every rule is tried under every assignment of domain
/// elements to its variables, positives and negatives are checked against
/// the fact sets directly, and each stratum runs to fixpoint before the
/// next starts. Independent of the engine's join plans, delta sets,
/// rewriting and materialization — it shares only the stratum assignment.
fn oracle(program: &Program, s: &Structure) -> Vec<Vec<Vec<ElemId>>> {
    let strat = stratify(program).expect("oracle needs a stratifiable program");
    let elems: Vec<ElemId> = s.domain().elems().collect();
    let mut facts: Vec<HashSet<Vec<ElemId>>> = vec![HashSet::new(); program.idb_count()];

    let instantiate = |atom: &Atom, asg: &[ElemId]| -> Vec<ElemId> {
        atom.terms
            .iter()
            .map(|t| match t {
                Term::Const(c) => *c,
                Term::Var(v) => asg[v.index()],
            })
            .collect()
    };

    for stratum_rules in strat.strata() {
        loop {
            let mut changed = false;
            for &ri in stratum_rules {
                let rule = &program.rules[ri];
                let nvars = rule.var_count as usize;
                // Odometer over all assignments domain^nvars (including
                // the single empty assignment for ground rules).
                let mut asg: Vec<usize> = vec![0; nvars];
                'assignments: loop {
                    let values: Vec<ElemId> = asg.iter().map(|&i| elems[i]).collect();
                    let body_holds = rule.body.iter().all(|lit| {
                        let tuple = instantiate(&lit.atom, &values);
                        let holds = match lit.atom.pred {
                            PredRef::Edb(p) => s.holds(p, &tuple),
                            PredRef::Idb(id) => facts[id.index()].contains(&tuple),
                        };
                        holds == lit.positive
                    });
                    if body_holds {
                        let head = instantiate(&rule.head, &values);
                        let PredRef::Idb(id) = rule.head.pred else {
                            panic!("oracle: IDB heads only");
                        };
                        changed |= facts[id.index()].insert(head);
                    }
                    // Next assignment.
                    for slot in &mut asg {
                        *slot += 1;
                        if *slot < elems.len() {
                            continue 'assignments;
                        }
                        *slot = 0;
                    }
                    break;
                }
            }
            if !changed {
                break;
            }
        }
    }

    facts
        .into_iter()
        .map(|set| {
            let mut v: Vec<Vec<ElemId>> = set.into_iter().collect();
            v.sort();
            v
        })
        .collect()
}

fn assert_store_matches_oracle(program: &Program, s: &Structure) {
    let expected = oracle(program, s);
    let result = Evaluator::new(program.clone())
        .unwrap()
        .evaluate(s)
        .unwrap();
    let (store, stats) = (result.store, result.stats);
    let mut total = 0;
    for (idb, expected_tuples) in expected.iter().enumerate() {
        let id = IdbId(idb as u32);
        assert_eq!(
            &store.tuples(id),
            expected_tuples,
            "idb {} (`{}`)",
            idb,
            program.idb_names[idb]
        );
        total += expected_tuples.len();
    }
    assert_eq!(stats.facts, total, "facts counter matches the model size");
    assert_eq!(store.fact_count(), total);
}

// ---------------------------------------------------------------------------
// Pinned multi-stratum fixtures
// ---------------------------------------------------------------------------

fn fixture_structure() -> Structure {
    // 0 → 1 → 2, isolated 3, self-loop 4; marks on 0 and 3.
    build_structure(5, &[(0, 1), (1, 2), (4, 4)], &[0, 3])
}

#[test]
fn three_stratum_negation_chain_pinned() {
    let s = fixture_structure();
    let p = parse_program(
        "reach(X) :- m(X).\n\
         reach(Y) :- reach(X), e(X, Y).\n\
         dark(X) :- e(X, Y), !reach(X).\n\
         calm(X) :- m(X), !dark(X), !e(X, X).",
        &s,
    )
    .unwrap();
    let mut session = Evaluator::new(p.clone()).unwrap();
    let strat = session.stratification();
    assert_eq!(strat.stratum_count(), 3);
    assert_eq!(strat.stratum_of(p.idb("reach").unwrap()), 0);
    assert_eq!(strat.stratum_of(p.idb("dark").unwrap()), 1);
    assert_eq!(strat.stratum_of(p.idb("calm").unwrap()), 2);

    let result = session.evaluate(&s).unwrap();
    let (store, stats) = (result.store, result.stats);
    assert_eq!(stats.strata, 3);
    // reach = {0,1,2,3}; dark = sources not reached = {4}; calm = marked,
    // not dark, no self-loop = {0,3}.
    assert_eq!(
        store.unary(p.idb("reach").unwrap()),
        vec![ElemId(0), ElemId(1), ElemId(2), ElemId(3)]
    );
    assert_eq!(store.unary(p.idb("dark").unwrap()), vec![ElemId(4)]);
    assert_eq!(
        store.unary(p.idb("calm").unwrap()),
        vec![ElemId(0), ElemId(3)]
    );
    assert_store_matches_oracle(&p, &s);
}

#[test]
fn defended_nodes_fixture_matches_oracle() {
    // Attack digraph: 0→1, 1→2, 3→2, 2→3 (2 and 3 attack each other).
    let s = build_structure(5, &[(0, 1), (1, 2), (3, 2), (2, 3)], &[0, 1, 2, 3, 4]);
    let p = parse_program(
        "attacked(X) :- e(Y, X).\n\
         unanswered(X) :- e(Y, X), !attacked(Y).\n\
         defended(X) :- m(X), !unanswered(X).",
        &s,
    )
    .unwrap();
    let result = Evaluator::new(p.clone()).unwrap().evaluate(&s).unwrap();
    let (store, stats) = (result.store, result.stats);
    assert_eq!(stats.strata, 3);
    // attacked = {1,2,3}; unanswered = {1} (only 0 is an unattacked
    // attacker); defended = everything else = {0,2,3,4}.
    assert_eq!(store.unary(p.idb("unanswered").unwrap()), vec![ElemId(1)]);
    assert_eq!(
        store.unary(p.idb("defended").unwrap()),
        vec![ElemId(0), ElemId(2), ElemId(3), ElemId(4)]
    );
    assert_store_matches_oracle(&p, &s);
}

#[test]
fn recursion_above_a_negation_matches_oracle() {
    // Stratum 1 recurses (transitively closes) over facts that exist only
    // because of a negation — the materialized lower stratum must feed
    // the higher stratum's semi-naive loop.
    let s = build_structure(6, &[(0, 1), (1, 2), (2, 3), (3, 4)], &[0]);
    let p = parse_program(
        "near(X) :- m(X).\n\
         near(Y) :- near(X), e(X, Y), !m(Y).\n\
         far_edge(X, Y) :- e(X, Y), !near(X).\n\
         far_path(X, Y) :- far_edge(X, Y).\n\
         far_path(X, Z) :- far_path(X, Y), far_edge(Y, Z).",
        &s,
    )
    .unwrap();
    let strat = stratify(&p).unwrap();
    assert_eq!(strat.stratum_count(), 2);
    assert_store_matches_oracle(&p, &s);
}

/// One multi-stratum session over three signatures: {e, m}, then
/// {e, m, x, y} with the same prefix, then a fresh but equal {e, m}.
/// Every answer equals a fresh session's. The extension is rebuilt for
/// each new signature, but plans compiled for a predicate layout serve
/// it again: the third call reuses all three strata's plans.
#[test]
fn signature_change_keeps_answers_and_plans() {
    let wide = || {
        let sig = Arc::new(Signature::from_pairs([
            ("e", 2),
            ("m", 1),
            ("x", 1),
            ("y", 2),
        ]));
        let mut s = Structure::new(Arc::clone(&sig), Domain::anonymous(5));
        let narrow = fixture_structure();
        for p in narrow.signature().preds() {
            for tuple in narrow.relation(p).iter() {
                s.insert(p, tuple);
            }
        }
        s.insert(sig.lookup("x").unwrap(), &[ElemId(2)]);
        s.insert(sig.lookup("y").unwrap(), &[ElemId(1), ElemId(4)]);
        s
    };
    let p = parse_program(
        "reach(X) :- m(X).\n\
         reach(Y) :- reach(X), e(X, Y).\n\
         dark(X) :- e(X, Y), !reach(X).\n\
         calm(X) :- m(X), !dark(X), !e(X, X).",
        &fixture_structure(),
    )
    .unwrap();
    let mut session = Evaluator::new(p.clone()).unwrap();
    let mut hits = Vec::new();
    for s in [fixture_structure(), wide(), fixture_structure()] {
        let got = session.evaluate(&s).unwrap();
        let fresh = Evaluator::new(p.clone()).unwrap().evaluate(&s).unwrap();
        for i in 0..p.idb_count() {
            let id = IdbId(i as u32);
            assert_eq!(got.store.tuples(id), fresh.store.tuples(id));
        }
        assert_eq!(got.stats.facts, fresh.stats.facts);
        assert_eq!(got.stats.firings, fresh.stats.firings);
        hits.push(got.stats.plan_cache_hits);
    }
    assert_eq!(hits, [0, 0, 3]);
}

#[test]
fn negation_in_scc_fails_with_named_cycle() {
    // win-move over `e`, hand-built (the parser already rejects it).
    let mut p = Program::default();
    let s = fixture_structure();
    let e = s.signature().lookup("e").unwrap();
    let win = p.intern_idb("win", 1).unwrap();
    p.rules.push(Rule {
        head: Atom {
            pred: PredRef::Idb(win),
            terms: vec![Term::Var(Var(0))],
        },
        body: vec![
            Literal {
                atom: Atom {
                    pred: PredRef::Edb(e),
                    terms: vec![Term::Var(Var(0)), Term::Var(Var(1))],
                },
                positive: true,
            },
            Literal {
                atom: Atom {
                    pred: PredRef::Idb(win),
                    terms: vec![Term::Var(Var(1))],
                },
                positive: false,
            },
        ],
        var_count: 2,
        var_names: vec!["X".into(), "Y".into()],
    });
    let err = Evaluator::new(p).unwrap_err();
    match &err {
        EvalError::Stratification(StratificationError::NegativeCycle {
            rule,
            negated,
            cycle,
        }) => {
            assert_eq!(*rule, 0);
            assert_eq!(negated, "win");
            assert_eq!(cycle, &vec!["win".to_string()]);
        }
        other => panic!("expected NegativeCycle, got {other:?}"),
    }
    assert!(err.to_string().contains("win"));

    // The parser rejects the same program with the cycle in the message.
    let perr = parse_program("win(X) :- e(X, Y), !win(Y).", &s).unwrap_err();
    assert!(perr.message.contains("win"), "{perr}");
    assert!(perr.message.contains("recursive component"), "{perr}");
}

// ---------------------------------------------------------------------------
// Random semipositive programs: the session fast path ≡ ground truth
// ---------------------------------------------------------------------------

/// Raw material for one body literal: `(kind, arg, arg)`.
type RawLit = (u8, u8, u8);
/// Raw rule: `(head pick, (head args), positive body, negative pick)`.
type RawRule = (u8, (u8, u8), Vec<RawLit>, RawLit);

fn var(i: u8) -> Term {
    Term::Var(Var((i % NVARS) as u32))
}

/// Positive body literal kinds: e/2, m/1, q0/1, q1/2.
fn positive_literal(raw: RawLit, e: PredId, m: PredId) -> Literal {
    let (kind, a, b) = raw;
    let atom = match kind % 4 {
        0 => Atom {
            pred: PredRef::Edb(e),
            terms: vec![var(a), var(b)],
        },
        1 => Atom {
            pred: PredRef::Edb(m),
            terms: vec![var(a)],
        },
        2 => Atom {
            pred: PredRef::Idb(IdbId(0)),
            terms: vec![var(a)],
        },
        _ => Atom {
            pred: PredRef::Idb(IdbId(1)),
            terms: vec![var(a), var(b)],
        },
    };
    Literal {
        atom,
        positive: true,
    }
}

/// A random always-safe *semipositive* program over q0/1 and q1/2 (the
/// generator of `engine_equivalence`, reused for the stratified-vs-plain
/// agreement property).
fn build_semipositive_program(raw_rules: &[RawRule], structure: &Structure) -> Program {
    let e = structure.signature().lookup("e").unwrap();
    let m = structure.signature().lookup("m").unwrap();
    let mut program = Program::default();
    program.intern_idb("q0", 1).unwrap();
    program.intern_idb("q1", 2).unwrap();

    for (head_pick, (h1, h2), body_raw, neg_raw) in raw_rules {
        let body: Vec<Literal> = body_raw
            .iter()
            .map(|&raw| positive_literal(raw, e, m))
            .collect();
        let mut pos_vars: Vec<Var> = body
            .iter()
            .flat_map(|l| l.atom.vars().collect::<Vec<_>>())
            .collect();
        pos_vars.sort();
        pos_vars.dedup();
        let pick = |sel: u8| Term::Var(pos_vars[sel as usize % pos_vars.len()]);

        let head = if head_pick % 2 == 0 {
            Atom {
                pred: PredRef::Idb(IdbId(0)),
                terms: vec![pick(*h1)],
            }
        } else {
            Atom {
                pred: PredRef::Idb(IdbId(1)),
                terms: vec![pick(*h1), pick(*h2)],
            }
        };

        let mut body = body;
        let (nkind, na, nb) = *neg_raw;
        match nkind % 3 {
            0 => {}
            1 => body.push(Literal {
                atom: Atom {
                    pred: PredRef::Edb(e),
                    terms: vec![pick(na), pick(nb)],
                },
                positive: false,
            }),
            _ => body.push(Literal {
                atom: Atom {
                    pred: PredRef::Edb(m),
                    terms: vec![pick(na)],
                },
                positive: false,
            }),
        }

        program.rules.push(Rule {
            head,
            body,
            var_count: NVARS as u32,
            var_names: vec!["X".into(), "Y".into(), "Z".into()],
        });
    }
    program
        .check_semipositive()
        .expect("generator builds semipositive programs");
    program
}

/// Like the semipositive generator, but with a third predicate `q2/1`
/// whose rules may *negate* q0, q1 or self-recurse positively — always
/// stratifiable by construction (q2 never occurs below q0/q1).
fn build_stratified_program(
    raw_rules: &[RawRule],
    upper_rules: &[(u8, Vec<RawLit>, RawLit)],
    structure: &Structure,
) -> Program {
    let e = structure.signature().lookup("e").unwrap();
    let m = structure.signature().lookup("m").unwrap();
    let mut program = build_semipositive_program(raw_rules, structure);
    let q2 = program.intern_idb("q2", 1).unwrap();

    for (h1, body_raw, neg_raw) in upper_rules {
        // Positive kinds here: e/2, m/1, q0/1, q1/2, q2/1.
        let body: Vec<Literal> = body_raw
            .iter()
            .map(|&(kind, a, b)| match kind % 5 {
                4 => Literal {
                    atom: Atom {
                        pred: PredRef::Idb(q2),
                        terms: vec![var(a)],
                    },
                    positive: true,
                },
                k => positive_literal((k, a, b), e, m),
            })
            .collect();
        let mut pos_vars: Vec<Var> = body
            .iter()
            .flat_map(|l| l.atom.vars().collect::<Vec<_>>())
            .collect();
        pos_vars.sort();
        pos_vars.dedup();
        let pick = |sel: u8| Term::Var(pos_vars[sel as usize % pos_vars.len()]);

        let mut body = body;
        let (nkind, na, nb) = *neg_raw;
        // Negative kinds: none, !e, !m, !q0, !q1 — the last two negate
        // *derived* predicates of the stratum below.
        match nkind % 5 {
            0 => {}
            1 => body.push(Literal {
                atom: Atom {
                    pred: PredRef::Edb(e),
                    terms: vec![pick(na), pick(nb)],
                },
                positive: false,
            }),
            2 => body.push(Literal {
                atom: Atom {
                    pred: PredRef::Edb(m),
                    terms: vec![pick(na)],
                },
                positive: false,
            }),
            3 => body.push(Literal {
                atom: Atom {
                    pred: PredRef::Idb(IdbId(0)),
                    terms: vec![pick(na)],
                },
                positive: false,
            }),
            _ => body.push(Literal {
                atom: Atom {
                    pred: PredRef::Idb(IdbId(1)),
                    terms: vec![pick(na), pick(nb)],
                },
                positive: false,
            }),
        }

        program.rules.push(Rule {
            head: Atom {
                pred: PredRef::Idb(q2),
                terms: vec![pick(*h1)],
            },
            body,
            var_count: NVARS as u32,
            var_names: vec!["X".into(), "Y".into(), "Z".into()],
        });
    }
    for rule in &program.rules {
        assert!(rule.is_safe(), "generator must only build safe rules");
    }
    program
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn session_fast_path_on_semipositive_programs(
        n in 2usize..6,
        edges in vec((0u8..8, 0u8..8), 0..10),
        marks in vec(0u8..8, 0..4),
        raw_rules in vec(
            (
                0u8..4,
                (0u8..8, 0u8..8),
                vec((0u8..8, 0u8..8, 0u8..8), 1..4),
                (0u8..6, 0u8..8, 0u8..8),
            ),
            1..5,
        ),
    ) {
        let s = build_structure(n, &edges, &marks);
        let p = build_semipositive_program(&raw_rules, &s);
        // A default session on a semipositive program takes the
        // single-stratum fast path (no rewriting, no extension).
        let mut session = Evaluator::new(p.clone()).unwrap();
        let cold = session.evaluate(&s).unwrap();
        prop_assert_eq!(cold.stats.strata, 1);
        prop_assert_eq!(cold.stats.plan_cache_hits, 0);
        // Warm session reuse is bit-identical, modulo the cache hit.
        let warm = session.evaluate(&s).unwrap();
        prop_assert_eq!(warm.stats.plan_cache_hits, 1);
        for idb in 0..p.idb_count() {
            let id = IdbId(idb as u32);
            prop_assert_eq!(cold.store.tuples(id), warm.store.tuples(id), "idb {}", idb);
        }
        prop_assert_eq!(cold.stats.facts, warm.stats.facts);
        prop_assert_eq!(cold.stats.firings, warm.stats.firings);
        prop_assert_eq!(cold.stats.rounds, warm.stats.rounds);
        prop_assert_eq!(cold.stats.negative_checks, warm.stats.negative_checks);
        // And the fixpoint matches the naive ground truth.
        let naive = naive_model(&p, &s);
        for (idb, model) in naive.relations.iter().enumerate() {
            let id = IdbId(idb as u32);
            prop_assert_eq!(model, &cold.store.tuples(id), "idb {}", idb);
        }
        prop_assert_eq!(naive.relations.iter().map(Vec::len).sum::<usize>(), cold.stats.facts);
    }

    #[test]
    fn stratified_matches_bruteforce_oracle(
        n in 2usize..5,
        edges in vec((0u8..8, 0u8..8), 0..8),
        marks in vec(0u8..8, 0..4),
        raw_rules in vec(
            (
                0u8..4,
                (0u8..8, 0u8..8),
                vec((0u8..8, 0u8..8, 0u8..8), 1..3),
                (0u8..6, 0u8..8, 0u8..8),
            ),
            1..4,
        ),
        upper_rules in vec(
            (
                0u8..8,
                vec((0u8..10, 0u8..8, 0u8..8), 1..3),
                (0u8..10, 0u8..8, 0u8..8),
            ),
            1..4,
        ),
    ) {
        let s = build_structure(n, &edges, &marks);
        let p = build_stratified_program(&raw_rules, &upper_rules, &s);
        let expected = oracle(&p, &s);
        let result = Evaluator::new(p.clone()).unwrap().evaluate(&s).unwrap();
        let (store, stats) = (result.store, result.stats);
        let mut total = 0;
        for (idb, expected_tuples) in expected.iter().enumerate() {
            let id = IdbId(idb as u32);
            prop_assert_eq!(&store.tuples(id), expected_tuples, "idb {}", idb);
            total += expected_tuples.len();
        }
        prop_assert_eq!(stats.facts, total);
        prop_assert!(stats.strata >= 1);
    }
}
