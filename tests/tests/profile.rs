//! Observability-layer pins: profiling must *observe* evaluation, never
//! change it.
//!
//! * Property test (96 random semipositive programs × structures): a
//!   profiled evaluation produces a store and [`EvalStats`]
//!   bit-identical to an unprofiled one.
//! * Fixture pins on the 3-stratum negation chain: per-rule firing
//!   counts in the profile sum to `EvalStats::firings`, and every
//!   positive literal of every fired rule carries a selectivity
//!   observation.
//! * A tripped budget still yields a profile, and the profile, its JSON
//!   and the error's `Display` all name the tripping stratum.

use mdtw_datalog::{
    parse_program, Atom, EvalError, EvalLimits, EvalOptions, Evaluator, IdbId, Literal, PredRef,
    Program, Rule, Term, Var,
};
use mdtw_structure::{Domain, ElemId, PredId, Signature, Structure};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

/// Raw material for one body literal: `(kind, arg, arg)`.
type RawLit = (u8, u8, u8);
/// Raw material for one rule:
/// `(head pick, (head arg, head arg), positive body, negative pick)`.
type RawRule = (u8, (u8, u8), Vec<RawLit>, RawLit);

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

fn var(i: u8) -> Term {
    Term::Var(Var((i % NVARS) as u32))
}

/// Builds a positive body literal from raw ints. Kinds: e/2, m/1, q0/1,
/// q1/2 (IDB ids 0 and 1).
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

/// Builds a random but always-safe semipositive program (same generator
/// family as the engine-equivalence suite): head variables and
/// negative-literal variables are drawn from the positive body.
fn build_program(raw_rules: &[RawRule], structure: &Structure) -> Program {
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

        let rule = Rule {
            head,
            body,
            var_count: NVARS as u32,
            var_names: vec!["X".into(), "Y".into(), "Z".into()],
        };
        assert!(rule.is_safe(), "generator must only build safe rules");
        program.rules.push(rule);
    }
    program
        .check_semipositive()
        .expect("generator must only build semipositive programs");
    program
}

/// The 3-stratum negation chain (the `stratified_reach` bench workload).
const STRATIFIED_PROGRAM: &str = "reach(X) :- first(X).\nreach(Y) :- reach(X), e(X, Y).\n\
     unreach(X) :- node(X), !reach(X).\n\
     settled(X) :- node(X), !unreach(X), !first(X).";

fn stratified_fixture(n: usize) -> (Structure, Program) {
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
    s.insert(first, &[ElemId(n as u32 / 2)]);
    let p = parse_program(STRATIFIED_PROGRAM, &s).unwrap();
    (s, p)
}

fn evaluate_at(
    program: &Program,
    structure: &Structure,
    profile: bool,
) -> mdtw_datalog::EvalResult {
    let mut session = Evaluator::with_options(program.clone(), EvalOptions::new().profile(profile))
        .expect("stratifiable program");
    session.evaluate(structure).expect("no limits, cannot trip")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Profiling is observation only: with profiling on, the store and
    /// the work counters are bit-identical to an unprofiled evaluation.
    #[test]
    fn profiling_never_changes_store_or_stats(
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
        let p = build_program(&raw_rules, &s);
        let off = evaluate_at(&p, &s, false);
        prop_assert!(off.profile.is_none(), "off must not allocate a profile");
        let on = evaluate_at(&p, &s, true);
        for idb in 0..p.idb_count() {
            let id = IdbId(idb as u32);
            prop_assert_eq!(
                off.store.tuples(id),
                on.store.tuples(id),
                "store must be bit-identical (idb {})",
                idb
            );
        }
        prop_assert_eq!(off.store.fact_count(), on.store.fact_count());
        prop_assert_eq!(off.stats, on.stats, "stats must be bit-identical");
        let profile = on.profile.expect("profiling enabled");
        prop_assert!(profile.trip_stratum.is_none());
    }
}

#[test]
fn per_rule_firings_sum_to_eval_stats() {
    let (s, p) = stratified_fixture(24);
    let result = evaluate_at(&p, &s, true);
    let profile = result.profile.expect("profiling enabled");
    assert_eq!(profile.strata.len(), result.stats.strata);
    assert_eq!(profile.strata.len(), 3, "the fixture has three strata");

    let firings: usize = profile
        .strata
        .iter()
        .flat_map(|st| st.rules.iter())
        .map(|r| r.firings)
        .sum();
    assert_eq!(firings, result.stats.firings);
    let tuples: usize = profile
        .strata
        .iter()
        .flat_map(|st| st.rules.iter())
        .map(|r| r.tuples_considered)
        .sum();
    assert_eq!(tuples, result.stats.tuples_considered);
    let facts: usize = profile.strata.iter().map(|st| st.facts).sum();
    assert_eq!(facts, result.stats.facts);

    // Per-rule attribution is real: every fixture head shows up, and the
    // recursive reach rule accounts for all rounds past the first.
    let mut heads: Vec<&str> = profile
        .strata
        .iter()
        .flat_map(|st| st.rules.iter())
        .filter(|r| r.firings > 0)
        .map(|r| r.head.as_str())
        .collect();
    heads.sort_unstable();
    heads.dedup();
    assert_eq!(heads, ["reach", "settled", "unreach"]);
    let recursive = profile.strata[0]
        .rules
        .iter()
        .find(|r| r.rule == 1)
        .expect("recursive reach rule profiled");
    assert!(recursive.firings >= 11, "chain half must be derived");
}

#[test]
fn literal_detail_observes_every_positive_literal_of_fired_rules() {
    let (s, p) = stratified_fixture(24);
    let result = evaluate_at(&p, &s, true);
    let profile = result.profile.expect("profiling enabled");

    let mut observed_rules = 0usize;
    for stratum in &profile.strata {
        for rp in &stratum.rules {
            if rp.firings == 0 {
                continue;
            }
            observed_rules += 1;
            let positives: Vec<usize> = p.rules[rp.rule]
                .body
                .iter()
                .enumerate()
                .filter(|(_, l)| l.positive)
                .map(|(i, _)| i)
                .collect();
            let recorded: Vec<usize> = rp.literals.iter().map(|l| l.literal).collect();
            assert_eq!(
                recorded, positives,
                "rule {} must carry one observation per positive body literal",
                rp.rule
            );
            for lit in &rp.literals {
                assert!(
                    lit.tuples_in >= lit.tuples_out,
                    "selectivity cannot exceed 1 (rule {}, literal {})",
                    rp.rule,
                    lit.literal
                );
            }
            // A fired rule's first join position enumerated candidates.
            assert!(rp.literals[0].tuples_in > 0);
        }
    }
    assert_eq!(observed_rules, 4, "all four fixture rules fire");
}

#[test]
fn tripped_budget_reports_stratum_in_display_profile_and_json() {
    let (s, p) = stratified_fixture(64);
    let mut session = Evaluator::with_options(
        p,
        EvalOptions::new()
            .profile(true)
            .limits(EvalLimits::new().fuel(40)),
    )
    .expect("stratifiable");
    let err = session.evaluate(&s).expect_err("a 40-unit budget trips");
    let EvalError::LimitExceeded {
        kind,
        stats,
        partial,
    } = err
    else {
        panic!("expected LimitExceeded");
    };
    let rebuilt = EvalError::LimitExceeded {
        kind,
        stats,
        partial: None,
    };
    let message = rebuilt.to_string();
    assert!(
        message.contains("in stratum"),
        "Display must name the tripping stratum: {message}"
    );

    let partial = partial.expect("trip keeps the partial result");
    let profile = partial.profile.expect("trip keeps the profile");
    let trip = profile.trip_stratum.expect("profile marks the trip");
    assert_eq!(
        trip, stats.strata,
        "the tripping stratum is the one after the completed count"
    );
    let rendered = profile.to_json().render();
    assert!(
        rendered.starts_with(&format!(r#"{{"trip_stratum":{trip},"#)),
        "the JSON names the tripping stratum: {rendered}"
    );
}
