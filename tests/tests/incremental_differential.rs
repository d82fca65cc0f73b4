//! Differential property tests for incremental view maintenance: a
//! [`MaterializedView`] fed random interleaved insert/retract batches
//! must stay **bit-identical** to a from-scratch `evaluate()` of the
//! mutated base structure — for a semipositive program (recursion plus
//! negated extensional atoms in one stratum), a three-stratum program
//! whose deltas must cross two negation boundaries, a nonlinear program
//! whose rules join two intensional literals and carry constants and
//! repeated variables, and a program whose head predicate has three
//! rules that each re-derive different overdeleted facts. Pinned edge
//! cases cover the empty-delta no-op, retract-everything, the three-rule
//! re-derivation, and a fault-injection sweep over governed maintenance.
//! After every batch, every relation of the view must also pass
//! [`Relation::check_invariants`](mdtw_structure::Relation::check_invariants).
//! A fifth program carries redundant rules and a dead rule, and a sweep
//! over all eight combinations of `prune_dead_rules`,
//! `profile(Off | Rules)` and `limits(none | a generous fresh budget)`
//! (each with `outputs`) checks that a materialized view's outputs agree
//! with a default session over the original program after
//! materialization and after every batch.

use mdtw_datalog::{
    parse_program, EvalError, EvalLimits, EvalOptions, Evaluator, IdbId, LimitKind,
    MaterializedView, ProfileDetail, Update,
};
use mdtw_structure::{Domain, ElemId, PredId, Signature, Structure};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

/// Single stratum: recursion + negation on extensional atoms, so edge
/// deltas flow through both the positive and the negated side.
const SEMIPOSITIVE: &str = "t(X, Y) :- e(X, Y).\n\
                            t(X, Z) :- t(X, Y), e(Y, Z).\n\
                            nl(X, Y) :- m(X), m(Y), !e(X, Y).";

/// Three strata: `r` (reachability from marks), `u`/`uu` negating `r`,
/// `z` negating `uu` — a base delta has to propagate across two
/// derived-negation boundaries as extended-EDB deltas.
const STRATIFIED: &str = "r(X) :- m(X).\n\
                          r(Y) :- r(X), e(X, Y).\n\
                          u(X, Y) :- e(X, Y), !r(Y).\n\
                          uu(X) :- u(X, Y).\n\
                          z(X) :- m(X), !uu(X).";

/// Two intensional literals per rule body: overdeletion propagates
/// through delta plans whose other literal reads the pre-update store,
/// and re-derivation runs head-bound plans over two store relations.
/// `hub` adds a constant, a repeated body variable and a negation;
/// `twin` repeats a head variable and `top` puts a constant in the head,
/// so re-derivation must unify those against the fact.
const NONLINEAR: &str = "t(X, Y) :- e(X, Y).\n\
                         t(X, Z) :- t(X, Y), t(Y, Z).\n\
                         hub(X) :- t(x0, X), t(X, X), !m(X).\n\
                         twin(X, X) :- m(X), t(X, Y).\n\
                         top(x1, Y) :- t(Y, x1).";

/// One head predicate, `c`, defined by three rules: a mark, a marked or
/// reached predecessor, and an unmarked vertex on a cycle. An overdeleted
/// `c` fact can survive through any of them, so re-derivation, which runs
/// rule by rule over all overdeleted facts of the head predicate, must
/// skip the facts an earlier rule already re-derived and find the others
/// through later rules.
const MULTI_RULE: &str = "t(X, Y) :- e(X, Y).\n\
                          t(X, Z) :- t(X, Y), e(Y, Z).\n\
                          c(X) :- m(X).\n\
                          c(Y) :- c(X), e(X, Y).\n\
                          c(X) :- t(X, X), !m(X).";

/// Redundant rules and a dead one: `p`'s second rule is contained in its
/// first, `q` repeats a literal, `b`'s recursive rule adds nothing, `w`
/// negates a derived predicate, and `dead` feeds no output
/// (`prune_dead_rules` drops it).
const REDUNDANT: &str = "p(X) :- m(X).\n\
                         p(X) :- m(X), e(X, Y).\n\
                         q(X, Y) :- e(X, Y), e(X, Y).\n\
                         b(X) :- m(X).\n\
                         b(X) :- b(X), e(X, X).\n\
                         w(X) :- q(X, Y), p(Y), !b(X).\n\
                         dead(X) :- e(X, Y), !w(Y).";

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

/// One base mutation: insert?/retract (odd = insert), edge?/mark
/// (odd = edge), endpoints (taken modulo the domain size).
type Mutation = (u8, u8, u8, u8);

fn sorted_rel(s: &Structure, p: PredId) -> Vec<Vec<ElemId>> {
    let mut rows: Vec<Vec<ElemId>> = s.relation(p).iter().map(<[ElemId]>::to_vec).collect();
    rows.sort_unstable();
    rows
}

/// The invariant: the view's base equals the independently mutated
/// structure, and its store is bit-identical (per-predicate sorted
/// tuple lists) to a cold evaluation of that structure.
fn assert_view_matches(view: &MaterializedView, expected: &Structure, ctx: &str) {
    let base = view.base_structure();
    for i in 0..expected.signature().len() {
        let p = PredId(i as u32);
        assert_eq!(
            sorted_rel(&base, p),
            sorted_rel(expected, p),
            "{ctx}: base relation `{}` diverged",
            expected.signature().name(p)
        );
    }
    let mut fresh = Evaluator::new(view.program().clone()).unwrap();
    let result = fresh.evaluate(expected).unwrap();
    for i in 0..view.program().idb_count() {
        let id = IdbId(i as u32);
        assert_eq!(
            view.store().tuples(id),
            result.store.tuples(id),
            "{ctx}: derived `{}` diverged from scratch evaluation",
            view.program().idb_names[i]
        );
    }
}

/// Turns one batch into an [`Update`] and mirrors its normalized set
/// semantics (retracts first, inserts win) on `expected`.
fn stage(batch: &[Mutation], n: usize, expected: &mut Structure) -> Update {
    let e = expected.signature().lookup("e").unwrap();
    let m = expected.signature().lookup("m").unwrap();
    let mutation = |&(_, is_edge, a, b): &Mutation| {
        let a = ElemId(a as u32 % n as u32);
        let b = ElemId(b as u32 % n as u32);
        if is_edge % 2 == 1 {
            (e, vec![a, b])
        } else {
            (m, vec![a])
        }
    };
    let mut update = Update::new();
    for step in batch {
        let (pred, tuple) = mutation(step);
        if step.0 % 2 == 1 {
            update.push_insert(pred, &tuple);
        } else {
            update.push_retract(pred, &tuple);
        }
    }
    for pass in [0u8, 1] {
        for step in batch.iter().filter(|step| step.0 % 2 == pass) {
            let (pred, tuple) = mutation(step);
            if pass == 0 {
                expected.retract(pred, &tuple);
            } else {
                expected.insert(pred, &tuple);
            }
        }
    }
    update
}

/// Applies the batches to a view and, in lockstep, to a plain mutable
/// structure; checks the invariant after every batch.
fn run_case(source: &str, n: usize, edges: &[(u8, u8)], marks: &[u8], batches: &[Vec<Mutation>]) {
    let mut expected = build_structure(n, edges, marks);
    let program = parse_program(source, &expected).unwrap();
    let mut view = Evaluator::new(program)
        .unwrap()
        .materialize(&expected)
        .unwrap();
    assert_view_matches(&view, &expected, "initial materialization");
    for (bi, batch) in batches.iter().enumerate() {
        view.apply(&stage(batch, n, &mut expected));
        assert_view_matches(&view, &expected, &format!("after batch {bi}"));
        check_storage(&view);
    }
}

/// A fuel budget no sweep case comes near: the governed path runs, but
/// never trips.
const GENEROUS_FUEL: u64 = 1 << 40;

/// Every combination of `prune_dead_rules`, `profile(Off | Rules)` and
/// `limits(none | a fresh generous budget)`, each with `outputs`
/// declared: after materialization and after every batch, the view's
/// output predicates equal a default session's over the original
/// program and the mutated structure, and no batch falls back.
fn run_options_case(
    source: &str,
    outputs: &[&str],
    n: usize,
    edges: &[(u8, u8)],
    marks: &[u8],
    batches: &[Vec<Mutation>],
) {
    let initial = build_structure(n, edges, marks);
    let original = parse_program(source, &initial).unwrap();
    let assert_outputs = |view: &MaterializedView, expected: &Structure, ctx: &str| {
        let oracle = Evaluator::new(original.clone())
            .unwrap()
            .evaluate(expected)
            .unwrap();
        for name in outputs {
            let in_view = view.program().idb(name).expect("outputs keep their names");
            assert_eq!(
                view.store().tuples(in_view),
                oracle.store.tuples(original.idb(name).unwrap()),
                "{ctx}: output `{name}` diverged from a default session"
            );
        }
    };
    for combo in 0..8u8 {
        let mut options = EvalOptions::new()
            .outputs(outputs.iter().copied())
            .prune_dead_rules(combo & 1 != 0)
            .profile(if combo & 2 != 0 {
                ProfileDetail::Rules
            } else {
                ProfileDetail::Off
            });
        if combo & 4 != 0 {
            options = options.limits(EvalLimits::new().fuel(GENEROUS_FUEL));
        }
        let mut expected = initial.clone();
        let mut view = Evaluator::with_options(original.clone(), options)
            .unwrap()
            .materialize(&expected)
            .unwrap();
        assert_outputs(
            &view,
            &expected,
            &format!("options {combo:03b}, materialized"),
        );
        for (bi, batch) in batches.iter().enumerate() {
            let profile = view.apply(&stage(batch, n, &mut expected));
            let ctx = format!("options {combo:03b}, batch {bi}");
            assert_eq!(profile.fell_back, None, "{ctx}: generous budget tripped");
            assert_outputs(&view, &expected, &ctx);
            check_storage(&view);
        }
    }
}

/// Checks the storage invariants of every relation the view holds: its
/// base relations and its derived store (swap-remove retraction,
/// backward-shift deletion and index bucket patching must leave arena,
/// row table and cached indexes coherent).
fn check_storage(view: &MaterializedView) {
    let base = view.base_structure();
    for p in base.signature().preds() {
        base.relation(p).check_invariants();
    }
    for i in 0..view.program().idb_count() {
        view.store().relation(IdbId(i as u32)).check_invariants();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn semipositive_view_matches_scratch(
        n in 3usize..=7,
        edges in vec((0u8..16, 0u8..16), 0..12),
        marks in vec(0u8..16, 0..5),
        batches in vec(vec((0u8..2, 0u8..2, 0u8..16, 0u8..16), 0..6), 1..5),
    ) {
        run_case(SEMIPOSITIVE, n, &edges, &marks, &batches);
    }

    #[test]
    fn stratified_view_matches_scratch(
        n in 3usize..=7,
        edges in vec((0u8..16, 0u8..16), 0..12),
        marks in vec(0u8..16, 0..5),
        batches in vec(vec((0u8..2, 0u8..2, 0u8..16, 0u8..16), 0..6), 1..5),
    ) {
        run_case(STRATIFIED, n, &edges, &marks, &batches);
    }

    #[test]
    fn multi_rule_view_matches_scratch(
        n in 3usize..=7,
        edges in vec((0u8..16, 0u8..16), 0..12),
        marks in vec(0u8..16, 0..5),
        batches in vec(vec((0u8..2, 0u8..2, 0u8..16, 0u8..16), 0..6), 1..5),
    ) {
        run_case(MULTI_RULE, n, &edges, &marks, &batches);
    }

    #[test]
    fn nonlinear_view_matches_scratch(
        n in 3usize..=7,
        edges in vec((0u8..16, 0u8..16), 0..12),
        marks in vec(0u8..16, 0..5),
        batches in vec(vec((0u8..2, 0u8..2, 0u8..16, 0u8..16), 0..6), 1..5),
    ) {
        run_case(NONLINEAR, n, &edges, &marks, &batches);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn every_option_combination_agrees_under_materialize(
        n in 3usize..=7,
        edges in vec((0u8..16, 0u8..16), 0..12),
        marks in vec(0u8..16, 0..5),
        batches in vec(vec((0u8..2, 0u8..2, 0u8..16, 0u8..16), 0..6), 1..4),
    ) {
        for (source, outputs) in [
            (SEMIPOSITIVE, &["nl"][..]),
            (STRATIFIED, &["uu"][..]),
            (NONLINEAR, &["hub", "top"][..]),
            (REDUNDANT, &["w"][..]),
        ] {
            run_options_case(source, outputs, n, &edges, &marks, &batches);
        }
    }
}

#[test]
fn empty_delta_is_a_noop_for_both_shapes() {
    for source in [SEMIPOSITIVE, STRATIFIED] {
        let s = build_structure(5, &[(0, 1), (1, 2), (2, 3)], &[0]);
        let program = parse_program(source, &s).unwrap();
        let mut view = Evaluator::new(program).unwrap().materialize(&s).unwrap();
        let before: Vec<_> = (0..view.program().idb_count())
            .map(|i| view.store().tuples(IdbId(i as u32)))
            .collect();
        let profile = view.apply(&Update::new());
        assert_eq!(profile.overdeleted + profile.inserted + profile.deleted, 0);
        assert!(profile.strata.is_empty(), "no-op skips all strata");
        for (i, tuples) in before.iter().enumerate() {
            assert_eq!(&view.store().tuples(IdbId(i as u32)), tuples);
        }
        assert_view_matches(&view, &s, "empty delta");
    }
}

#[test]
fn retract_everything_for_both_shapes() {
    for source in [SEMIPOSITIVE, STRATIFIED] {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)];
        let marks = [0, 2];
        let mut expected = build_structure(4, &edges, &marks);
        let e = expected.signature().lookup("e").unwrap();
        let m = expected.signature().lookup("m").unwrap();
        let program = parse_program(source, &expected).unwrap();
        let mut view = Evaluator::new(program)
            .unwrap()
            .materialize(&expected)
            .unwrap();
        let mut update = Update::new();
        for &(a, b) in &edges {
            let (a, b) = (ElemId(u32::from(a)), ElemId(u32::from(b)));
            update.push_retract(e, &[a, b]);
            expected.retract(e, &[a, b]);
        }
        for &a in &marks {
            let a = ElemId(u32::from(a));
            update.push_retract(m, &[a]);
            expected.retract(m, &[a]);
        }
        view.apply(&update);
        assert_view_matches(&view, &expected, "retract everything");
        check_storage(&view);
        // With an empty base, positive-bodied predicates must be empty.
        assert!(view.store().tuples(IdbId(0)).is_empty());
    }
}

/// Fault injection over governed maintenance: for every checkpoint `k`,
/// one mixed batch under `trip_after_checks(k)` either completes or
/// falls back to recomputation with `LimitKind::Injected`, and either
/// way the view matches a from-scratch evaluation. The base is a short
/// chain (cheap to materialize) and the batch cuts it and appends a
/// long tail, so maintenance passes more checkpoints than
/// materialization and both outcomes occur.
#[test]
fn governed_maintenance_sweep_falls_back_soundly() {
    let n = 32u8;
    let chain: Vec<(u8, u8)> = (0..8).map(|i| (i, i + 1)).collect();
    for source in [SEMIPOSITIVE, STRATIFIED, NONLINEAR, MULTI_RULE] {
        let (mut completed, mut fell_back) = (0, 0);
        for k in 1..=120u64 {
            let mut expected = build_structure(usize::from(n), &chain, &[0, 3]);
            let e = expected.signature().lookup("e").unwrap();
            let m = expected.signature().lookup("m").unwrap();
            let program = parse_program(source, &expected).unwrap();
            let options = EvalOptions::new().limits(EvalLimits::new().trip_after_checks(k));
            let mut view = match Evaluator::with_options(program, options)
                .unwrap()
                .materialize(&expected)
            {
                Ok(view) => view,
                // The checkpoint lies inside materialization.
                Err(EvalError::LimitExceeded { .. }) => continue,
                Err(err) => panic!("k={k}: {err}"),
            };
            let mut update = Update::new()
                .retract(e, &[ElemId(4), ElemId(5)])
                .retract(m, &[ElemId(3)])
                .insert(m, &[ElemId(9)]);
            for i in 8..n - 1 {
                update.push_insert(e, &[ElemId(u32::from(i)), ElemId(u32::from(i) + 1)]);
            }
            expected.retract(e, &[ElemId(4), ElemId(5)]);
            expected.retract(m, &[ElemId(3)]);
            expected.insert(m, &[ElemId(9)]);
            for i in 8..n - 1 {
                expected.insert(e, &[ElemId(u32::from(i)), ElemId(u32::from(i) + 1)]);
            }
            let profile = view.apply(&update);
            match profile.fell_back {
                None => completed += 1,
                Some(kind) => {
                    assert_eq!(kind, LimitKind::Injected, "k={k}");
                    fell_back += 1;
                }
            }
            assert_view_matches(&view, &expected, &format!("trip after {k} checks"));
            check_storage(&view);
        }
        assert!(completed > 0, "no sweep point completed maintenance");
        assert!(fell_back > 0, "no sweep point tripped inside maintenance");
    }
}

/// Each of `c`'s three rules re-derives a different overdeleted fact.
/// Retracting `0 → 1` overdeletes `c` of everything reached through `1`
/// and the paths `t(0, ·)`. Then `c(5)` survives through its mark (rule
/// 1; rule 2 also derives it, from `c(7)`, and must skip it), `c(6)`
/// through the marked predecessor `7` (rule 2), and `c(8)`, `c(9)`
/// through their cycle (rule 3). Only `c(1)` and the five paths die.
#[test]
fn three_rules_rederive_different_facts() {
    let edges = [
        (0, 1),
        (1, 5),
        (1, 6),
        (7, 6),
        (7, 5),
        (1, 8),
        (8, 9),
        (9, 8),
    ];
    let mut expected = build_structure(10, &edges, &[0, 5, 7]);
    let e = expected.signature().lookup("e").unwrap();
    let program = parse_program(MULTI_RULE, &expected).unwrap();
    let mut view = Evaluator::new(program)
        .unwrap()
        .materialize(&expected)
        .unwrap();
    expected.retract(e, &[ElemId(0), ElemId(1)]);
    let profile = view.apply(&Update::new().retract(e, &[ElemId(0), ElemId(1)]));
    assert_eq!(
        [profile.overdeleted, profile.rederived, profile.deleted],
        [10, 4, 6],
        "overdeleted, rederived, deleted"
    );
    for x in [5, 6, 8, 9] {
        assert!(view.holds("c", &[ElemId(x)]), "c({x}) survives");
    }
    assert!(!view.holds("c", &[ElemId(1)]));
    assert_view_matches(&view, &expected, "three-rule re-derivation");
    check_storage(&view);
}

/// The option sweep is only as strong as its programs and options:
/// pruning must drop rules from the programs that have dead ones,
/// profiling must attach a profile, and the generous budget must meter
/// the governed evaluation.
#[test]
fn option_sweep_programs_exercise_every_option() {
    let s = build_structure(5, &[(0, 1), (1, 1), (1, 2)], &[0, 1]);
    let session = |source: &str, output: &str, options: EvalOptions| {
        let program = parse_program(source, &s).unwrap();
        Evaluator::with_options(program, options.outputs([output])).unwrap()
    };
    let pruned = |source: &str, output: &str| {
        session(source, output, EvalOptions::new().prune_dead_rules(true)).pruned_rule_count()
    };
    assert_eq!(pruned(SEMIPOSITIVE, "nl"), 2);
    assert_eq!(pruned(REDUNDANT, "w"), 1);
    let mut profiled = session(
        NONLINEAR,
        "hub",
        EvalOptions::new().profile(ProfileDetail::Rules),
    );
    assert!(profiled.evaluate(&s).unwrap().profile.is_some());
    let limits = EvalLimits::new().fuel(GENEROUS_FUEL);
    session(NONLINEAR, "hub", EvalOptions::new().limits(limits.clone()))
        .materialize(&s)
        .unwrap();
    assert!(limits.fuel_spent() > 0, "the budgeted sweep is metered");
}
