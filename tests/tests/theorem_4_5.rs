//! End-to-end validation of the Theorem 4.5 pipeline: MSO query →
//! generic compilation → quasi-guarded monadic datalog over τ_td →
//! linear-time evaluation, cross-checked against the naive model checker
//! on randomized bounded-treewidth inputs.

use mdtw_datalog::{Engine, EvalOptions, Evaluator, FdCatalog, IdbId, PredRef, Rule};
use mdtw_decomp::{decompose, encode_tuple_td, Heuristic, TupleTd};
use mdtw_graph::{encode_graph, Graph};
use mdtw_mso::{
    compile::compile_unary_filtered, eval_unary, has_neighbor, isolated, Budget, CompileLimits,
    CompiledQuery, IndVar, Mso,
};
use mdtw_structure::Structure;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

fn undirected(s: &Structure) -> bool {
    let e = s.signature().lookup("e").expect("e");
    s.relation(e)
        .iter()
        .all(|t| t[0] != t[1] && s.holds(e, &[t[1], t[0]]))
}

/// A random forest on `n` vertices (treewidth ≤ 1).
fn random_forest(rng: &mut SmallRng, n: usize) -> Graph {
    let mut g = Graph::new(n);
    for v in 1..n as u32 {
        if rng.random::<f64>() < 0.7 {
            let parent = rng.random_range(0..v);
            g.add_edge(parent, v);
        }
    }
    g
}

fn compile_at_width_1(phi: &Mso) -> CompiledQuery {
    compile_unary_filtered(
        phi,
        IndVar(0),
        &Arc::new(mdtw_graph::graph_signature()),
        1,
        CompileLimits::default(),
        &undirected,
    )
    .expect("width-1 compilation fits the limits")
}

fn check_query_on_forests(phi: &Mso, seed: u64) {
    let compiled = compile_at_width_1(phi);
    compiled.program.check_semipositive().unwrap();

    // One compiled program, many decomposition encodings: both paths run
    // as reused Evaluator sessions (created lazily on the first encoding,
    // whose τ_td signature is shared by all of them).
    let mut qg_session: Option<Evaluator> = None;
    let mut reference_session: Option<Evaluator> = None;

    let mut rng = SmallRng::seed_from_u64(seed);
    for i in 0..10 {
        let g = random_forest(&mut rng, 4 + i);
        let s = encode_graph(&g);
        let td = decompose(&s, Heuristic::MinDegree);
        let tuple_td = TupleTd::from_td_with_width(&td, s.domain().len(), 1).unwrap();
        assert_eq!(tuple_td.validate_normal_form(), Ok(()));
        let enc = encode_tuple_td(&s, &tuple_td);

        // Linear path: quasi-guarded grounding + LTUR.
        let qg_session = qg_session.get_or_insert_with(|| {
            let catalog = FdCatalog::for_td_signature(&enc.structure);
            Evaluator::with_options(
                compiled.program.clone(),
                EvalOptions::new().fd_catalog(catalog),
            )
            .expect("compiled programs are quasi-guarded")
        });
        let store = qg_session
            .evaluate(&enc.structure)
            .expect("compiled programs are quasi-guarded")
            .store;
        // Reference path: general semi-naive engine on the same program.
        let reference_session = reference_session
            .get_or_insert_with(|| Evaluator::new(compiled.program.clone()).unwrap());
        let reference = reference_session.evaluate(&enc.structure).unwrap().store;

        for v in s.domain().elems() {
            let expected = eval_unary(phi, IndVar(0), &s, v, &mut Budget::unlimited()).unwrap();
            assert_eq!(
                store.holds(compiled.phi, &[v]),
                expected,
                "instance {i}, vertex {v}, quasi-guarded"
            );
            assert_eq!(
                reference.holds(compiled.phi, &[v]),
                expected,
                "instance {i}, vertex {v}, semi-naive"
            );
        }
    }
}

#[test]
fn compiled_has_neighbor_matches_naive_mso() {
    check_query_on_forests(&has_neighbor(), 11);
}

#[test]
fn compiled_isolated_matches_naive_mso() {
    // ¬∃y (e(x,y) ∨ e(y,x)) — same depth, negated: exercises the type
    // partitioning (a type set and its complement feed `phi`).
    check_query_on_forests(&isolated(), 13);
}

/// One forest at the benchmark's size (150 vertices): the quasi-guarded
/// session, the indexed session and the MSO model checker agree, and a
/// second evaluation of the quasi-guarded session reproduces the first
/// store and the same grounding statistics.
fn check_query_at_scale(phi: &Mso, seed: u64) {
    let compiled = compile_at_width_1(phi);
    let mut rng = SmallRng::seed_from_u64(seed);
    let g = random_forest(&mut rng, 150);
    let s = encode_graph(&g);
    let td = decompose(&s, Heuristic::MinDegree);
    let tuple_td = TupleTd::from_td_with_width(&td, s.domain().len(), 1).unwrap();
    let enc = encode_tuple_td(&s, &tuple_td);

    let catalog = FdCatalog::for_td_signature(&enc.structure);
    let mut qg = Evaluator::with_options(
        compiled.program.clone(),
        EvalOptions::new().fd_catalog(catalog),
    )
    .expect("compiled programs are quasi-guarded");
    let first = qg.evaluate(&enc.structure).unwrap();
    let second = qg.evaluate(&enc.structure).unwrap();
    let indexed = Evaluator::new(compiled.program.clone())
        .unwrap()
        .evaluate(&enc.structure)
        .unwrap();
    for idb in 0..compiled.program.idb_count() {
        let id = IdbId(idb as u32);
        let name = &compiled.program.idb_names[idb];
        assert_eq!(
            first.store.tuples(id),
            indexed.store.tuples(id),
            "{name}: quasi-guarded vs indexed"
        );
        assert_eq!(
            first.store.tuples(id),
            second.store.tuples(id),
            "{name}: first vs second evaluation"
        );
    }
    let stats = first.qg.expect("quasi-guarded runs report QgStats");
    assert_eq!(Some(stats), second.qg, "QgStats differ between evaluations");
    assert!(stats.ground_rules <= compiled.program.rules.len() * enc.structure.size());
    for v in s.domain().elems() {
        let expected = eval_unary(phi, IndVar(0), &s, v, &mut Budget::unlimited()).unwrap();
        assert_eq!(
            first.store.holds(compiled.phi, &[v]),
            expected,
            "vertex {v}"
        );
    }
}

#[test]
fn has_neighbor_at_benchmark_scale() {
    check_query_at_scale(&has_neighbor(), 17);
}

#[test]
fn isolated_at_benchmark_scale() {
    check_query_at_scale(&isolated(), 19);
}

#[test]
fn compiled_program_is_quasi_guarded_by_construction() {
    let compiled = compile_at_width_1(&has_neighbor());
    // Grounding must succeed for any valid τ_td input — the guard
    // analysis itself is input-independent, so one instance suffices.
    let g = Graph::from_edges(3, &[(0, 1)]);
    let s = encode_graph(&g);
    let td = decompose(&s, Heuristic::MinDegree);
    let tuple_td = TupleTd::from_td_with_width(&td, 3, 1).unwrap();
    let enc = encode_tuple_td(&s, &tuple_td);
    let catalog = FdCatalog::for_td_signature(&enc.structure);
    let grounding = mdtw_datalog::ground(&compiled.program, &enc.structure, &catalog).unwrap();
    // |P′| ≤ |P| · |𝒜| (Theorem 4.4's bound).
    assert!(grounding.horn.rule_count() <= compiled.program.rules.len() * enc.structure.size());
}

/// `(total, selection, branch)` rule counts of a width-1 program:
/// selection rules derive `phi`, branch rules read `child2`.
fn rule_counts(compiled: &CompiledQuery) -> (usize, usize, usize) {
    let sig_td = mdtw_graph::graph_signature().extend_td(1);
    let child2 = PredRef::Edb(sig_td.lookup("child2").expect("child2"));
    let rules = &compiled.program.rules;
    let selection = rules
        .iter()
        .filter(|r| r.head.pred == PredRef::Idb(compiled.phi))
        .count();
    let branch = rules
        .iter()
        .filter(|r| r.body.iter().any(|l| l.atom.pred == child2))
        .count();
    (rules.len(), selection, branch)
}

/// Clock-free pin of the program size, which Theorem 4.4's `O(|P|·|𝒜|)`
/// multiplies into every evaluation. Before selection was emitted as a
/// cover of whole type rows and columns and each Θ↑ branch pair was
/// glued once, `has_neighbor` compiled to 812 rules (224 selection, 456
/// branch) and `isolated` to 620 (32 selection, 456 branch); in both, 72
/// of the 456 branch rules were copies of another. While a column rule
/// was kept even when row rules covered all its selecting pairs,
/// `has_neighbor` compiled to 564 rules (48 selection).
#[test]
fn width_1_rule_counts_are_pinned() {
    for (name, phi, expected) in [
        ("has_neighbor", has_neighbor(), (548, 32, 384)),
        ("isolated", isolated(), (548, 32, 384)),
    ] {
        let compiled = compile_at_width_1(&phi);
        assert!(
            compiled.exhaustive,
            "{name}: width 1 saturates exhaustively"
        );
        assert_eq!(
            rule_counts(&compiled),
            expected,
            "{name}: (total, selection, branch)"
        );
        let distinct: HashSet<&Rule> = compiled.program.rules.iter().collect();
        assert_eq!(
            distinct.len(),
            compiled.program.rules.len(),
            "{name}: some rule is emitted twice"
        );
    }
}

/// `has_neighbor` and `isolated` compiled at width 1, once per test binary.
fn compiled_queries() -> &'static [(Mso, CompiledQuery); 2] {
    static QUERIES: OnceLock<[(Mso, CompiledQuery); 2]> = OnceLock::new();
    QUERIES.get_or_init(|| {
        [has_neighbor(), isolated()].map(|phi| {
            let compiled = compile_at_width_1(&phi);
            (phi, compiled)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On random forests (from two vertices: the width-1 tuple normal
    /// form needs two elements per bag), for both queries: the
    /// quasi-guarded and indexed stores agree on every IDB, `phi` is the
    /// MSO answer at every vertex, and every τ_td node derives exactly
    /// one up type and one down type, the premise of the selection cover.
    #[test]
    fn compiled_programs_are_exact_and_deterministic(
        n in 2usize..=40,
        seed in 0u64..u64::MAX,
    ) {
        let g = random_forest(&mut SmallRng::seed_from_u64(seed), n);
        let s = encode_graph(&g);
        let td = decompose(&s, Heuristic::MinDegree);
        let tuple_td = TupleTd::from_td_with_width(&td, n, 1).unwrap();
        let enc = encode_tuple_td(&s, &tuple_td);
        for (phi, compiled) in compiled_queries() {
            let program = &compiled.program;
            let catalog = FdCatalog::for_td_signature(&enc.structure);
            let qg = Evaluator::with_options(
                program.clone(),
                EvalOptions::new().fd_catalog(catalog),
            )
            .unwrap()
            .evaluate(&enc.structure)
            .unwrap()
            .store;
            let indexed = Evaluator::with_options(
                program.clone(),
                EvalOptions::new().engine(Engine::SemiNaiveIndexed),
            )
            .unwrap()
            .evaluate(&enc.structure)
            .unwrap()
            .store;
            for idb in 0..program.idb_count() {
                let id = IdbId(idb as u32);
                let name = &program.idb_names[idb];
                prop_assert_eq!(qg.tuples(id), indexed.tuples(id), "{}", name);
            }
            for v in s.domain().elems() {
                let expected =
                    eval_unary(phi, IndVar(0), &s, v, &mut Budget::unlimited()).unwrap();
                prop_assert_eq!(qg.holds(compiled.phi, &[v]), expected, "vertex {}", v);
            }
            for &node in &enc.node_elem {
                for prefix in ["up_", "down_"] {
                    let types = (0..program.idb_count())
                        .filter(|&idb| program.idb_names[idb].starts_with(prefix))
                        .filter(|&idb| qg.holds(IdbId(idb as u32), &[node]))
                        .count();
                    prop_assert_eq!(types, 1, "{}* facts at node {}", prefix, node);
                }
            }
        }
    }
}
