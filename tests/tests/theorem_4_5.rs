//! End-to-end validation of the Theorem 4.5 pipeline: MSO query →
//! generic compilation → quasi-guarded monadic datalog over τ_td →
//! linear-time evaluation, cross-checked against the naive model checker
//! on randomized bounded-treewidth inputs.

use mdtw_datalog::{EvalOptions, Evaluator, FdCatalog, IdbId};
use mdtw_decomp::{decompose, encode_tuple_td, Heuristic, TupleTd};
use mdtw_graph::{encode_graph, Graph};
use mdtw_mso::{
    compile::compile_unary_filtered, eval_unary, has_neighbor, isolated, Budget, CompileLimits,
    IndVar, Mso,
};
use mdtw_structure::Structure;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

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

fn check_query_on_forests(phi: &Mso, seed: u64) {
    let sig = Arc::new(mdtw_graph::graph_signature());
    let compiled = compile_unary_filtered(
        phi,
        IndVar(0),
        &sig,
        1,
        CompileLimits::default(),
        &undirected,
    )
    .expect("width-1 compilation fits the limits");
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
    let sig = Arc::new(mdtw_graph::graph_signature());
    let compiled = compile_unary_filtered(
        phi,
        IndVar(0),
        &sig,
        1,
        CompileLimits::default(),
        &undirected,
    )
    .expect("width-1 compilation fits the limits");
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
    let sig = Arc::new(mdtw_graph::graph_signature());
    let compiled = compile_unary_filtered(
        &has_neighbor(),
        IndVar(0),
        &sig,
        1,
        CompileLimits::default(),
        &undirected,
    )
    .unwrap();
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
