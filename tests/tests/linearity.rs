//! Empirical linearity checks (Theorem 4.4 / Theorem 4.5 / Theorem 5.3 /
//! Theorem 5.4) using deterministic *work counts* rather than wall-clock
//! time: the number of solve facts and ground rules per decomposition
//! node, and the join work per derived fact of the indexed engine on
//! τ_td, must stay bounded as instances grow.

use mdtw_core::{
    enumerate_primes, ground_three_col, prime_attributes_fpt, PrimalityContext, ThreeColSolver,
};
use mdtw_datalog::{Engine, EvalOptions, Evaluator};
use mdtw_decomp::{decompose, encode_tuple_td, Heuristic, NiceOptions, NiceTd, TupleTd};
use mdtw_graph::{encode_graph, graph_signature, partial_k_tree, wheel, Graph};
use mdtw_mso::{compile::compile_unary_filtered, has_neighbor, CompileLimits, IndVar};
use mdtw_schema::{block_tree_instance, encode_schema};
use mdtw_structure::Structure;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

#[test]
fn primality_solve_facts_scale_linearly() {
    // Facts per node must stay within a constant band while the instance
    // grows 16-fold (tw fixed at 3).
    let mut per_node = Vec::new();
    for k in [2usize, 8, 32] {
        let inst = block_tree_instance(k);
        let ctx = PrimalityContext::from_parts(encode_schema(&inst.schema), inst.td);
        let (_, stats) = enumerate_primes(&ctx);
        per_node.push((stats.up_facts + stats.down_facts) as f64 / stats.nodes as f64);
    }
    let (min, max) = (
        per_node.iter().copied().fold(f64::INFINITY, f64::min),
        per_node.iter().copied().fold(0.0, f64::max),
    );
    assert!(
        max / min < 3.0,
        "facts per node must stay bounded: {per_node:?}"
    );
}

#[test]
fn three_col_solve_facts_scale_linearly() {
    let mut rng = SmallRng::seed_from_u64(99);
    let mut per_node = Vec::new();
    for n in [50usize, 200, 800] {
        let (g, td) = partial_k_tree(&mut rng, n, 3, 0.8);
        let nice = NiceTd::from_td(&td, NiceOptions::default());
        let solver = ThreeColSolver::run(&g, &nice);
        per_node.push(solver.fact_count as f64 / nice.len() as f64);
    }
    let (min, max) = (
        per_node.iter().copied().fold(f64::INFINITY, f64::min),
        per_node.iter().copied().fold(0.0, f64::max),
    );
    assert!(
        max / min < 3.0,
        "facts per node must stay bounded: {per_node:?}"
    );
}

#[test]
fn elimination_heuristics_decompose_ten_thousand_vertices() {
    // Partial 3-trees grow hubs of high degree. Rescanning every remaining
    // vertex's fill-in at each elimination step takes tens of seconds here
    // even in release builds; delta-maintained scores take well under a
    // second in debug builds. No clock is read: a quadratic regression shows
    // as a test run that does not finish.
    let k = 3;
    let mut rng = SmallRng::seed_from_u64(10_000);
    let (g, _) = partial_k_tree(&mut rng, 10_000, k, 0.8);
    let s = encode_graph(&g);
    for h in [Heuristic::MinDegree, Heuristic::MinFill] {
        let td = decompose(&s, h);
        assert_eq!(td.validate(&s), Ok(()), "{h:?}");
        assert!(td.width() <= 2 * k, "{h:?}: width {}", td.width());
    }
    // A wheel's hub is adjacent to every other vertex, and both heuristics
    // eliminate the rim first. Initial min-fill scores taken by testing
    // every pair of the hub's neighbours make 5·10⁷ probes here; removing
    // each eliminated spoke from a sorted hub list by shifting it would
    // move as many entries.
    let s = encode_graph(&wheel(10_000));
    for h in [Heuristic::MinDegree, Heuristic::MinFill] {
        let td = decompose(&s, h);
        assert_eq!(td.validate(&s), Ok(()), "{h:?}");
        assert_eq!(td.width(), 3, "{h:?}: a wheel has treewidth 3");
    }
}

#[test]
fn tuple_normal_form_of_a_wide_star_is_linear() {
    // Min-degree eliminates a star's leaves first, so its decomposition is
    // a star too: one hub bag with about 50 000 children. Binarizing it by
    // re-parenting the remaining children once per added copy takes 16 s
    // in a release build (2-vCPU VM); moving each child once takes
    // milliseconds. No clock is read: a quadratic regression shows as a
    // test run that does not finish.
    let leaves = 50_000;
    let mut g = Graph::new(leaves + 1);
    for v in 1..=leaves as u32 {
        g.add_edge(0, v);
    }
    let s = encode_graph(&g);
    let td = decompose(&s, Heuristic::MinDegree);
    let widest = td.node_ids().map(|n| td.children(n).count()).max();
    assert!(widest >= Some(leaves - 2), "{widest:?} children");
    let tuple = TupleTd::from_td(&td, s.domain().len()).unwrap();
    assert_eq!(tuple.to_set_td().validate(&s), Ok(()));
    assert_eq!(tuple.width(), 1);
}

#[test]
fn ground_program_size_is_linear_with_larger_constant() {
    // The fully materialized monadic program is also linear in the data —
    // but §6 optimization (1) predicts the DP reaches fewer facts.
    let mut rng = SmallRng::seed_from_u64(17);
    for n in [60usize, 120] {
        let (g, td) = partial_k_tree(&mut rng, n, 3, 0.8);
        let nice = NiceTd::from_td(&td, NiceOptions::default());
        let ground = ground_three_col(&g, &nice);
        let dp = ThreeColSolver::run(&g, &nice);
        assert!(ground.atom_count() >= dp.fact_count, "n = {n}");
        // Materialization stays within the 3^{w+1} per-node envelope.
        assert!(ground.atom_count() <= 81 * nice.len() + 1, "n = {n}");
    }
}

#[test]
fn enumeration_scales_linearly_to_twenty_thousand_fds() {
    // Theorem 5.4: one bottom-up and one top-down pass enumerate every
    // prime attribute in linear time. No clock is read. Building the §5.3
    // leaf coverage by rescanning every node per uncovered element takes
    // over a minute at 20 000 FDs in a release build (2-vCPU VM), against
    // under a second for this whole test; a quadratic regression shows as
    // a run that does not finish. The nice tree and the facts per node
    // must stay bounded as the instance grows eightfold. Each block's
    // elements not in a leaf all lie in its mid bag {f_i, w_i, u_i, v_i},
    // the largest bag holding them, so leaf coverage splices exactly one
    // leaf per block and the nice tree has 11 · fds − 4 nodes.
    let per_node: Vec<f64> = [2_500usize, 20_000]
        .into_iter()
        .map(|fds| {
            let inst = block_tree_instance(fds);
            let td_leaves = inst.td.leaves().len();
            let ctx = PrimalityContext::from_parts(inst.encoding, inst.td);
            assert!(
                ctx.nice.len() <= 11 * fds,
                "{fds} FDs: {} nice nodes",
                ctx.nice.len()
            );
            assert_eq!(
                ctx.nice.leaves().len(),
                td_leaves + fds,
                "{fds} FDs: one spliced leaf per block"
            );
            let (primes, stats) = enumerate_primes(&ctx);
            let expected: Vec<_> = inst
                .expected_primes
                .iter()
                .map(|&a| ctx.encoding.elem_of_attr(a))
                .collect();
            assert_eq!(primes, expected, "{fds} FDs");
            if fds == 20_000 {
                // The public entry point (encode, min-fill, enumerate) at
                // scale.
                assert_eq!(prime_attributes_fpt(&inst.schema), inst.expected_primes);
            }
            (stats.up_facts + stats.down_facts) as f64 / stats.nodes as f64
        })
        .collect();
    assert!(
        (per_node[1] / per_node[0] - 1.0).abs() <= 0.10,
        "facts per node must stay flat: {per_node:?}"
    );
}

/// The symmetric irreflexive edge relations `has_neighbor` is compiled for.
fn undirected(s: &Structure) -> bool {
    let e = s.signature().lookup("e").expect("graph signature has e");
    s.relation(e)
        .iter()
        .all(|t| t[0] != t[1] && s.holds(e, &[t[1], t[0]]))
}

/// The τ_td encoding (tuple normal form, width 1) of a random forest on
/// `n` vertices.
fn tau_td_forest(rng: &mut SmallRng, n: usize) -> Structure {
    let mut g = Graph::new(n);
    for v in 1..n as u32 {
        if rng.random::<f64>() < 0.7 {
            g.add_edge(rng.random_range(0..v), v);
        }
    }
    let s = encode_graph(&g);
    let td = decompose(&s, Heuristic::MinDegree);
    let tuple_td = TupleTd::from_td_with_width(&td, n, 1).expect("forests have width 1");
    encode_tuple_td(&s, &tuple_td).structure
}

#[test]
fn indexed_engine_join_work_per_fact_is_flat_on_tau_td() {
    // Theorem 4.5's programs are monadic and quasi-guarded, so evaluating
    // them is linear in the data. The indexed engine's candidate tuples per
    // derived fact must then stay flat while the forest grows fourfold; a
    // join order that probes a repeated bag before the child edge that
    // pins it grows with the number of bags.
    let sig = Arc::new(graph_signature());
    let compiled = compile_unary_filtered(
        &has_neighbor(),
        IndVar(0),
        &sig,
        1,
        CompileLimits::default(),
        &undirected,
    )
    .expect("width-1 compilation fits the limits");
    let mut session = Evaluator::with_options(
        compiled.program,
        EvalOptions::new().engine(Engine::SemiNaiveIndexed),
    )
    .unwrap();
    let mut rng = SmallRng::seed_from_u64(45);
    let per_fact: Vec<f64> = [150usize, 600]
        .into_iter()
        .map(|n| {
            let stats = session.evaluate(&tau_td_forest(&mut rng, n)).unwrap().stats;
            stats.tuples_considered as f64 / stats.facts as f64
        })
        .collect();
    assert!(
        per_fact[1] <= 1.25 * per_fact[0],
        "tuples considered per fact must stay flat: {per_fact:?}"
    );
}
