//! The full MSO story in one binary (paper §1, §2.3, §4):
//!
//! 1. an MSO query evaluated naively (the MONA stand-in, exponential),
//! 2. the generic Theorem 4.5 compilation to quasi-guarded monadic
//!    datalog, evaluated in linear time over the τ_td encoding,
//! 3. the MSO-to-FTA baseline with its determinization blow-up.
//!
//! ```text
//! cargo run --release --example mso_pipeline
//! ```

use mdtw_datalog::{EvalOptions, Evaluator, FdCatalog};
use mdtw_decomp::{decompose, encode_tuple_td, Heuristic, NiceOptions, NiceTd, TupleTd};
use mdtw_fta::{mona_style_3col, nfta_3col, DetBudget};
use mdtw_graph::{encode_graph, partial_k_tree, Graph};
use mdtw_mso::{
    compile::compile_unary_filtered, eval_unary, has_neighbor, Budget, CompileLimits, IndVar,
};
use mdtw_structure::{ElemId, Structure};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Undirected loop-free edge relations (the class `encode_graph` emits).
fn undirected(s: &Structure) -> bool {
    let e = s.signature().lookup("e").expect("e");
    s.relation(e)
        .iter()
        .all(|t| t[0] != t[1] && s.holds(e, &[t[1], t[0]]))
}

fn main() {
    // --- 1. The query: φ(x) = ∃y e(x, y), over forests (treewidth 1). ---
    let phi = has_neighbor();
    println!(
        "query ϕ(x) = {phi}   (quantifier depth {})",
        phi.quantifier_depth()
    );

    let forest = Graph::from_edges(7, &[(0, 1), (1, 2), (3, 4), (2, 5)]);
    let structure = encode_graph(&forest);

    // One character per vertex: '1' where the query holds.
    let answers = |holds: &dyn Fn(ElemId) -> bool| -> String {
        let bit = |v| if holds(v) { '1' } else { '0' };
        structure.domain().elems().map(bit).collect()
    };
    let naive =
        answers(&|v| eval_unary(&phi, IndVar(0), &structure, v, &mut Budget::unlimited()).unwrap());
    println!("naive MSO evaluation:       {naive}   (vertex 6 is isolated)");

    // --- 2. Theorem 4.5: compile ϕ to monadic datalog over τ_td. --------
    let sig = Arc::new(mdtw_graph::graph_signature());
    let compiled = compile_unary_filtered(
        &phi,
        IndVar(0),
        &sig,
        1,
        CompileLimits::default(),
        &undirected,
    )
    .expect("toy parameters compile");
    println!(
        "Theorem 4.5 compilation:    {} rules, {} bottom-up / {} top-down types",
        compiled.program.rules.len(),
        compiled.up_types,
        compiled.down_types
    );

    let td = decompose(&structure, Heuristic::MinDegree);
    let tuple_td = TupleTd::from_td_with_width(&td, structure.domain().len(), 1).unwrap();
    let enc = encode_tuple_td(&structure, &tuple_td);
    let catalog = FdCatalog::for_td_signature(&enc.structure);
    // An attached FdCatalog makes the session dispatch to the linear-time
    // quasi-guarded pipeline of Theorem 4.4.
    let mut session = Evaluator::with_options(
        compiled.program.clone(),
        EvalOptions::new().fd_catalog(catalog),
    )
    .unwrap();
    let result = session.evaluate(&enc.structure).unwrap();
    let linear = answers(&|v| result.store.holds(compiled.phi, &[v]));
    let qg = result
        .qg
        .expect("quasi-guarded run reports grounding stats");
    println!(
        "compiled datalog (linear):  {linear}   ({} ground rules, {} ground atoms)",
        qg.ground_rules, qg.ground_atoms
    );
    assert_eq!(linear, naive, "Theorem 4.5 compilation disagrees with MSO");

    // --- 3. The MSO-to-FTA baseline on 3-Colorability. -------------------
    println!("\nMSO-to-FTA baseline (3-Colorability):");
    let mut rng = SmallRng::seed_from_u64(3);
    for w in [1usize, 2, 3, 4] {
        let (g, gtd) = partial_k_tree(&mut rng, 30, w, 0.8);
        let nice = NiceTd::from_td(&gtd, NiceOptions::default());
        let linear = nfta_3col(&g, &nice).expect("bags of at most 5 elements");
        let budget = DetBudget {
            max_states: 20_000,
            max_transitions: 1 << 21,
        };
        match mona_style_3col(&g, &nice, budget) {
            Ok((ok, dfta)) => println!(
                "  width {w}: NFTA(linear) = {linear}, determinized = {ok} \
                 ({} DFTA states, {} transitions)",
                dfta.n_states,
                dfta.transition_count()
            ),
            Err(explosion) => println!(
                "  width {w}: NFTA(linear) = {linear}, determinization EXPLODED \
                 ({} states, {} transitions — the paper's state explosion)",
                explosion.states, explosion.transitions
            ),
        }
    }
}
