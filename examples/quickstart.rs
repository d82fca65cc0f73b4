//! Quickstart: 3-Colorability via monadic datalog over a tree
//! decomposition (paper §5.1, Figure 5).
//!
//! ```text
//! cargo run --example quickstart
//! ```

use mdtw_core::{three_coloring_fpt, ThreeColSolver};
use mdtw_decomp::{NiceOptions, NiceTd};
use mdtw_graph::{partial_k_tree, petersen, wheel};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    // 1. A classic: the Petersen graph is 3-chromatic.
    let g = petersen();
    let (colorable, witness) = three_coloring_fpt(&g);
    println!("Petersen graph: 3-colorable = {colorable}");
    println!("  witness coloring: {:?}", witness.expect("colorable"));

    // 2. An odd wheel needs four colors.
    let w5 = wheel(5);
    let (colorable, _) = three_coloring_fpt(&w5);
    println!("Wheel W5: 3-colorable = {colorable}");

    // 3. A larger bounded-treewidth instance, decomposition-first: the
    //    generator returns the width-3 tree decomposition alongside the
    //    graph, so no heuristic decomposition step is needed.
    let mut rng = SmallRng::seed_from_u64(7);
    let (big, td) = partial_k_tree(&mut rng, 2_000, 3, 0.85);
    let nice = NiceTd::from_td(&td, NiceOptions::default());
    println!(
        "random partial 3-tree: {} vertices, {} edges, {} decomposition nodes",
        big.len(),
        big.edge_count(),
        nice.len()
    );
    let start = std::time::Instant::now();
    let solver = ThreeColSolver::run(&big, &nice);
    println!(
        "  3-colorable = {} ({} solve facts, {:.1} ms — linear in the input)",
        solver.is_colorable(),
        solver.fact_count,
        start.elapsed().as_secs_f64() * 1e3
    );
    if let Some(colors) = solver.witness() {
        println!("  extracted witness uses colors: {:?}", {
            let mut used: Vec<u8> = colors.clone();
            used.sort_unstable();
            used.dedup();
            used
        });
    }
}
