//! Cross-validation of solvers against baselines on randomized inputs:
//! the FPT algorithms, the exact exponential algorithms, the MSO model
//! checker, the tree-automaton route and the ground monadic program must
//! agree. The evaluators of Figure 5 are cross-checked on wider inputs in
//! `figure5_differential.rs`.

use mdtw_core::{ground_three_col, prime_attributes_fpt, ThreeColSolver};
use mdtw_decomp::{NiceOptions, NiceTd};
use mdtw_fta::nfta_3col;
use mdtw_graph::{encode_graph, is_three_colorable_exact, partial_k_tree};
use mdtw_mso::{eval_sentence, three_colorability, Budget};
use mdtw_schema::{random_schema, seeded_rng};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn three_col_all_engines_agree_on_random_partial_k_trees() {
    let mut rng = SmallRng::seed_from_u64(101);
    for i in 0..20 {
        let n = 10 + i;
        let k = 2 + (i % 3);
        let (g, td) = partial_k_tree(&mut rng, n, k, 0.75);
        let nice = NiceTd::from_td(&td, NiceOptions::default());
        let expected = is_three_colorable_exact(&g);
        assert_eq!(
            ThreeColSolver::run(&g, &nice).is_colorable(),
            expected,
            "DP, instance {i}"
        );
        assert_eq!(nfta_3col(&g, &nice), Ok(expected), "NFTA, instance {i}");
        assert_eq!(
            ground_three_col(&g, &nice).succeeds(),
            expected,
            "ground program, instance {i}"
        );
    }
}

#[test]
fn three_col_mso_sentence_agrees_on_tiny_graphs() {
    // The naive MSO checker is exponential; keep |V| ≤ 7.
    let mut rng = SmallRng::seed_from_u64(55);
    for i in 0..8 {
        let (g, td) = partial_k_tree(&mut rng, 5 + i % 3, 2, 0.6);
        let nice = NiceTd::from_td(&td, NiceOptions::default());
        let s = encode_graph(&g);
        let via_mso = eval_sentence(&three_colorability(), &s, &mut Budget::unlimited()).unwrap();
        let via_dp = ThreeColSolver::run(&g, &nice).is_colorable();
        assert_eq!(via_mso, via_dp, "instance {i}");
    }
}

#[test]
fn primality_enumeration_agrees_with_exact_on_random_schemas() {
    let mut rng = seeded_rng(2027);
    for i in 0..30 {
        let n_attrs = 4 + i % 4;
        let n_fds = 2 + i % 4;
        let schema = random_schema(&mut rng, n_attrs, n_fds, 3);
        let fpt = prime_attributes_fpt(&schema);
        let exact = schema.prime_attributes_exact();
        assert_eq!(fpt, exact, "instance {i}: {schema}");
        // Brute force agrees too (tiny schemas).
        for attr in schema.attrs() {
            assert_eq!(
                fpt.contains(&attr),
                schema.is_prime_bruteforce(attr),
                "instance {i}, attribute {attr:?}"
            );
        }
    }
}

#[test]
fn witnesses_are_always_proper() {
    let mut rng = SmallRng::seed_from_u64(606);
    for i in 0..10 {
        let (g, td) = partial_k_tree(&mut rng, 25 + i, 3, 0.8);
        let nice = NiceTd::from_td(&td, NiceOptions::default());
        let solver = ThreeColSolver::run(&g, &nice);
        if let Some(colors) = solver.witness() {
            assert!(mdtw_graph::is_proper_coloring(&g, &colors, 3));
        } else {
            assert!(!solver.is_colorable());
            assert!(!is_three_colorable_exact(&g));
        }
    }
}
