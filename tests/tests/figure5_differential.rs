//! One differential suite for the evaluators of Figure 5 (paper §5.1).
//! On every input, the dynamic program `ThreeColSolver`, its ground Horn
//! lowering `ground_three_col` and the tree automaton `nfta_3col` must
//! give the answer of the exact search `is_three_colorable_exact`; so must
//! the determinized MONA-style route `mona_style_3col` where the width is
//! at most 2.
//!
//! The inputs are of two kinds: seeded partial k-trees (k = 1–4, 8–30
//! vertices) with the nice form of their generated decomposition, and one
//! random bag of 2–11 vertices, up to the automaton's limit of
//! `MAX_TRIANGLE_BAG` elements. The lowering grounds `3^|bag|` atoms per
//! node, so it is checked on bags of at most 9 elements.

use mdtw_core::{ground_three_col, ThreeColSolver};
use mdtw_decomp::{NiceOptions, NiceTd, TreeDecomposition};
use mdtw_fta::{mona_style_3col, nfta_3col, DetBudget};
use mdtw_graph::{is_three_colorable_exact, partial_k_tree, Graph, MAX_TRIANGLE_BAG};
use mdtw_structure::ElemId;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The widest bag the lowering is checked on.
const MAX_LOWERING_BAG: usize = 9;

/// The nice form of the decomposition with `g`'s vertices in one bag.
fn one_bag(g: &Graph) -> NiceTd {
    let td = TreeDecomposition::singleton((0..g.len() as u32).map(ElemId).collect());
    NiceTd::from_td(&td, NiceOptions::default())
}

/// A seeded partial k-tree (k = 1–4, 8–30 vertices) with its generated
/// decomposition, or one bag of 2–11 vertices whose pairs are edges with
/// a random probability.
fn arb_instance() -> impl Strategy<Value = (Graph, NiceTd)> {
    (0u32..2, 0u64..u64::MAX).prop_map(|(kind, seed)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        if kind == 0 {
            let k = rng.random_range(1..=4);
            let n = rng.random_range(8..=30);
            let keep = rng.random_range(0.5..1.0);
            let (g, td) = partial_k_tree(&mut rng, n, k, keep);
            (g, NiceTd::from_td(&td, NiceOptions::default()))
        } else {
            let n = rng.random_range(2..=MAX_TRIANGLE_BAG);
            let p = rng.random_range(0.1..0.9);
            let mut g = Graph::new(n);
            for a in 0..n as u32 {
                for b in a + 1..n as u32 {
                    if rng.random_bool(p) {
                        g.add_edge(a, b);
                    }
                }
            }
            let nice = one_bag(&g);
            (g, nice)
        }
    })
}

/// Asserts that every evaluator of Figure 5 that applies to `nice`'s
/// width answers as the exact search does.
fn assert_evaluators_agree(g: &Graph, nice: &NiceTd) {
    let expected = is_three_colorable_exact(g);
    let solver = ThreeColSolver::run(g, nice);
    assert_eq!(solver.is_colorable(), expected, "DP on {g}");
    assert_eq!(nfta_3col(g, nice), Ok(expected), "NFTA on {g}");
    if nice.width() < MAX_LOWERING_BAG {
        let lowered = ground_three_col(g, nice).succeeds();
        assert_eq!(lowered, expected, "ground program on {g}");
    }
    if nice.width() <= 2 {
        let (mona, _) = mona_style_3col(g, nice, DetBudget::default()).unwrap();
        assert_eq!(mona, expected, "MONA-style route on {g}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn figure5_evaluators_agree((g, nice) in arb_instance()) {
        assert_evaluators_agree(&g, &nice);
    }
}

/// Two disjoint triangles in one 9-element bag: 3-colourable. The pairs
/// of a 9-element bag overflow a `u32` edge bitmap, which made the
/// automaton reject this graph.
#[test]
fn two_triangles_in_one_nine_element_bag() {
    let g = Graph::from_edges(9, &[(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (4, 6)]);
    let nice = one_bag(&g);
    assert_eq!(nice.width(), 8);
    assert!(is_three_colorable_exact(&g));
    assert_evaluators_agree(&g, &nice);
}
