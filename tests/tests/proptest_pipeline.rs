//! Property-based integration tests: the whole pipeline holds under
//! randomized inputs generated by proptest (as opposed to the seeded
//! `SmallRng` workloads elsewhere).

use mdtw_core::{
    enumerate_primes, ground_three_col, is_prime_fpt_with_td, prime_attributes_fpt, PrimState,
    PrimalityContext, ThreeColSolver,
};
use mdtw_datalog::HornProgram;
use mdtw_decomp::{
    augment_bags, decompose, decompose_with_order, elimination_order, Heuristic, NiceOptions,
    NiceTd, PrimalGraph, TreeDecomposition, TupleTd,
};
use mdtw_graph::{complete, encode_graph, is_three_colorable_exact, partial_k_tree, Graph};
use mdtw_schema::{encode_schema, random_schema, seeded_rng, Schema, SchemaEncoding};
use mdtw_structure::ElemId;
use mdtw_tests::{ground_three_col_reference, leaf_coverage_reference};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Arbitrary small graphs as edge lists over `n ≤ 9` vertices.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..=9).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..(2 * n)).prop_map(move |edges| {
            let mut g = Graph::new(n);
            for (a, b) in edges {
                if a != b {
                    g.add_edge(a, b);
                }
            }
            g
        })
    })
}

/// Graphs for the elimination differential, up to 80 vertices: empty
/// graphs, mostly isolated vertices, disconnected unions, cliques, dense
/// random graphs, partial k-trees, and stars, wheels and fans with random
/// chords around a hub at a random id, where degree order and id order
/// disagree.
fn arb_elimination_graph() -> impl Strategy<Value = Graph> {
    (0u32..7, 0u64..u64::MAX).prop_map(|(family, seed)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        // Edges with probability `p`, only between vertices on the same
        // side of `split`.
        let random = |rng: &mut SmallRng, n: usize, p: f64, split: usize| {
            let mut g = Graph::new(n);
            for a in 0..n as u32 {
                for b in a + 1..n as u32 {
                    if ((a as usize) < split) == ((b as usize) < split) && rng.random_bool(p) {
                        g.add_edge(a, b);
                    }
                }
            }
            g
        };
        match family {
            0 => Graph::new(rng.random_range(0..=12)),
            1 => {
                let n = rng.random_range(1..=60);
                random(&mut rng, n, 0.02, n)
            }
            2 => {
                let n = rng.random_range(2..=60);
                let split = rng.random_range(1..n);
                random(&mut rng, n, 0.3, split)
            }
            3 => complete(rng.random_range(1..=14)),
            4 => {
                let n = rng.random_range(2..=30);
                let p = rng.random_range(0.5..0.95);
                random(&mut rng, n, p, n)
            }
            5 => {
                let k = rng.random_range(1..=4);
                let n = rng.random_range(k + 1..=80);
                let keep = rng.random_range(0.5..1.0);
                partial_k_tree(&mut rng, n, k, keep).0
            }
            _ => {
                let spokes: usize = rng.random_range(2..=60);
                let hub = rng.random_range(0..=spokes as u32);
                let rim: Vec<u32> = (0..=spokes as u32).filter(|&u| u != hub).collect();
                let mut g = Graph::new(spokes + 1);
                for &u in &rim {
                    g.add_edge(hub, u);
                }
                // 0: star, 1: fan (a path through the spokes), 2: wheel.
                let shape = rng.random_range(0..3);
                if shape > 0 {
                    for pair in rim.windows(2) {
                        g.add_edge(pair[0], pair[1]);
                    }
                }
                if shape == 2 {
                    g.add_edge(rim[0], rim[spokes - 1]);
                }
                for _ in 0..rng.random_range(0..=spokes / 2) {
                    let a = rim[rng.random_range(0..spokes)];
                    let b = rim[rng.random_range(0..spokes)];
                    g.add_edge(a, b);
                }
                g
            }
        }
    })
}

/// Reference elimination order: every step rescans all remaining vertices
/// and recomputes each one's degree or fill-in from scratch, keeping the
/// least `(score, vertex)`.
fn reference_elimination_order(g: &PrimalGraph, h: Heuristic) -> Vec<u32> {
    let n = g.len();
    let mut adj: Vec<BTreeSet<u32>> = (0..n as u32)
        .map(|v| g.neighbors(v).iter().copied().collect())
        .collect();
    let mut remaining: BTreeSet<u32> = (0..n as u32).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = remaining.iter().copied().min_by_key(|&v| {
        let ns = &adj[v as usize];
        let score = match h {
            Heuristic::MinDegree => ns.len(),
            Heuristic::MinFill => ns
                .iter()
                .map(|&a| {
                    ns.iter()
                        .filter(|&&b| a < b && !adj[a as usize].contains(&b))
                        .count()
                })
                .sum(),
        };
        (score, v)
    }) {
        let ns = std::mem::take(&mut adj[v as usize]);
        for &a in &ns {
            adj[a as usize].remove(&v);
            adj[a as usize].extend(ns.iter().copied().filter(|&b| b != a));
        }
        remaining.remove(&v);
        order.push(v);
    }
    order
}

/// Arbitrary small schemas: `n ≤ 6` attributes, up to 5 FDs.
fn arb_schema() -> impl Strategy<Value = Schema> {
    (2usize..=6).prop_flat_map(|n| {
        proptest::collection::vec(
            (
                proptest::collection::btree_set(0..n as u32, 1..=3),
                0..n as u32,
            ),
            0..=5,
        )
        .prop_map(move |fds| {
            let mut schema = Schema::new();
            let attrs: Vec<_> = (0..n).map(|i| schema.add_attr(format!("a{i}"))).collect();
            for (lhs, rhs) in fds {
                let lhs: Vec<_> = lhs.into_iter().map(|i| attrs[i as usize]).collect();
                let rhs = attrs[rhs as usize];
                if !lhs.contains(&rhs) {
                    schema.add_fd(&lhs, rhs);
                }
            }
            schema
        })
    })
}

/// Schemas for the leaf-coverage differential: up to 12 attributes and
/// 10 FDs, so min-fill decompositions have many bags.
fn arb_larger_schema() -> impl Strategy<Value = Schema> {
    (2usize..=12, 0usize..=10, 1usize..=3, 0u64..u64::MAX)
        .prop_map(|(n, m, lhs, seed)| random_schema(&mut seeded_rng(seed), n, m, lhs.min(n - 1)))
}

/// Asserts that `nice` equals the rescanning reference's nodes and root,
/// node for node.
fn assert_matches_reference(nice: &NiceTd, uncovered: &NiceTd) {
    let (nodes, root) = leaf_coverage_reference(uncovered);
    assert_eq!(nice.root(), root);
    assert_eq!(nice.len(), nodes.len());
    for (id, expect) in nice.node_ids().zip(&nodes) {
        assert_eq!(nice.bag(id), expect.bag, "bag of {id}");
        assert_eq!(nice.kind(id), expect.kind, "kind of {id}");
        assert!(
            nice.children(id).eq(expect.children.iter().copied()),
            "children of {id}"
        );
        assert_eq!(nice.parent(id), expect.parent, "parent of {id}");
    }
}

/// The nice decomposition `PrimalityContext::from_parts` builds from `td`,
/// but without leaf coverage: bags augmented with FD right-hand sides, FDs
/// ranked above attributes.
fn uncovered_primality_nice(
    encoding: &SchemaEncoding,
    schema: &Schema,
    mut td: TreeDecomposition,
) -> NiceTd {
    let rhs = |e: ElemId| {
        encoding
            .fd_of_elem(e)
            .map(|f| encoding.elem_of_attr(schema.fds()[f].rhs))
    };
    augment_bags(&mut td, rhs);
    let rank = |e: ElemId| u8::from(rhs(e).is_some());
    NiceTd::from_td_with_rank(&td, NiceOptions::default(), &rank)
}

/// A ground Horn rule list, kept apart from [`HornProgram`]'s layout so
/// the oracles below do not read the program they check.
type PlainRules = Vec<(u32, Vec<u32>)>;

/// `rules` pushed, in order, into a program over `n_atoms` atoms.
fn horn_program(n_atoms: usize, rules: &PlainRules) -> HornProgram {
    let mut p = HornProgram::new(n_atoms);
    for (head, body) in rules {
        p.push(*head, body.iter().copied());
    }
    p
}

/// Ground Horn programs over at most 12 atoms, as a plain rule list and
/// the program built from it: facts, rules with duplicate body atoms,
/// cycles and atoms no rule mentions all occur.
fn arb_horn_program() -> impl Strategy<Value = (HornProgram, PlainRules)> {
    let rules = proptest::collection::vec(
        (0u32..64, proptest::collection::vec(0u32..64, 0..=4)),
        0..=24,
    );
    (0u32..=12, rules).prop_map(|(n, rules)| {
        let rules: PlainRules = if n == 0 {
            Vec::new()
        } else {
            rules
                .into_iter()
                .map(|(head, body)| (head % n, body.into_iter().map(|a| a % n).collect()))
                .collect()
        };
        (horn_program(n as usize, &rules), rules)
    })
}

/// The least model over `n_atoms` atoms by firing every rule until a
/// round changes nothing.
fn naive_least_model(n_atoms: usize, rules: &PlainRules) -> Vec<bool> {
    let mut truth = vec![false; n_atoms];
    let mut changed = true;
    while changed {
        changed = false;
        for (head, body) in rules {
            if !truth[*head as usize] && body.iter().all(|&a| truth[a as usize]) {
                truth[*head as usize] = true;
                changed = true;
            }
        }
    }
    truth
}

/// A random partial k-tree of width 1–4 with at most `k + 14` vertices,
/// its nice decomposition (from the generator's own decomposition, with
/// or without leaf coverage) and its width.
fn arb_partial_k_tree() -> impl Strategy<Value = (Graph, NiceTd, usize)> {
    (1usize..=4, 1usize..=14, 0u32..=6, 0u32..2, 0u64..u64::MAX).prop_map(
        |(k, extra, keep, cover, seed)| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (g, td) = partial_k_tree(&mut rng, k + extra, k, 0.4 + 0.1 * f64::from(keep));
            let every_elem_in_leaf = cover == 1;
            let nice = NiceTd::from_td(&td, NiceOptions { every_elem_in_leaf });
            (g, nice, k)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn least_model_matches_the_naive_fixpoint((p, rules) in arb_horn_program()) {
        prop_assert_eq!(p.least_model(), naive_least_model(p.n_atoms, &rules));
    }

    #[test]
    fn rules_returns_the_pushed_sequence((_, rules) in arb_horn_program(), a in 0u32..64) {
        // Empty bodies in the first and last rule, and a body repeating
        // one atom, around the random ones.
        let mut rules = rules;
        rules.insert(0, (a, vec![]));
        rules.push((a, vec![a, a, a]));
        rules.push((a, vec![]));
        let p = horn_program(64, &rules);
        prop_assert_eq!(p.rule_count(), rules.len());
        prop_assert_eq!(p.rules().len(), rules.len());
        let size: usize = rules.iter().map(|(_, body)| 1 + body.len()).sum();
        prop_assert_eq!(p.size(), size);
        let back: PlainRules = p.rules().map(|(head, body)| (head, body.to_vec())).collect();
        prop_assert_eq!(back, rules);
    }

    #[test]
    fn horn_lowering_matches_the_interning_reference((g, nice, k) in arb_partial_k_tree()) {
        let ground = ground_three_col(&g, &nice);
        let reference = ground_three_col_reference(&g, &nice);
        prop_assert_eq!(ground.atom_count(), reference.n_atoms, "width {}", k);
        prop_assert_eq!(ground.rule_count(), reference.rule_count(), "width {}", k);
        let model = ground.horn.least_model();
        let reference_model = reference.least_model();
        let count = |m: &[bool]| m.iter().filter(|&&b| b).count();
        prop_assert_eq!(count(&model), count(&reference_model), "width {}", k);
        prop_assert_eq!(ground.succeeds(), reference_model[0], "width {}", k);
        prop_assert_eq!(ground.succeeds(), ThreeColSolver::run(&g, &nice).is_colorable());
        prop_assert_eq!(ground.succeeds(), is_three_colorable_exact(&g));
    }

    #[test]
    fn decomposition_pipeline_is_always_valid(g in arb_graph()) {
        let s = encode_graph(&g);
        let td = decompose(&s, Heuristic::MinFill);
        prop_assert_eq!(td.validate(&s), Ok(()));
        let nice = NiceTd::from_td(&td, NiceOptions { every_elem_in_leaf: true });
        prop_assert_eq!(nice.validate_nice_form(), Ok(()));
        prop_assert_eq!(nice.to_set_td().validate(&s), Ok(()));
        prop_assert_eq!(nice.width(), td.width());
        if s.domain().len() > td.width().max(1) {
            let tuple = TupleTd::from_td(&td, s.domain().len()).unwrap();
            prop_assert_eq!(tuple.validate_normal_form(), Ok(()));
            prop_assert_eq!(tuple.to_set_td().validate(&s), Ok(()));
        }
    }

    #[test]
    fn three_col_dp_matches_backtracking(g in arb_graph()) {
        let s = encode_graph(&g);
        let td = decompose(&s, Heuristic::MinDegree);
        let nice = NiceTd::from_td(&td, NiceOptions::default());
        let solver = ThreeColSolver::run(&g, &nice);
        prop_assert_eq!(solver.is_colorable(), is_three_colorable_exact(&g));
        if let Some(colors) = solver.witness() {
            prop_assert!(mdtw_graph::is_proper_coloring(&g, &colors, 3));
        }
    }

    #[test]
    fn primality_fpt_matches_exact(schema in arb_schema()) {
        let fpt = prime_attributes_fpt(&schema);
        let exact = schema.prime_attributes_exact();
        prop_assert_eq!(fpt, exact);
    }

    #[test]
    fn primality_tables_are_sorted_sets_and_agree_with_oracles(schema in arb_schema()) {
        let encoding = encode_schema(&schema);
        let td = decompose(&encoding.structure, Heuristic::MinFill);
        let ctx = PrimalityContext::from_parts(encode_schema(&schema), td.clone());
        let up = ctx.run_up();
        let down = ctx.run_down(&up);
        let strictly_increasing = |t: &[PrimState]| t.windows(2).all(|w| w[0] < w[1]);
        for id in ctx.nice.node_ids() {
            prop_assert!(strictly_increasing(&up[id.index()]), "up table of {}", id);
            prop_assert!(strictly_increasing(&down[id.index()]), "down table of {}", id);
        }
        let primes: Vec<_> = enumerate_primes(&ctx)
            .0
            .into_iter()
            .map(|e| encoding.attr_of_elem(e).expect("attribute element"))
            .collect();
        prop_assert_eq!(&primes, &schema.prime_attributes_exact());
        for attr in schema.attrs() {
            let decided = is_prime_fpt_with_td(encode_schema(&schema), td.clone(), attr);
            prop_assert_eq!(primes.contains(&attr), decided, "{:?}", attr);
        }
    }

    #[test]
    fn closure_laws(schema in arb_schema()) {
        // Extensivity, monotonicity (on a chain), idempotence.
        let all: Vec<_> = schema.attrs().collect();
        for k in 0..all.len().min(3) {
            let seed = &all[..k];
            let c1 = schema.closure(seed);
            prop_assert!(seed.iter().all(|a| c1.contains(a)));
            let c2 = schema.closure(&c1);
            prop_assert_eq!(&c1, &c2);
            let bigger = schema.closure(&all[..(k + 1).min(all.len())]);
            prop_assert!(c1.iter().all(|a| bigger.contains(a)));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn elimination_matches_the_rescanning_reference(g in arb_elimination_graph()) {
        let s = encode_graph(&g);
        let pg = PrimalGraph::of(&s);
        for h in [Heuristic::MinDegree, Heuristic::MinFill] {
            let order = elimination_order(&pg, h);
            prop_assert_eq!(&order, &reference_elimination_order(&pg, h), "{:?}", h);
            let td = decompose(&s, h);
            // Bag for bag and node for node, root included.
            let by_order = decompose_with_order(&pg, &order);
            prop_assert_eq!(format!("{td:?}"), format!("{by_order:?}"), "{:?}", h);
            prop_assert_eq!(td.validate(&s), Ok(()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn primality_leaf_coverage_matches_the_rescanning_reference(schema in arb_larger_schema()) {
        let encoding = encode_schema(&schema);
        let td = decompose(&encoding.structure, Heuristic::MinFill);
        let uncovered = uncovered_primality_nice(&encoding, &schema, td.clone());
        let ctx = PrimalityContext::from_parts(encoding, td);
        assert_matches_reference(&ctx.nice, &uncovered);
    }

    #[test]
    fn graph_leaf_coverage_matches_the_rescanning_reference(g in arb_elimination_graph()) {
        let s = encode_graph(&g);
        let td = decompose(&s, Heuristic::MinFill);
        let covered = NiceTd::from_td(&td, NiceOptions { every_elem_in_leaf: true });
        assert_matches_reference(&covered, &NiceTd::from_td(&td, NiceOptions::default()));
    }
}
