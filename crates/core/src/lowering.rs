//! Lowering the succinct 3-Colorability program to *ground monadic
//! datalog* — the other side of the Theorem 5.1 argument.
//!
//! The proof of Theorem 5.1 observes that `solve(s, R, G, B)` is "simply a
//! succinct representation of constantly many monadic predicates
//! solve⟨r1,r2,r3⟩(s)". This module materializes that monadic program for
//! a concrete input: one ground atom per (node, bag coloring) and one
//! ground rule per Figure 5 transition, evaluated by the linear-time LTUR
//! solver of `mdtw-datalog` (propositional datalog, §2.4 fact (1)).
//!
//! Unlike the dynamic program of [`crate::three_col`], the grounding
//! enumerates **all** candidate states at every node — including the ones
//! the bottom-up computation never reaches. Comparing the two quantifies
//! optimization (1) of the paper's §6 ("the vast majority of possible
//! instantiations is never computed since they are not reachable along
//! the bottom-up computation"); the `three_col_ktree` workload of
//! `perfbench` reports both counts (`core.three_col.facts` and
//! `core.lowering.atoms`). The states, their introduce and forget steps
//! and the properness test are [`mdtw_graph::bag_coloring`]'s, shared with
//! the dynamic program.
//!
//! # Atom ids
//!
//! Atom ids are dense and computed, not interned. Atom 0 is `success`.
//! Every node `s` of the nice decomposition owns the contiguous block
//! `base[s] .. base[s] + 3^|bag(s)|`, with blocks laid out in post-order.
//! The colouring that gives the `i`-th bag element colour `cᵢ` (0 red,
//! 1 green, 2 blue) is atom `base[s] + Σ cᵢ·3ⁱ`. Each node's states are
//! enumerated in that order, so a state's position *is* its offset, and
//! the parent-side offsets of Figure 5's transitions are digit
//! arithmetic: introducing the element at bag position `p` with colour
//! `c` maps offset `k` to `k mod 3ᵖ + c·3ᵖ + (k div 3ᵖ)·3ᵖ⁺¹`, and
//! forgetting it maps `k` to `k mod 3ᵖ + (k div 3ᵖ⁺¹)·3ᵖ`. A parent
//! enumerates all of its child's states and `success` all root states, so
//! every id stands for a state the grounding considers; only a child
//! colouring none of whose introduce extensions is proper occurs in no
//! rule body.
//!
//! # Rule storage
//!
//! The rules go into the flat arrays of [`HornProgram`] — heads, body end
//! offsets and one arena of body atoms — which grow by doubling, so
//! grounding allocates nothing per rule. They are not reserved from the
//! `3ⁿ`-per-node upper bounds: leaves and introduce nodes drop the
//! improper colourings, and those bounds are 1.6–1.9 times the rules
//! actually pushed.

use mdtw_datalog::HornProgram;
use mdtw_decomp::{NiceKind, NiceTd};
use mdtw_graph::{BagAdjacency, BagColoring, Graph};

/// The materialized ground program.
///
/// Atom 0 is `success`; node `s` owns atoms `base[s] .. base[s] +
/// 3^|bag(s)|`, one per bag colouring. The rules share one body arena
/// that grows by doubling, as the [module docs](self#rule-storage)
/// describe.
#[derive(Debug)]
pub struct GroundThreeCol {
    /// The propositional program.
    pub horn: HornProgram,
}

impl GroundThreeCol {
    /// The number of ground atoms (materialized `solve⟨r,g,b⟩(s)` facts).
    pub fn atom_count(&self) -> usize {
        self.horn.n_atoms
    }

    /// The number of ground rules.
    pub fn rule_count(&self) -> usize {
        self.horn.rule_count()
    }

    /// Evaluates the program; true iff `success` is in the least model.
    pub fn succeeds(&self) -> bool {
        self.horn.least_model()[0]
    }
}

/// Materializes the Figure 5 program over `(graph, td)` as ground monadic
/// datalog. Size is `O(3^{w+1} · |td|)` — linear in the data for fixed
/// width, as Theorem 4.4 requires, but with the full `f(w)` constant paid
/// up front.
///
/// # Panics
/// Panics if the atom count `1 + Σ_s 3^|bag(s)|` does not fit in `u32`
/// (a bag of 21 or more elements, or very many large bags).
pub fn ground_three_col(graph: &Graph, td: &NiceTd) -> GroundThreeCol {
    let order = td.post_order();
    // Atom 0 = success; then one block of 3^|bag| atoms per node.
    let mut base = vec![0u32; td.len()];
    let mut next = 1u32;
    let mut max_bag = 0;
    for &node in &order {
        let n = td.bag(node).len();
        max_bag = max_bag.max(n);
        base[node.index()] = next;
        next = 3u32
            .checked_pow(n as u32)
            .and_then(|block| next.checked_add(block))
            .expect("the Figure 5 grounding has more than u32::MAX atoms");
    }
    let pow3: Vec<u32> = (0..=max_bag as u32).map(|i| 3u32.pow(i)).collect();
    let root = td.root();
    let root_states = pow3[td.bag(root).len()] as usize;

    let mut horn = HornProgram::new(next as usize);
    for &node in &order {
        let bag = td.bag(node);
        let n = bag.len();
        let at = base[node.index()];
        match td.kind(node) {
            NiceKind::Leaf => {
                let adj = BagAdjacency::of_bag(graph, bag);
                for (k, state) in (0u32..).zip(BagColoring::all(n)) {
                    if adj.is_proper(state) {
                        horn.push(at + k, []);
                    }
                }
            }
            NiceKind::Introduce(v) => {
                let child = base[td.children(node).next().expect("one child").index()];
                let vpos = bag.binary_search(&v).expect("introduced in bag");
                let p = pow3[vpos];
                // Every child state, proper or not, so the full check.
                let adj = BagAdjacency::of_bag(graph, bag);
                for (k, state) in (0u32..).zip(BagColoring::all(n - 1)) {
                    let spread = at + k % p + k / p * 3 * p;
                    for (color, cand) in (0u32..).zip(state.extensions(vpos)) {
                        if adj.is_proper(cand) {
                            horn.push(spread + color * p, [child + k]);
                        }
                    }
                }
            }
            NiceKind::Forget(v) => {
                let child_node = td.children(node).next().expect("one child");
                let child = base[child_node.index()];
                let vpos = td
                    .bag(child_node)
                    .binary_search(&v)
                    .expect("forgotten in child");
                let p = pow3[vpos];
                for k in 0..pow3[n + 1] {
                    horn.push(at + k % p + k / (3 * p) * p, [child + k]);
                }
            }
            NiceKind::Branch => {
                let mut children = td.children(node).map(|c| base[c.index()]);
                let (Some(c1), Some(c2)) = (children.next(), children.next()) else {
                    unreachable!("a branch node has two children")
                };
                for k in 0..pow3[n] {
                    horn.push(at + k, [c1 + k, c2 + k]);
                }
            }
        }
    }
    // success ← solve(root, R, G, B) for every root state.
    let at = base[root.index()];
    for k in 0..root_states as u32 {
        horn.push(0, [at + k]);
    }
    GroundThreeCol { horn }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::three_col::ThreeColSolver;
    use mdtw_decomp::NiceOptions;
    use mdtw_graph::{complete, cycle, encode_graph, partial_k_tree, petersen, wheel};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn nice_of(g: &Graph) -> NiceTd {
        let s = encode_graph(g);
        let td = mdtw_decomp::decompose(&s, mdtw_decomp::Heuristic::MinFill);
        NiceTd::from_td(&td, NiceOptions::default())
    }

    #[test]
    fn grounding_agrees_with_dp_on_classics() {
        for (g, expect) in [
            (cycle(5), true),
            (complete(4), false),
            (wheel(5), false),
            (wheel(6), true),
            (petersen(), true),
        ] {
            let td = nice_of(&g);
            let ground = ground_three_col(&g, &td);
            assert_eq!(ground.succeeds(), expect, "{g}");
            let dp = ThreeColSolver::run(&g, &td);
            assert_eq!(ground.succeeds(), dp.is_colorable(), "{g}");
        }
    }

    #[test]
    fn grounding_agrees_with_dp_on_random_inputs() {
        let mut rng = SmallRng::seed_from_u64(77);
        for i in 0..12 {
            let (g, td) = partial_k_tree(&mut rng, 14 + i, 2 + i % 3, 0.8);
            let nice = NiceTd::from_td(&td, NiceOptions::default());
            let ground = ground_three_col(&g, &nice);
            let dp = ThreeColSolver::run(&g, &nice);
            assert_eq!(ground.succeeds(), dp.is_colorable(), "instance {i}");
        }
    }

    #[test]
    fn grounding_materializes_more_facts_than_dp_reaches() {
        // §6 optimization (1): the DP table is (weakly) smaller than the
        // full materialization at every width.
        let mut rng = SmallRng::seed_from_u64(3);
        let (g, td) = partial_k_tree(&mut rng, 20, 3, 0.7);
        let nice = NiceTd::from_td(&td, NiceOptions::default());
        let ground = ground_three_col(&g, &nice);
        let dp = ThreeColSolver::run(&g, &nice);
        assert!(ground.atom_count() >= dp.fact_count);
        assert!(ground.rule_count() > 0);
    }

    #[test]
    fn state_enumeration_counts() {
        for n in 0..=4 {
            assert_eq!(BagColoring::all(n).count(), 3usize.pow(n as u32));
        }
    }

    #[test]
    fn state_position_is_its_base_three_offset() {
        for n in 0..=4 {
            for (k, state) in BagColoring::all(n).enumerate() {
                assert_eq!(state.r & state.g, 0);
                let offset: usize = (0..n)
                    .map(|i| usize::from(state.color(i)) * 3usize.pow(i as u32))
                    .sum();
                assert_eq!(offset, k, "n = {n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "the Figure 5 grounding has more than u32::MAX atoms")]
    fn atom_ids_beyond_u32_panic_before_grounding() {
        // K21's full bag has 3^21 > u32::MAX colourings.
        ground_three_col(&complete(21), &nice_of(&complete(21)));
    }
}
