//! The 3-Colorability program of Figure 5 (paper §5.1).
//!
//! The datalog program's `solve(s, R, G, B)` facts are materialized as a
//! per-node dynamic-programming table: a fact holds iff the bag can be
//! partitioned into color classes `R, G, B` that extend to a proper
//! 3-coloring of all vertices seen in the subtree below `s` (Property A).
//! Because `R, G, B` are subsets of the bag, each fact is encoded in two
//! bag-local bitmasks (`r`, `g`; `b` is the complement) — this is exactly
//! the "succinct representation of constantly many monadic predicates
//! solve⟨r1,r2,r3⟩(s)" argument from the proof of Theorem 5.1.
//!
//! The bag-local steps (colourings, introduce and forget, properness)
//! are [`mdtw_graph::bag_coloring`]'s, shared with the Horn lowering of
//! [`crate::lowering`] and the tree automaton of `mdtw-fta`.
//!
//! Beyond the paper's decision procedure, [`ThreeColSolver::witness`]
//! extracts an explicit coloring by replaying the table top-down.

use mdtw_decomp::{NiceKind, NiceTd, NodeId};
use mdtw_graph::{BagAdjacency, BagColoring, Graph};
use mdtw_structure::fx::FxHashSet;
use mdtw_structure::ElemId;

/// The per-node `solve` tables for a graph and a nice tree decomposition.
#[derive(Debug)]
pub struct ThreeColSolver<'a> {
    graph: &'a Graph,
    td: &'a NiceTd,
    tables: Vec<FxHashSet<BagColoring>>,
    /// Total number of `solve` facts (for the state-count ablations).
    pub fact_count: usize,
}

impl<'a> ThreeColSolver<'a> {
    /// Runs the bottom-up computation of Figure 5. The decomposition must
    /// be over the graph's vertex ids (element `i` = vertex `i`), as
    /// produced by `mdtw_graph::partial_k_tree` or by decomposing
    /// `mdtw_graph::encode_graph`.
    pub fn run(graph: &'a Graph, td: &'a NiceTd) -> Self {
        let mut solver = Self {
            graph,
            td,
            tables: vec![FxHashSet::default(); td.len()],
            fact_count: 0,
        };
        for node in td.post_order() {
            let table = solver.compute_node(node);
            solver.fact_count += table.len();
            solver.tables[node.index()] = table;
        }
        solver
    }

    /// The `success` fact of Figure 5: some `solve(root, R, G, B)` exists.
    pub fn is_colorable(&self) -> bool {
        !self.tables[self.td.root().index()].is_empty()
    }

    /// The only child of an introduce or forget node, and the position of
    /// the introduced or forgotten element `v` in whichever of the two
    /// bags holds it.
    fn step(&self, node: NodeId, v: ElemId) -> (NodeId, usize) {
        let child = self.td.children(node).next().expect("one child");
        let pos = |n: NodeId| self.td.bag(n).binary_search(&v);
        let pos = pos(node).or_else(|_| pos(child)).expect("element in a bag");
        (child, pos)
    }

    fn compute_node(&self, node: NodeId) -> FxHashSet<BagColoring> {
        let bag = self.td.bag(node);
        let mut out = FxHashSet::default();
        match self.td.kind(node) {
            // partition(s, R, G, B) with allowed(R), allowed(G), allowed(B).
            NiceKind::Leaf => {
                let adj = BagAdjacency::of_bag(self.graph, bag);
                out.extend(adj.proper_colorings());
            }
            NiceKind::Introduce(v) => {
                let (child, vpos) = self.step(node, v);
                let adj = BagAdjacency::of_bag(self.graph, bag);
                // Child states are proper: only the new vertex's class
                // needs checking.
                for state in &self.tables[child.index()] {
                    for c in state.extensions(vpos) {
                        if adj.is_proper_at(c, vpos) {
                            out.insert(c);
                        }
                    }
                }
            }
            NiceKind::Forget(v) => {
                let (child, vpos) = self.step(node, v);
                for state in &self.tables[child.index()] {
                    out.insert(state.drop(vpos));
                }
            }
            NiceKind::Branch => {
                let mut children = self.td.children(node);
                let (Some(c1), Some(c2)) = (children.next(), children.next()) else {
                    unreachable!("a branch node has two children")
                };
                let (small, large) =
                    if self.tables[c1.index()].len() <= self.tables[c2.index()].len() {
                        (c1, c2)
                    } else {
                        (c2, c1)
                    };
                for state in &self.tables[small.index()] {
                    if self.tables[large.index()].contains(state) {
                        out.insert(*state);
                    }
                }
            }
        }
        out
    }

    /// Extracts a proper 3-coloring by replaying the tables top-down
    /// (an extension over the paper's decision procedure).
    pub fn witness(&self) -> Option<Vec<u8>> {
        let root = self.td.root();
        let root_state = *self.tables[root.index()].iter().next()?;
        let mut colors = vec![u8::MAX; self.graph.len()];
        let mut stack = vec![(root, root_state)];
        while let Some((node, state)) = stack.pop() {
            self.assign(node, state, &mut colors, &mut stack);
        }
        // Vertices never covered by a bag (absent from the decomposition)
        // are isolated w.r.t. it; color them 0.
        for c in &mut colors {
            if *c == u8::MAX {
                *c = 0;
            }
        }
        debug_assert!(mdtw_graph::is_proper_coloring(self.graph, &colors, 3));
        Some(colors)
    }

    /// Records the bag colors of `state` at `node` and pushes the child
    /// states to replay next.
    fn assign(
        &self,
        node: NodeId,
        state: BagColoring,
        colors: &mut [u8],
        stack: &mut Vec<(NodeId, BagColoring)>,
    ) {
        for (pos, &v) in self.td.bag(node).iter().enumerate() {
            colors[v.index()] = state.color(pos);
        }
        match self.td.kind(node) {
            NiceKind::Leaf => {}
            NiceKind::Introduce(v) => {
                let (child, vpos) = self.step(node, v);
                let child_state = state.drop(vpos);
                debug_assert!(self.tables[child.index()].contains(&child_state));
                stack.push((child, child_state));
            }
            NiceKind::Forget(v) => {
                let (child, vpos) = self.step(node, v);
                // Find the color the table proves extendable for v.
                let child_state = state
                    .extensions(vpos)
                    .into_iter()
                    .find(|cand| self.tables[child.index()].contains(cand))
                    .expect("table invariant: some extension exists");
                stack.push((child, child_state));
            }
            NiceKind::Branch => {
                for child in self.td.children(node) {
                    debug_assert!(self.tables[child.index()].contains(&state));
                    stack.push((child, state));
                }
            }
        }
    }
}

/// End-to-end 3-colorability: encodes the graph, computes a min-fill tree
/// decomposition, converts to the §5 nice normal form and runs Figure 5.
pub fn is_three_colorable_fpt(graph: &Graph) -> bool {
    let (solver_result, _) = three_coloring_fpt(graph);
    solver_result
}

/// End-to-end decision plus witness extraction.
pub fn three_coloring_fpt(graph: &Graph) -> (bool, Option<Vec<u8>>) {
    if graph.is_empty() {
        return (true, Some(Vec::new()));
    }
    let structure = mdtw_graph::encode_graph(graph);
    let td = mdtw_decomp::decompose(&structure, mdtw_decomp::Heuristic::MinFill);
    let nice = NiceTd::from_td(&td, mdtw_decomp::NiceOptions::default());
    let solver = ThreeColSolver::run(graph, &nice);
    let ok = solver.is_colorable();
    let witness = if ok { solver.witness() } else { None };
    (ok, witness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdtw_graph::{
        complete, cycle, grid, is_proper_coloring, is_three_colorable_exact, partial_k_tree, path,
        petersen, wheel,
    };
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn classic_yes_instances() {
        for g in [
            path(6),
            cycle(5),
            cycle(6),
            grid(3, 5),
            petersen(),
            wheel(6),
        ] {
            assert!(is_three_colorable_fpt(&g), "{g}");
        }
    }

    #[test]
    fn classic_no_instances() {
        for g in [complete(4), wheel(5), wheel(7), complete(5)] {
            assert!(!is_three_colorable_fpt(&g), "{g}");
        }
    }

    #[test]
    fn witness_is_proper_when_colorable() {
        let (ok, witness) = three_coloring_fpt(&petersen());
        assert!(ok);
        let colors = witness.unwrap();
        assert!(is_proper_coloring(&petersen(), &colors, 3));
    }

    #[test]
    fn agrees_with_backtracking_on_random_partial_k_trees() {
        let mut rng = SmallRng::seed_from_u64(2024);
        for i in 0..30 {
            let k = 2 + (i % 3);
            let (g, td) = partial_k_tree(&mut rng, 12 + i, k, 0.8);
            let nice = NiceTd::from_td(&td, mdtw_decomp::NiceOptions::default());
            let solver = ThreeColSolver::run(&g, &nice);
            assert_eq!(
                solver.is_colorable(),
                is_three_colorable_exact(&g),
                "instance {i}"
            );
            if solver.is_colorable() {
                let colors = solver.witness().unwrap();
                assert!(is_proper_coloring(&g, &colors, 3));
            }
        }
    }

    #[test]
    fn generated_decomposition_path_matches_heuristic_path() {
        let mut rng = SmallRng::seed_from_u64(7);
        let (g, td) = partial_k_tree(&mut rng, 18, 3, 0.6);
        let nice = NiceTd::from_td(&td, mdtw_decomp::NiceOptions::default());
        let via_given = ThreeColSolver::run(&g, &nice).is_colorable();
        let via_heuristic = is_three_colorable_fpt(&g);
        assert_eq!(via_given, via_heuristic);
    }

    #[test]
    fn empty_and_tiny_graphs() {
        assert!(is_three_colorable_fpt(&Graph::new(0)));
        assert!(is_three_colorable_fpt(&Graph::new(1)));
        assert!(is_three_colorable_fpt(&complete(3)));
    }
}
