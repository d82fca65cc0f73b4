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
//! Beyond the paper's decision procedure, [`ThreeColSolver::witness`]
//! extracts an explicit coloring by replaying the table top-down.

use mdtw_decomp::{NiceKind, NiceTd, NodeId};
use mdtw_graph::Graph;
use mdtw_structure::fx::FxHashSet;
use mdtw_structure::ElemId;

/// A `solve(s, R, G, B)` fact: bitmasks over the *sorted bag positions*
/// of node `s`. Positions not in `r` or `g` are in `B`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColorState {
    /// Bag positions colored "red".
    pub r: u64,
    /// Bag positions colored "green".
    pub g: u64,
}

impl ColorState {
    #[inline]
    fn color_of(&self, pos: usize) -> u8 {
        if self.r >> pos & 1 == 1 {
            0
        } else if self.g >> pos & 1 == 1 {
            1
        } else {
            2
        }
    }
}

/// The per-node `solve` tables for a graph and a nice tree decomposition.
#[derive(Debug)]
pub struct ThreeColSolver<'a> {
    graph: &'a Graph,
    td: &'a NiceTd,
    tables: Vec<FxHashSet<ColorState>>,
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

    /// The table at `node` (exposed for the enumeration/ablation benches).
    pub fn table(&self, node: NodeId) -> &FxHashSet<ColorState> {
        &self.tables[node.index()]
    }

    /// `allowed(s, X)` of Figure 5: no two adjacent bag vertices in `mask`.
    fn allowed(&self, bag: &[ElemId], mask: u64) -> bool {
        let mut bits = mask;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let mut rest = bits;
            while rest != 0 {
                let j = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if self.graph.has_edge(bag[i].0, bag[j].0) {
                    return false;
                }
            }
        }
        true
    }

    fn compute_node(&self, node: NodeId) -> FxHashSet<ColorState> {
        let bag = self.td.bag(node);
        let mut out = FxHashSet::default();
        match self.td.kind(node) {
            NiceKind::Leaf => {
                // partition(s, R, G, B) with allowed(R), allowed(G), allowed(B).
                let n = bag.len();
                debug_assert!(n <= 63, "bag exceeds bitmask width");
                for r in 0u64..(1 << n) {
                    if !self.allowed(bag, r) {
                        continue;
                    }
                    let rest = !r & ((1 << n) - 1);
                    // Enumerate g ⊆ rest via subset iteration.
                    let mut gmask = rest;
                    loop {
                        if self.allowed(bag, gmask) {
                            let b = rest & !gmask;
                            if self.allowed(bag, b) {
                                out.insert(ColorState { r, g: gmask });
                            }
                        }
                        if gmask == 0 {
                            break;
                        }
                        gmask = (gmask - 1) & rest;
                    }
                }
            }
            NiceKind::Introduce(v) => {
                let child = self.td.children(node).next().expect("one child");
                let child_bag = self.td.bag(child);
                let vpos = bag.binary_search(&v).expect("introduced element in bag");
                // Bag positions below vpos keep their index; those at or
                // above shift by one relative to the child bag.
                let lift = |mask: u64| -> u64 {
                    let low = mask & ((1u64 << vpos) - 1);
                    let high = (mask >> vpos) << (vpos + 1);
                    low | high
                };
                let _ = child_bag;
                for state in &self.tables[child.index()] {
                    let base = ColorState {
                        r: lift(state.r),
                        g: lift(state.g),
                    };
                    for color in 0..3u8 {
                        let cand = match color {
                            0 => ColorState {
                                r: base.r | 1 << vpos,
                                g: base.g,
                            },
                            1 => ColorState {
                                r: base.r,
                                g: base.g | 1 << vpos,
                            },
                            _ => base,
                        };
                        // Only the new vertex's class needs re-checking.
                        let class = match color {
                            0 => cand.r,
                            1 => cand.g,
                            _ => !(cand.r | cand.g) & ((1u64 << bag.len()) - 1),
                        };
                        if self.allowed_with(bag, class, vpos) {
                            out.insert(cand);
                        }
                    }
                }
            }
            NiceKind::Forget(v) => {
                let child = self.td.children(node).next().expect("one child");
                let child_bag = self.td.bag(child);
                let vpos = child_bag
                    .binary_search(&v)
                    .expect("forgotten element in child bag");
                let drop = |mask: u64| -> u64 {
                    let low = mask & ((1u64 << vpos) - 1);
                    let high = (mask >> (vpos + 1)) << vpos;
                    low | high
                };
                for state in &self.tables[child.index()] {
                    out.insert(ColorState {
                        r: drop(state.r),
                        g: drop(state.g),
                    });
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

    /// Checks that vertex at `vpos` has no same-class neighbour inside
    /// `class` (cheaper than a full `allowed` re-check).
    fn allowed_with(&self, bag: &[ElemId], class: u64, vpos: usize) -> bool {
        if class >> vpos & 1 == 0 {
            return true;
        }
        let mut bits = class & !(1u64 << vpos);
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if self.graph.has_edge(bag[vpos].0, bag[j].0) {
                return false;
            }
        }
        true
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
        state: ColorState,
        colors: &mut [u8],
        stack: &mut Vec<(NodeId, ColorState)>,
    ) {
        let bag = self.td.bag(node);
        for (pos, &v) in bag.iter().enumerate() {
            colors[v.index()] = state.color_of(pos);
        }
        match self.td.kind(node) {
            NiceKind::Leaf => {}
            NiceKind::Introduce(v) => {
                let child = self.td.children(node).next().expect("one child");
                let vpos = bag.binary_search(&v).expect("in bag");
                let drop = |mask: u64| -> u64 {
                    let low = mask & ((1u64 << vpos) - 1);
                    let high = (mask >> (vpos + 1)) << vpos;
                    low | high
                };
                let child_state = ColorState {
                    r: drop(state.r),
                    g: drop(state.g),
                };
                debug_assert!(self.tables[child.index()].contains(&child_state));
                stack.push((child, child_state));
            }
            NiceKind::Forget(v) => {
                let child = self.td.children(node).next().expect("one child");
                let child_bag = self.td.bag(child);
                let vpos = child_bag.binary_search(&v).expect("in child bag");
                let lift = |mask: u64| -> u64 {
                    let low = mask & ((1u64 << vpos) - 1);
                    let high = (mask >> vpos) << (vpos + 1);
                    low | high
                };
                let base = ColorState {
                    r: lift(state.r),
                    g: lift(state.g),
                };
                // Find the color the table proves extendable for v.
                let child_state = (0..3u8)
                    .map(|color| match color {
                        0 => ColorState {
                            r: base.r | 1 << vpos,
                            g: base.g,
                        },
                        1 => ColorState {
                            r: base.r,
                            g: base.g | 1 << vpos,
                        },
                        _ => base,
                    })
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
