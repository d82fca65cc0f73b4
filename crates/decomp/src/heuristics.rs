//! Tree-decomposition construction.
//!
//! Bodlaender's linear-time algorithm (\[3\] in the paper) is famously
//! impractical; like the paper's own prototype we rely on elimination-order
//! heuristics (min-degree, min-fill) which are exact on chordal inputs and
//! near-optimal on the bounded-treewidth workloads used here, plus an exact
//! exponential search for small instances (used in tests to certify widths,
//! e.g. that Example 2.2 has treewidth 2).
//!
//! # Elimination
//!
//! One pass eliminates every vertex once and records its bag `{v} ∪ N(v)`.
//! Under a heuristic the next vertex is the one with the least
//! `(score, vertex)` pair: the score is the current degree (min-degree) or
//! the number of non-adjacent pairs in the current neighbourhood (min-fill),
//! and ties go to the smaller vertex id.
//!
//! The scores are exact at every step, yet none is recomputed from scratch.
//! Eliminating `v` changes them by these deltas, each taken on the graph as
//! it is just before the change it accounts for:
//!
//! * adding the fill edge `(a, b)`: each common neighbour `c ≠ v` of `a` and
//!   `b` loses 1, `a` gains `|N(a) ∖ N(b)|` and `b` gains `|N(b) ∖ N(a)|`;
//! * removing `v`, whose neighbourhood is a clique by then: each
//!   `u ∈ N(v)` loses `|N(u) ∖ N[v]| = deg(u) − deg(v)`.
//!
//! Under min-degree the deltas are `+1` for both ends of a fill edge and
//! `−1` for each neighbour of `v`. Only vertices whose score changed are
//! re-keyed in the ordered queue. A step costs `O(d² + f·m + t·log n)`:
//! `d = deg(v)`, `f` fill edges, `m` the smaller degree of a fill edge's
//! ends (min-fill only) and `t` re-keyed vertices. Rescanning every
//! remaining vertex would cost `O(Σ_u deg(u)²)` per step instead.

use crate::tree::{NodeId, TreeDecomposition};
use mdtw_structure::fx::FxHashSet;
use mdtw_structure::{ElemId, Structure};
use std::collections::BTreeSet;

/// The primal (Gaifman) graph of a structure: one vertex per domain
/// element, an edge whenever two elements co-occur in some EDB tuple.
#[derive(Debug, Clone)]
pub struct PrimalGraph {
    /// `adj[v]` is the sorted set of neighbours of `v`.
    adj: Vec<Vec<u32>>,
}

impl PrimalGraph {
    /// Builds the primal graph of `structure`.
    pub fn of(structure: &Structure) -> Self {
        let n = structure.domain().len();
        let mut sets: Vec<FxHashSet<u32>> = vec![FxHashSet::default(); n];
        for p in structure.signature().preds() {
            for t in structure.relation(p).iter() {
                for (i, &a) in t.iter().enumerate() {
                    for &b in &t[i + 1..] {
                        if a != b {
                            sets[a.index()].insert(b.0);
                            sets[b.index()].insert(a.0);
                        }
                    }
                }
            }
        }
        Self::from_sets(sets)
    }

    /// Builds a primal graph directly from an edge list on `n` vertices.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut sets: Vec<FxHashSet<u32>> = vec![FxHashSet::default(); n];
        for &(a, b) in edges {
            if a != b {
                sets[a as usize].insert(b);
                sets[b as usize].insert(a);
            }
        }
        Self::from_sets(sets)
    }

    fn from_sets(sets: Vec<FxHashSet<u32>>) -> Self {
        let adj = sets
            .into_iter()
            .map(|s| {
                let mut v: Vec<u32> = s.into_iter().collect();
                v.sort_unstable();
                v
            })
            .collect();
        Self { adj }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True if the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Neighbours of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[v as usize]
    }
}

/// Elimination-order heuristic to use for decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Heuristic {
    /// Repeatedly eliminate a vertex of minimum current degree.
    MinDegree,
    /// Repeatedly eliminate a vertex adding the fewest fill-in edges.
    MinFill,
}

/// Exact heuristic scores of the vertices not yet eliminated, with an
/// ordered queue of their `(score, vertex)` keys.
struct Scores {
    heuristic: Heuristic,
    score: Vec<usize>,
    /// `keyed[u]` is the score `u` is filed under in `queue`.
    keyed: Vec<usize>,
    queue: BTreeSet<(usize, u32)>,
    /// Vertices whose score may differ from `keyed` (repeats allowed).
    changed: Vec<u32>,
}

impl Scores {
    fn new(heuristic: Heuristic, adj: &[FxHashSet<u32>]) -> Self {
        let score: Vec<usize> = match heuristic {
            Heuristic::MinDegree => adj.iter().map(FxHashSet::len).collect(),
            Heuristic::MinFill => adj
                .iter()
                .map(|ns| {
                    let ns: Vec<u32> = ns.iter().copied().collect();
                    let mut missing = 0;
                    for (i, &a) in ns.iter().enumerate() {
                        missing += ns[i + 1..]
                            .iter()
                            .filter(|&b| !adj[a as usize].contains(b))
                            .count();
                    }
                    missing
                })
                .collect(),
        };
        let queue = score.iter().zip(0..).map(|(&s, v)| (s, v)).collect();
        Self {
            heuristic,
            keyed: score.clone(),
            score,
            queue,
            changed: Vec::new(),
        }
    }

    /// Takes the vertex with the least `(score, vertex)` key off the queue.
    fn pop_min(&mut self) -> u32 {
        self.queue
            .pop_first()
            .expect("a vertex is left to eliminate")
            .1
    }

    fn add(&mut self, u: u32, delta: usize) {
        self.score[u as usize] += delta;
        self.changed.push(u);
    }

    fn sub(&mut self, u: u32, delta: usize) {
        self.score[u as usize] -= delta;
        self.changed.push(u);
    }

    /// Accounts for the fill edge `(a, b)` of eliminating `v`; `adj` is the
    /// graph just before the edge goes in.
    fn fill_edge(&mut self, adj: &[FxHashSet<u32>], v: u32, a: u32, b: u32) {
        match self.heuristic {
            Heuristic::MinDegree => {
                self.add(a, 1);
                self.add(b, 1);
            }
            Heuristic::MinFill => {
                let (na, nb) = (&adj[a as usize], &adj[b as usize]);
                let (small, large) = if na.len() <= nb.len() {
                    (na, nb)
                } else {
                    (nb, na)
                };
                let mut common = 0;
                for &c in small {
                    if large.contains(&c) {
                        common += 1;
                        if c != v {
                            self.sub(c, 1);
                        }
                    }
                }
                self.add(a, na.len() - common);
                self.add(b, nb.len() - common);
            }
        }
    }

    /// Accounts for removing `v`, whose neighbourhood `ns` is a clique in
    /// `adj` by now.
    fn remove(&mut self, adj: &[FxHashSet<u32>], ns: &[u32]) {
        for &u in ns {
            let delta = match self.heuristic {
                Heuristic::MinDegree => 1,
                Heuristic::MinFill => adj[u as usize].len() - ns.len(),
            };
            self.sub(u, delta);
        }
    }

    /// Re-files every changed vertex under its current score.
    fn requeue(&mut self) {
        for u in self.changed.drain(..) {
            let (old, new) = (self.keyed[u as usize], self.score[u as usize]);
            if old != new {
                self.queue.remove(&(old, u));
                self.queue.insert((new, u));
                self.keyed[u as usize] = new;
            }
        }
    }
}

/// Where one elimination pass takes its next vertex from.
enum Pick<'a> {
    /// The least `(score, vertex)` key under the heuristic.
    Heuristic(Heuristic),
    /// A permutation of the vertices.
    Order(&'a [u32]),
}

/// Eliminates every vertex of `g` once, in the order `pick` gives, and
/// returns that order together with each step's sorted bag `{v} ∪ N(v)`.
fn eliminate(g: &PrimalGraph, pick: Pick<'_>) -> (Vec<u32>, Vec<Vec<u32>>) {
    let n = g.len();
    let mut adj: Vec<FxHashSet<u32>> = g
        .adj
        .iter()
        .map(|ns| ns.iter().copied().collect())
        .collect();
    let (mut given, mut scores) = match pick {
        Pick::Order(order) => (order.iter(), None),
        Pick::Heuristic(h) => ([].iter(), Some(Scores::new(h, &adj))),
    };
    let mut order = Vec::with_capacity(n);
    let mut bags = Vec::with_capacity(n);
    for _ in 0..n {
        let v = match scores.as_mut() {
            Some(scores) => scores.pop_min(),
            None => *given.next().expect("the order has one entry per vertex"),
        };
        let mut ns: Vec<u32> = adj[v as usize].iter().copied().collect();
        for (i, &a) in ns.iter().enumerate() {
            for &b in &ns[i + 1..] {
                if adj[a as usize].contains(&b) {
                    continue;
                }
                if let Some(scores) = scores.as_mut() {
                    scores.fill_edge(&adj, v, a, b);
                }
                adj[a as usize].insert(b);
                adj[b as usize].insert(a);
            }
        }
        if let Some(scores) = scores.as_mut() {
            scores.remove(&adj, &ns);
            scores.requeue();
        }
        for &u in &ns {
            adj[u as usize].remove(&v);
        }
        adj[v as usize] = FxHashSet::default();
        ns.push(v);
        ns.sort_unstable();
        order.push(v);
        bags.push(ns);
    }
    (order, bags)
}

/// Computes an elimination order with the given heuristic.
///
/// Each step eliminates the vertex with the least `(score, vertex)` pair,
/// where the score is its current degree ([`Heuristic::MinDegree`]) or the
/// number of fill edges eliminating it would add ([`Heuristic::MinFill`]);
/// ties go to the smaller vertex id. Scores are kept exact by the deltas
/// described in the [module docs](self), so a step costs
/// `O(d² + f·m + t·log n)` for a vertex of degree `d` adding `f` fill
/// edges, `m` the smaller degree of a fill edge's ends and `t` vertices
/// whose score changed — not a rescan of every remaining vertex.
pub fn elimination_order(g: &PrimalGraph, heuristic: Heuristic) -> Vec<u32> {
    eliminate(g, Pick::Heuristic(heuristic)).0
}

/// Builds a rooted tree decomposition from an elimination order over the
/// primal graph (the standard "elimination tree" construction: the bag of
/// `v` is `{v} ∪ N(v)` at elimination time; its parent is the bag of the
/// earliest-eliminated element of `N(v)`).
///
/// # Panics
///
/// If `order` does not have one entry per vertex, or is not a permutation
/// of `0..g.len()`: the message names the first entry that is out of range
/// or repeats an earlier one.
pub fn decompose_with_order(g: &PrimalGraph, order: &[u32]) -> TreeDecomposition {
    let n = g.len();
    assert_eq!(order.len(), n, "order must cover all vertices");
    let mut seen = vec![false; n];
    for (i, &v) in order.iter().enumerate() {
        let Some(seen) = seen.get_mut(v as usize) else {
            panic!("order[{i}] = {v} is not a vertex of this {n}-vertex graph");
        };
        assert!(!*seen, "order[{i}] = {v} repeats an earlier entry");
        *seen = true;
    }
    let (order, bags) = eliminate(g, Pick::Order(order));
    tree_from_bags(&order, &bags)
}

/// Links the bags of an elimination pass into the elimination tree: the
/// parent of `v`'s bag is the bag of the earliest-eliminated other member.
fn tree_from_bags(order: &[u32], bags: &[Vec<u32>]) -> TreeDecomposition {
    let n = order.len();
    if n == 0 {
        return TreeDecomposition::singleton(Vec::new());
    }
    let mut pos = vec![0usize; n];
    for (i, &v) in order.iter().enumerate() {
        pos[v as usize] = i;
    }
    // All other members of a bag are eliminated after its vertex.
    let parent: Vec<Option<usize>> = bags
        .iter()
        .zip(order)
        .map(|(bag, &v)| {
            bag.iter()
                .filter(|&&u| u != v)
                .map(|&u| pos[u as usize])
                .min()
        })
        .collect();
    // Roots: bags with no parent (one per connected component). Chain the
    // components together under the last root so we return a single tree
    // (bags may be disjoint; attaching preserves all conditions because the
    // connecting edges carry no shared elements).
    let roots: Vec<usize> = (0..n).filter(|&i| parent[i].is_none()).collect();
    let main_root = *roots.last().expect("at least one root");
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, p) in parent.iter().enumerate() {
        if let Some(p) = p {
            children[*p].push(i);
        }
    }
    for &r in &roots {
        if r != main_root {
            children[main_root].push(r);
        }
    }
    let to_elems = |b: &Vec<u32>| b.iter().map(|&x| ElemId(x)).collect::<Vec<_>>();
    let mut td = TreeDecomposition::singleton(to_elems(&bags[main_root]));
    let mut stack: Vec<(usize, NodeId)> = vec![(main_root, td.root())];
    while let Some((i, node)) = stack.pop() {
        for &c in &children[i] {
            let child_node = td.add_child(node, to_elems(&bags[c]));
            stack.push((c, child_node));
        }
    }
    td
}

/// Convenience: decomposes `structure` with the given heuristic.
pub fn decompose(structure: &Structure, heuristic: Heuristic) -> TreeDecomposition {
    let (order, bags) = eliminate(&PrimalGraph::of(structure), Pick::Heuristic(heuristic));
    tree_from_bags(&order, &bags)
}

/// Exact treewidth by dynamic programming over vertex subsets
/// (Bodlaender–Held–Karp style, `O(2^n · n²)`). Only for `n ≤ 20`;
/// intended for tests and tiny instances.
///
/// Returns the treewidth of the primal graph.
pub fn exact_treewidth(g: &PrimalGraph) -> usize {
    let n = g.len();
    assert!(n <= 20, "exact_treewidth is exponential; n ≤ 20 required");
    if n == 0 {
        return 0;
    }
    // f[S] = minimal over elimination orders of S (eliminated first) of the
    // maximal back-degree encountered. Back-degree of v w.r.t. already
    // eliminated set E: number of vertices outside E∪{v} reachable from v
    // through E.
    let full: u32 = (1u32 << n) - 1;
    let mut f = vec![u8::MAX; (full as usize) + 1];
    f[0] = 0;
    // Iterate subsets in increasing popcount order implicitly: increasing
    // numeric order suffices since S' = S \ {v} < S numerically.
    for s in 1..=full {
        let su = s as usize;
        let mut best = u8::MAX;
        let mut bits = s;
        while bits != 0 {
            let v = bits.trailing_zeros();
            bits &= bits - 1;
            let prev = f[(s & !(1 << v)) as usize];
            if prev == u8::MAX {
                continue;
            }
            let deg = reach_degree(g, v, s & !(1 << v)) as u8;
            best = best.min(prev.max(deg));
        }
        f[su] = best;
    }
    f[full as usize] as usize
}

/// Number of vertices outside `eliminated ∪ {v}` reachable from `v` via
/// vertices in `eliminated`.
fn reach_degree(g: &PrimalGraph, v: u32, eliminated: u32) -> usize {
    let mut seen = 1u32 << v;
    let mut stack = vec![v];
    let mut degree = 0;
    while let Some(u) = stack.pop() {
        for &w in g.neighbors(u) {
            let bit = 1u32 << w;
            if seen & bit != 0 {
                continue;
            }
            seen |= bit;
            if eliminated & bit != 0 {
                stack.push(w);
            } else {
                degree += 1;
            }
        }
    }
    degree
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> PrimalGraph {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        PrimalGraph::from_edges(n, &edges)
    }

    fn clique(n: usize) -> PrimalGraph {
        let mut edges = Vec::new();
        for i in 0..n as u32 {
            for j in i + 1..n as u32 {
                edges.push((i, j));
            }
        }
        PrimalGraph::from_edges(n, &edges)
    }

    #[test]
    fn exact_treewidth_of_known_graphs() {
        assert_eq!(exact_treewidth(&cycle(5)), 2);
        assert_eq!(exact_treewidth(&clique(4)), 3);
        assert_eq!(exact_treewidth(&clique(6)), 5);
        // A tree (star) has treewidth 1.
        let star = PrimalGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(exact_treewidth(&star), 1);
        // A single vertex / empty graph.
        assert_eq!(exact_treewidth(&PrimalGraph::from_edges(1, &[])), 0);
    }

    #[test]
    fn heuristics_produce_valid_width_on_cycle() {
        let g = cycle(8);
        for h in [Heuristic::MinDegree, Heuristic::MinFill] {
            let order = elimination_order(&g, h);
            let td = decompose_with_order(&g, &order);
            // Heuristics are exact on cycles: width 2.
            assert_eq!(td.width(), 2, "{h:?}");
        }
    }

    #[test]
    fn decomposition_of_structure_is_valid() {
        use mdtw_structure::{Domain, Signature};
        use std::sync::Arc;
        // Build a small 2-tree-ish structure with a ternary relation.
        let sig = Arc::new(Signature::from_pairs([("r", 3), ("e", 2)]));
        let dom = Domain::anonymous(7);
        let mut s = Structure::new(sig, dom);
        let r = s.signature().lookup("r").unwrap();
        let e = s.signature().lookup("e").unwrap();
        s.insert(r, &[ElemId(0), ElemId(1), ElemId(2)]);
        s.insert(r, &[ElemId(2), ElemId(3), ElemId(4)]);
        s.insert(e, &[ElemId(4), ElemId(5)]);
        s.insert(e, &[ElemId(5), ElemId(6)]);
        for h in [Heuristic::MinDegree, Heuristic::MinFill] {
            let td = decompose(&s, h);
            assert_eq!(td.validate(&s), Ok(()), "{h:?}");
            assert!(td.width() <= 2);
        }
    }

    #[test]
    fn disconnected_structure_still_decomposes() {
        use mdtw_structure::{Domain, Signature};
        use std::sync::Arc;
        let sig = Arc::new(Signature::from_pairs([("e", 2)]));
        let dom = Domain::anonymous(4);
        let mut s = Structure::new(sig, dom);
        let e = s.signature().lookup("e").unwrap();
        s.insert(e, &[ElemId(0), ElemId(1)]);
        s.insert(e, &[ElemId(2), ElemId(3)]);
        let td = decompose(&s, Heuristic::MinDegree);
        assert_eq!(td.validate(&s), Ok(()));
    }

    #[test]
    fn elimination_tree_parent_is_earliest_neighbor() {
        // Path 0-1-2, order (0,2,1): bag(0)={0,1}, bag(2)={1,2}, bag(1)={1}.
        let g = PrimalGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let td = decompose_with_order(&g, &[0, 2, 1]);
        assert_eq!(td.len(), 3);
        assert_eq!(td.width(), 1);
    }

    #[test]
    #[should_panic(expected = "order[1] = 0 repeats an earlier entry")]
    fn order_with_a_repeated_vertex_is_rejected() {
        let g = PrimalGraph::from_edges(3, &[(0, 1), (1, 2)]);
        decompose_with_order(&g, &[0, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "order[2] = 3 is not a vertex of this 3-vertex graph")]
    fn order_with_an_out_of_range_vertex_is_rejected() {
        let g = PrimalGraph::from_edges(3, &[(0, 1), (1, 2)]);
        decompose_with_order(&g, &[0, 1, 3]);
    }
}
