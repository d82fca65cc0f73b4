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
//! The initial min-fill score of `v` is `C(deg v, 2) − triangles(v)`. The
//! triangles are counted once each, with every edge directed from the end
//! with the smaller `(degree, id)` key: a vertex then has at most `√(2m)`
//! out-neighbours, so the count takes `O(m·√m)` for `m` edges.
//!
//! After that the scores are exact at every step, yet none is recomputed
//! from scratch. Eliminating `v` changes them by these deltas, each taken
//! on the graph as it is just before the change it accounts for:
//!
//! * adding the fill edge `(a, b)`: each common neighbour `c ≠ v` of `a` and
//!   `b` loses 1, `a` gains `|N(a) ∖ N(b)|` and `b` gains `|N(b) ∖ N(a)|`;
//! * removing `v`, whose neighbourhood is a clique by then: each
//!   `u ∈ N(v)` loses `|N(u) ∖ N[v]| = deg(u) − deg(v)`.
//!
//! Under min-degree the deltas are `+1` for both ends of a fill edge and
//! `−1` for each neighbour of `v`. The working graph keeps each
//! neighbourhood as a sorted list: adjacency is a binary search, common
//! neighbours are counted by a merge that binary-searches the longer list,
//! and fill edges are inserted in place. Removing `v` only marks it
//! eliminated; a list is compacted once more than half of it is
//! eliminated vertices, so a hub does not shift its whole list each time
//! one of its neighbours goes. The queue is a lazy binary heap: a vertex
//! whose score changed gets a new entry, and taking the minimum skips
//! stale entries, whose score is no longer the vertex's own or whose
//! vertex is eliminated. A step costs `O(d²·log Δ + f·(s·log Δ + Δ) +
//! t·log n)` amortized: `d = deg(v)`, `Δ` the largest degree, `f` fill
//! edges, `s` the smaller degree of a fill edge's ends (min-fill only) and
//! `t` vertices whose score changed. Rescanning every remaining vertex
//! would cost `O(Σ_u deg(u)²)` per step instead.

use crate::tree::{NodeId, TreeDecomposition};
use mdtw_structure::{ElemId, Structure};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); structure.domain().len()];
        for p in structure.signature().preds() {
            for t in structure.relation(p).iter() {
                for (i, &a) in t.iter().enumerate() {
                    for &b in &t[i + 1..] {
                        if a != b {
                            adj[a.index()].push(b.0);
                            adj[b.index()].push(a.0);
                        }
                    }
                }
            }
        }
        Self::from_lists(adj)
    }

    /// Builds a primal graph directly from an edge list on `n` vertices.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(a, b) in edges {
            if a != b {
                adj[a as usize].push(b);
                adj[b as usize].push(a);
            }
        }
        Self::from_lists(adj)
    }

    /// Sorts each neighbour list and drops its repeats.
    fn from_lists(mut adj: Vec<Vec<u32>>) -> Self {
        for ns in &mut adj {
            ns.sort_unstable();
            ns.dedup();
        }
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

/// The graph during one elimination pass.
struct Working {
    /// `adj[v]` is sorted; it may still hold eliminated vertices, but
    /// never more of them than live ones.
    adj: Vec<Vec<u32>>,
    /// `deg[v]` is the number of live vertices in `adj[v]`.
    deg: Vec<usize>,
    gone: Vec<bool>,
}

impl Working {
    fn new(g: &PrimalGraph) -> Self {
        Self {
            deg: g.adj.iter().map(Vec::len).collect(),
            adj: g.adj.clone(),
            gone: vec![false; g.len()],
        }
    }

    /// Sets `out` to the live neighbours of `v`, in order.
    fn neighbors(&self, v: u32, out: &mut Vec<u32>) {
        let gone = &self.gone;
        out.clear();
        out.extend(
            self.adj[v as usize]
                .iter()
                .copied()
                .filter(|&u| !gone[u as usize]),
        );
    }

    /// Whether the live vertices `a` and `b` are adjacent.
    fn adjacent(&self, a: u32, b: u32) -> bool {
        let (x, y) = if self.adj[a as usize].len() <= self.adj[b as usize].len() {
            (a, b)
        } else {
            (b, a)
        };
        self.adj[x as usize].binary_search(&y).is_ok()
    }

    fn add_edge(&mut self, a: u32, b: u32) {
        for (x, y) in [(a, b), (b, a)] {
            let ns = &mut self.adj[x as usize];
            let at = ns.partition_point(|&u| u < y);
            ns.insert(at, y);
            self.deg[x as usize] += 1;
        }
    }

    /// Eliminates `v`, whose live neighbours are `ns`.
    fn remove(&mut self, v: u32, ns: &[u32]) {
        self.gone[v as usize] = true;
        self.adj[v as usize] = Vec::new();
        for &u in ns {
            let u = u as usize;
            self.deg[u] -= 1;
            if self.adj[u].len() > 2 * self.deg[u] {
                let gone = &self.gone;
                self.adj[u].retain(|&w| !gone[w as usize]);
            }
        }
    }
}

/// `C(deg v, 2) − triangles(v)` for every vertex `v` of the simple graph
/// `adj`: the number of non-adjacent pairs of its neighbours. Each
/// triangle is found once, at its end with the least `(degree, id)` key,
/// by stamping that end's out-neighbours and walking theirs.
fn missing_pairs(adj: &[Vec<u32>]) -> Vec<usize> {
    let n = adj.len();
    let key = |v: u32| (adj[v as usize].len(), v);
    let mut start = Vec::with_capacity(n + 1);
    let mut out = Vec::new();
    start.push(0);
    for (v, ns) in (0..).zip(adj) {
        out.extend(ns.iter().copied().filter(|&w| key(v) < key(w)));
        start.push(out.len());
    }
    let out_of = |v: u32| &out[start[v as usize]..start[v as usize + 1]];
    let mut triangles = vec![0; n];
    let mut stamp = vec![u32::MAX; n];
    for u in 0..n as u32 {
        for &w in out_of(u) {
            stamp[w as usize] = u;
        }
        for &w in out_of(u) {
            for &x in out_of(w) {
                if stamp[x as usize] == u {
                    triangles[u as usize] += 1;
                    triangles[w as usize] += 1;
                    triangles[x as usize] += 1;
                }
            }
        }
    }
    adj.iter()
        .zip(triangles)
        .map(|(ns, t)| ns.len() * ns.len().saturating_sub(1) / 2 - t)
        .collect()
}

/// Exact heuristic scores of the vertices not yet eliminated, with a lazy
/// min-heap of their `(score, vertex)` keys.
struct Scores {
    heuristic: Heuristic,
    score: Vec<usize>,
    /// `keyed[u]` is the score of `u`'s live entry in `queue`, and
    /// `usize::MAX` once `u` has left it.
    keyed: Vec<usize>,
    /// Holds a live entry per vertex still to eliminate, and stale ones.
    queue: BinaryHeap<Reverse<(usize, u32)>>,
    /// Vertices whose score may differ from `keyed` (repeats allowed).
    changed: Vec<u32>,
}

impl Scores {
    fn new(heuristic: Heuristic, adj: &[Vec<u32>]) -> Self {
        let score: Vec<usize> = match heuristic {
            Heuristic::MinDegree => adj.iter().map(Vec::len).collect(),
            Heuristic::MinFill => missing_pairs(adj),
        };
        let queue = score
            .iter()
            .zip(0..)
            .map(|(&s, v)| Reverse((s, v)))
            .collect();
        Self {
            heuristic,
            keyed: score.clone(),
            score,
            queue,
            changed: Vec::new(),
        }
    }

    /// Takes the vertex with the least `(score, vertex)` key off the queue,
    /// skipping stale entries.
    fn pop_min(&mut self) -> u32 {
        loop {
            let Reverse((s, v)) = self.queue.pop().expect("a vertex is left to eliminate");
            let keyed = &mut self.keyed[v as usize];
            if *keyed == s {
                *keyed = usize::MAX;
                return v;
            }
        }
    }

    fn add(&mut self, u: u32, delta: usize) {
        self.score[u as usize] += delta;
        self.changed.push(u);
    }

    fn sub(&mut self, u: u32, delta: usize) {
        self.score[u as usize] -= delta;
        self.changed.push(u);
    }

    /// Accounts for the fill edge `(a, b)` of eliminating `v`; `g` is the
    /// graph just before the edge goes in.
    fn fill_edge(&mut self, g: &Working, v: u32, a: u32, b: u32) {
        match self.heuristic {
            Heuristic::MinDegree => {
                self.add(a, 1);
                self.add(b, 1);
            }
            Heuristic::MinFill => {
                let (na, nb) = (&g.adj[a as usize], &g.adj[b as usize]);
                let (small, mut rest) = if na.len() <= nb.len() {
                    (na, &nb[..])
                } else {
                    (nb, &na[..])
                };
                let mut common = 0;
                for &c in small {
                    if g.gone[c as usize] {
                        continue;
                    }
                    match rest.binary_search(&c) {
                        Ok(i) => {
                            common += 1;
                            if c != v {
                                self.sub(c, 1);
                            }
                            rest = &rest[i + 1..];
                        }
                        Err(i) => rest = &rest[i..],
                    }
                }
                self.add(a, g.deg[a as usize] - common);
                self.add(b, g.deg[b as usize] - common);
            }
        }
    }

    /// Accounts for removing `v`, whose neighbourhood `ns` is a clique in
    /// `g` by now.
    fn remove(&mut self, g: &Working, ns: &[u32]) {
        for &u in ns {
            let delta = match self.heuristic {
                Heuristic::MinDegree => 1,
                Heuristic::MinFill => g.deg[u as usize] - ns.len(),
            };
            self.sub(u, delta);
        }
    }

    /// Gives every changed vertex a new entry under its current score.
    fn requeue(&mut self) {
        for u in self.changed.drain(..) {
            let new = self.score[u as usize];
            if self.keyed[u as usize] != new {
                self.keyed[u as usize] = new;
                self.queue.push(Reverse((new, u)));
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
/// returns that order together with each step's sorted bag `{v} ∪ N(v)`,
/// as the unlinked node of that index in a [`TreeDecomposition`].
fn eliminate(g: &PrimalGraph, pick: Pick<'_>) -> (Vec<u32>, TreeDecomposition) {
    let n = g.len();
    let mut graph = Working::new(g);
    let (mut given, mut scores) = match pick {
        Pick::Order(order) => (order.iter(), None),
        Pick::Heuristic(h) => ([].iter(), Some(Scores::new(h, &g.adj))),
    };
    let mut order = Vec::with_capacity(n);
    let mut steps = TreeDecomposition::with_capacity(n, 0);
    let mut ns = Vec::new();
    for _ in 0..n {
        let v = match scores.as_mut() {
            Some(scores) => scores.pop_min(),
            None => *given.next().expect("the order has one entry per vertex"),
        };
        graph.neighbors(v, &mut ns);
        for (i, &a) in ns.iter().enumerate() {
            for &b in &ns[i + 1..] {
                if graph.adjacent(a, b) {
                    continue;
                }
                if let Some(scores) = scores.as_mut() {
                    scores.fill_edge(&graph, v, a, b);
                }
                graph.add_edge(a, b);
            }
        }
        if let Some(scores) = scores.as_mut() {
            scores.remove(&graph, &ns);
            scores.requeue();
        }
        graph.remove(v, &ns);
        let (below, above) = ns.split_at(ns.partition_point(|&u| u < v));
        let bag = below.iter().chain([&v]).chain(above);
        steps.push(bag.map(|&u| ElemId(u)), ());
        order.push(v);
    }
    (order, steps)
}

/// Computes an elimination order with the given heuristic.
///
/// Each step eliminates the vertex with the least `(score, vertex)` pair,
/// where the score is its current degree ([`Heuristic::MinDegree`]) or the
/// number of fill edges eliminating it would add ([`Heuristic::MinFill`]);
/// ties go to the smaller vertex id. The initial min-fill scores come from
/// counting triangles in `O(m·√m)` for `m` edges. After that, scores are
/// kept exact by the deltas described in the [module docs](self), and the
/// next vertex comes off a lazy heap that skips stale entries, so a step
/// costs `O(d²·log Δ + f·(s·log Δ + Δ) + t·log n)` amortized for a vertex
/// of degree `d` adding `f` fill edges, `Δ` the largest degree, `s` the
/// smaller degree of a fill edge's ends and `t` vertices whose score
/// changed — not a rescan of every remaining vertex.
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
    let (order, steps) = eliminate(g, Pick::Order(order));
    tree_from_bags(&order, steps)
}

/// Links the bags of an elimination pass into the elimination tree: the
/// parent of `v`'s bag is the bag of the earliest-eliminated other member.
/// The trees of other components hang below the last root, after its own
/// children; the connecting edges carry no shared elements, so all three
/// conditions survive. Node ids follow a depth-first walk from that root
/// that numbers all children of a node before descending into its last.
fn tree_from_bags(order: &[u32], mut steps: TreeDecomposition) -> TreeDecomposition {
    let n = order.len();
    if n == 0 {
        return TreeDecomposition::singleton(Vec::new());
    }
    let mut pos = vec![0u32; n];
    for (i, &v) in order.iter().enumerate() {
        pos[v as usize] = i as u32;
    }
    // All other members of a bag are eliminated after its vertex.
    let parent: Vec<Option<u32>> = steps
        .node_ids()
        .map(|i| {
            let bag = steps.bag(i).iter().filter(|u| u.0 != order[i.index()]);
            bag.map(|u| pos[u.index()]).min()
        })
        .collect();
    let last_root = parent.iter().rposition(Option::is_none);
    let main_root = NodeId(last_root.expect("the last step has no parent") as u32);
    for (i, &p) in parent.iter().enumerate() {
        if let Some(p) = p {
            steps.attach(NodeId(p), NodeId(i as u32));
        }
    }
    for (i, p) in parent.iter().enumerate() {
        if p.is_none() && i != main_root.index() {
            steps.attach(main_root, NodeId(i as u32));
        }
    }
    let cells = steps.node_ids().map(|i| steps.bag(i).len()).sum();
    let mut td = TreeDecomposition::with_capacity(n, cells);
    let root = td.push(steps.bag(main_root).iter().copied(), ());
    let mut stack = vec![(main_root, root)];
    while let Some((step, node)) = stack.pop() {
        for c in steps.children(step) {
            let child = td.push(steps.bag(c).iter().copied(), ());
            td.attach(node, child);
            stack.push((c, child));
        }
    }
    td
}

/// Convenience: decomposes `structure` with the given heuristic.
pub fn decompose(structure: &Structure, heuristic: Heuristic) -> TreeDecomposition {
    let (order, steps) = eliminate(&PrimalGraph::of(structure), Pick::Heuristic(heuristic));
    tree_from_bags(&order, steps)
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

    /// SplitMix64: seeded test graphs without a random-number dependency.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A star (`shape` 0), fan (1) or wheel (2) with `spokes ≥ 2` spokes
    /// around a hub at a random id, plus `spokes / 2` random chords.
    fn hub_graph(shape: u64, spokes: u32, seed: u64) -> PrimalGraph {
        let mut state = seed;
        let hub = (splitmix(&mut state) % u64::from(spokes + 1)) as u32;
        let rim: Vec<u32> = (0..=spokes).filter(|&u| u != hub).collect();
        let mut edges: Vec<(u32, u32)> = rim.iter().map(|&u| (hub, u)).collect();
        if shape > 0 {
            edges.extend(rim.windows(2).map(|pair| (pair[0], pair[1])));
        }
        if shape == 2 {
            edges.push((rim[0], rim[rim.len() - 1]));
        }
        for _ in 0..spokes / 2 {
            let mut spoke = || rim[(splitmix(&mut state) % rim.len() as u64) as usize];
            edges.push((spoke(), spoke()));
        }
        PrimalGraph::from_edges(spokes as usize + 1, &edges)
    }

    /// A random `k`-tree on `n > k` vertices, each edge kept with
    /// probability 3/4.
    fn partial_k_tree(n: u32, k: u32, seed: u64) -> PrimalGraph {
        let mut state = seed;
        let mut edges = Vec::new();
        for i in 0..=k {
            for j in i + 1..=k {
                edges.push((i, j));
            }
        }
        let mut cliques: Vec<Vec<u32>> = (0..=k)
            .map(|drop| (0..=k).filter(|&u| u != drop).collect())
            .collect();
        for v in k + 1..n {
            let clique = cliques[(splitmix(&mut state) % cliques.len() as u64) as usize].clone();
            edges.extend(clique.iter().map(|&u| (u, v)));
            for drop in 0..clique.len() {
                let mut next = clique.clone();
                next[drop] = v;
                cliques.push(next);
            }
        }
        edges.retain(|_| !splitmix(&mut state).is_multiple_of(4));
        PrimalGraph::from_edges(n as usize, &edges)
    }

    #[test]
    fn initial_scores_are_degrees_and_missing_pair_counts() {
        let mut graphs: Vec<PrimalGraph> = (0..12u32)
            .map(|i| hub_graph(u64::from(i % 3), 2 + 9 * i, u64::from(i)))
            .collect();
        graphs.extend((1..=4).map(|k| partial_k_tree(150, k, u64::from(k))));
        graphs.extend([cycle(9), clique(7), PrimalGraph::from_edges(3, &[])]);
        for g in &graphs {
            let vertices = 0..g.len() as u32;
            let degrees: Vec<usize> = vertices.clone().map(|v| g.neighbors(v).len()).collect();
            let missing: Vec<usize> = vertices
                .map(|v| {
                    let ns = g.neighbors(v);
                    let pairs = ns
                        .iter()
                        .enumerate()
                        .flat_map(|(i, &a)| ns[i + 1..].iter().map(move |&b| (a, b)));
                    pairs.filter(|&(a, b)| !g.neighbors(a).contains(&b)).count()
                })
                .collect();
            assert_eq!(Scores::new(Heuristic::MinDegree, &g.adj).score, degrees);
            assert_eq!(Scores::new(Heuristic::MinFill, &g.adj).score, missing);
        }
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
