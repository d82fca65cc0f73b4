//! The modified ("nice") normal form of paper §5.
//!
//! Section 5 refines Definition 2.3: element replacement is split into an
//! *element removal* node and an *element introduction* node, bags are
//! treated as sets (so permutation nodes disappear) and the full-size
//! condition is dropped. Kinds:
//!
//! * **Leaf** — no children;
//! * **Introduce(a)** — one child, `bag = child_bag ∪ {a}`;
//! * **Forget(a)** — one child, `bag = child_bag ∖ {a}` (the paper's
//!   *element removal* node);
//! * **Branch** — two children, both bags identical to the node's.
//!
//! The §5.3 refinement that every domain element occurs in some *leaf* bag
//! is available through [`NiceOptions::every_elem_in_leaf`]. The paper's
//! second §5.3 device (buffering every branch node with an identical-bag
//! parent, so decompositions can be re-rooted at any leaf) exists to
//! support their re-rooting implementation of the enumeration algorithm;
//! our solvers compute the top-down `solve↓` tables for every node kind
//! directly, which subsumes it (see `mdtw-core::enumeration`).

use crate::tree::{NodeId, TreeDecomposition};
use mdtw_structure::ElemId;

/// Kinds of nodes in a nice tree decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NiceKind {
    /// No children; the bag is an original decomposition bag.
    Leaf,
    /// One child; this node's bag adds the element to the child's bag.
    Introduce(ElemId),
    /// One child; this node's bag removes the element from the child's bag
    /// (the paper's "element removal node").
    Forget(ElemId),
    /// Two children, both carrying this node's bag.
    Branch,
}

/// One node of a [`NiceTd`].
#[derive(Debug, Clone)]
pub struct NiceNode {
    /// The bag as a sorted set.
    pub bag: Vec<ElemId>,
    /// Children (at most two).
    pub children: Vec<NodeId>,
    /// Parent link; `None` for the root.
    pub parent: Option<NodeId>,
    /// The node kind (cached at construction).
    pub kind: NiceKind,
}

/// Options controlling [`NiceTd::from_td`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NiceOptions {
    /// §5.3: guarantee every element covered by the decomposition occurs in
    /// the bag of at least one leaf (needed by the leaf-based `prime()`
    /// rule of the enumeration program). An element in no leaf gets a new
    /// leaf copying the largest bag that contains it (the first in node
    /// order on ties), so one spliced leaf covers every element a nice
    /// chain introduces on its way to that bag: at most one splice per
    /// original bag.
    pub every_elem_in_leaf: bool,
}

/// A tree decomposition in the modified normal form of §5.
#[derive(Debug, Clone)]
pub struct NiceTd {
    nodes: Vec<NiceNode>,
    root: NodeId,
}

impl NiceTd {
    /// The root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false; kept for API symmetry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node access.
    #[inline]
    pub fn node(&self, id: NodeId) -> &NiceNode {
        &self.nodes[id.index()]
    }

    /// The sorted bag of `id`.
    #[inline]
    pub fn bag(&self, id: NodeId) -> &[ElemId] {
        &self.nodes[id.index()].bag
    }

    /// The kind of `id`.
    #[inline]
    pub fn kind(&self, id: NodeId) -> NiceKind {
        self.nodes[id.index()].kind
    }

    /// The width `max |bag| − 1`.
    pub fn width(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.bag.len())
            .max()
            .unwrap_or(0)
            .saturating_sub(1)
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Post-order traversal (children before parents): the order of the
    /// bottom-up `solve` computation of Figures 5 and 6.
    pub fn post_order(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![(self.root, 0usize)];
        while let Some(last) = stack.len().checked_sub(1) {
            let (node, cursor) = stack[last];
            let children = &self.nodes[node.index()].children;
            if cursor < children.len() {
                stack[last].1 += 1;
                stack.push((children[cursor], 0));
            } else {
                out.push(node);
                stack.pop();
            }
        }
        out
    }

    /// Pre-order traversal (parents before children): the order of the
    /// top-down `solve↓` computation of §5.3.
    pub fn pre_order(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![self.root];
        while let Some(node) = stack.pop() {
            out.push(node);
            for &c in self.nodes[node.index()].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// All leaf nodes.
    pub fn leaves(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&id| self.node(id).children.is_empty())
            .collect()
    }

    /// True if `elem` occurs in the bag of `node`.
    #[inline]
    pub fn bag_contains(&self, node: NodeId, elem: ElemId) -> bool {
        self.bag(node).binary_search(&elem).is_ok()
    }

    /// Counts nodes per kind: `(leaf, introduce, forget, branch)`.
    pub fn kind_histogram(&self) -> (usize, usize, usize, usize) {
        let mut h = (0, 0, 0, 0);
        for n in &self.nodes {
            match n.kind {
                NiceKind::Leaf => h.0 += 1,
                NiceKind::Introduce(_) => h.1 += 1,
                NiceKind::Forget(_) => h.2 += 1,
                NiceKind::Branch => h.3 += 1,
            }
        }
        h
    }

    /// Converts back to a set-form [`TreeDecomposition`] for validation.
    pub fn to_set_td(&self) -> TreeDecomposition {
        let mut td = TreeDecomposition::singleton(self.bag(self.root).to_vec());
        let mut stack = vec![(self.root, td.root())];
        while let Some((old, new)) = stack.pop() {
            for &c in &self.node(old).children {
                let nc = td.add_child(new, self.bag(c).to_vec());
                stack.push((c, nc));
            }
        }
        td
    }

    /// Checks the structural invariants of the nice form.
    pub fn validate_nice_form(&self) -> Result<(), String> {
        for id in self.node_ids() {
            let node = self.node(id);
            if node.bag.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("bag of {id} is not a sorted set"));
            }
            match (node.children.len(), node.kind) {
                (0, NiceKind::Leaf) => {}
                (1, NiceKind::Introduce(a)) => {
                    let child = self.bag(node.children[0]);
                    let mut expect = child.to_vec();
                    expect.push(a);
                    expect.sort_unstable();
                    if child.contains(&a) || expect != node.bag {
                        return Err(format!("{id}: bad introduce({a})"));
                    }
                }
                (1, NiceKind::Forget(a)) => {
                    let child = self.bag(node.children[0]);
                    let expect: Vec<ElemId> = child.iter().copied().filter(|&e| e != a).collect();
                    if !child.contains(&a) || expect != node.bag {
                        return Err(format!("{id}: bad forget({a})"));
                    }
                }
                (2, NiceKind::Branch) => {
                    for &c in &node.children {
                        if self.bag(c) != &node.bag[..] {
                            return Err(format!("branch {id}: child bag differs"));
                        }
                    }
                }
                (n, k) => return Err(format!("{id}: kind {k:?} with {n} children")),
            }
        }
        Ok(())
    }

    /// Converts an arbitrary tree decomposition to the nice form. The width
    /// is preserved exactly; the node count grows by `O(w)` per original
    /// edge.
    pub fn from_td(td: &TreeDecomposition, options: NiceOptions) -> Self {
        Self::from_td_with_rank(td, options, &|_| 0)
    }

    /// Like [`from_td`](Self::from_td) but with a *rank* controlling the
    /// order in which bag differences are materialized: along every morph
    /// chain, higher-rank elements are forgotten first and lower-rank
    /// elements introduced first.
    ///
    /// This is how the §5.2 convention "whenever an FD is in a bag, its
    /// rhs attribute is as well" survives the conversion: give FDs rank 1
    /// and attributes rank 0, so an FD always leaves a bag before its rhs
    /// attribute and enters after it.
    pub fn from_td_with_rank(
        td: &TreeDecomposition,
        options: NiceOptions,
        rank: &dyn Fn(ElemId) -> u8,
    ) -> Self {
        let mut b = NiceBuilder {
            nodes: Vec::new(),
            rank,
        };
        let mut rep: Vec<Option<NodeId>> = vec![None; td.len()];
        for id in td.post_order() {
            let bag = td.bag(id).to_vec();
            let children = &td.node(id).children;
            let built = if children.is_empty() {
                b.add(bag, NiceKind::Leaf, &[])
            } else {
                // Morph every child chain up to this node's bag, then join.
                let mut tops: Vec<NodeId> = children
                    .iter()
                    .map(|&c| {
                        let child_rep = rep[c.index()].expect("post-order");
                        b.morph(child_rep, &bag)
                    })
                    .collect();
                // Join pairwise with branch nodes.
                while tops.len() > 1 {
                    let right = tops.pop().expect("len > 1");
                    let left = tops.pop().expect("len > 1");
                    let join = b.add(bag.clone(), NiceKind::Branch, &[left, right]);
                    tops.push(join);
                }
                tops.pop().expect("one top")
            };
            rep[id.index()] = Some(built);
        }
        let root = rep[td.root().index()].expect("root built");
        let mut nice = Self {
            nodes: b.nodes,
            root,
        };
        if options.every_elem_in_leaf {
            nice.ensure_leaf_coverage();
        }
        debug_assert_eq!(nice.validate_nice_form(), Ok(()));
        nice
    }

    /// §5.3: for every element that occurs in no leaf bag, splice a fresh
    /// branch node above its *host* `t` whose second child is a new leaf
    /// carrying `bag(t)`.
    ///
    /// Elements are handled in ascending order; one already covered by an
    /// earlier splice's leaf is skipped. The host is the node with the
    /// largest bag containing the element, the first in node order among
    /// equal sizes. A forget/introduce chain node's bag is a subset of the
    /// decomposition bag at one end of its chain, so the host carries a
    /// decomposition bag, and once one copy of a bag is a leaf every element
    /// in it is covered: at most one splice per decomposition bag. (The
    /// first node holding an element is usually the chain node introducing
    /// it, which would cost one splice per element.) Spliced nodes are
    /// appended after the nodes built from the decomposition and copy one
    /// of their bags, so a spliced node is never the first among equal
    /// sizes and every host is found by a single pass made before any
    /// splice. The whole routine costs `O(Σ |bag|)`.
    fn ensure_leaf_coverage(&mut self) {
        let elems = self
            .nodes
            .iter()
            .flat_map(|n| n.bag.last())
            .map(|e| e.index() + 1)
            .max()
            .unwrap_or(0);
        let mut in_leaf = vec![false; elems];
        let mut host: Vec<Option<NodeId>> = vec![None; elems];
        for (id, node) in self.node_ids().zip(&self.nodes) {
            for &e in &node.bag {
                let h = &mut host[e.index()];
                if h.is_none_or(|h| self.nodes[h.index()].bag.len() < node.bag.len()) {
                    *h = Some(id);
                }
                in_leaf[e.index()] |= node.children.is_empty();
            }
        }
        for e in 0..elems {
            let Some(t) = host[e] else { continue };
            if in_leaf[e] {
                continue;
            }
            self.splice_leaf_above(t);
            for &x in &self.nodes[t.index()].bag {
                in_leaf[x.index()] = true;
            }
        }
    }

    /// Inserts `branch(bag(t)) -> [t, leaf(bag(t))]` above `t`.
    fn splice_leaf_above(&mut self, t: NodeId) {
        let bag = self.bag(t).to_vec();
        let parent = self.node(t).parent;
        let leaf = NodeId(self.nodes.len() as u32);
        self.nodes.push(NiceNode {
            bag: bag.clone(),
            children: Vec::new(),
            parent: None, // fixed below
            kind: NiceKind::Leaf,
        });
        let branch = NodeId(self.nodes.len() as u32);
        self.nodes.push(NiceNode {
            bag,
            children: vec![t, leaf],
            parent,
            kind: NiceKind::Branch,
        });
        self.nodes[leaf.index()].parent = Some(branch);
        self.nodes[t.index()].parent = Some(branch);
        match parent {
            Some(p) => {
                let slot = self.nodes[p.index()]
                    .children
                    .iter()
                    .position(|&c| c == t)
                    .expect("edge exists");
                self.nodes[p.index()].children[slot] = branch;
            }
            None => self.root = branch,
        }
    }
}

/// Incremental builder for nice decompositions.
struct NiceBuilder<'a> {
    nodes: Vec<NiceNode>,
    rank: &'a dyn Fn(ElemId) -> u8,
}

impl NiceBuilder<'_> {
    fn add(&mut self, bag: Vec<ElemId>, kind: NiceKind, children: &[NodeId]) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        for &c in children {
            self.nodes[c.index()].parent = Some(id);
        }
        self.nodes.push(NiceNode {
            bag,
            children: children.to_vec(),
            parent: None,
            kind,
        });
        id
    }

    /// Builds the forget/introduce chain from the bag of `from` up to
    /// `target`, returning the top node (whose bag equals `target`).
    /// Forgets run by descending rank, introductions by ascending rank.
    fn morph(&mut self, from: NodeId, target: &[ElemId]) -> NodeId {
        let mut current = self.nodes[from.index()].bag.clone();
        let mut top = from;
        let mut to_forget: Vec<ElemId> = current
            .iter()
            .copied()
            .filter(|e| !target.contains(e))
            .collect();
        to_forget.sort_by_key(|&e| std::cmp::Reverse((self.rank)(e)));
        for e in to_forget {
            current.retain(|&x| x != e);
            top = self.add(current.clone(), NiceKind::Forget(e), &[top]);
        }
        let mut to_introduce: Vec<ElemId> = target
            .iter()
            .copied()
            .filter(|e| !current.contains(e))
            .collect();
        to_introduce.sort_by_key(|&e| (self.rank)(e));
        for e in to_introduce {
            current.push(e);
            current.sort_unstable();
            top = self.add(current.clone(), NiceKind::Introduce(e), &[top]);
        }
        debug_assert_eq!(current, target);
        top
    }
}

/// Augments every bag with companion elements: wherever `e` occurs in a
/// bag, `companions(e)` are added too.
///
/// This implements the paper's §5.2 requirement that *"whenever an FD `f`
/// is contained in a bag of the tree decomposition, then the attribute
/// `rhs(f)` is as well"* (worst case: doubles the width).
///
/// **Precondition** (satisfied by the `lh`/`rh` encoding): for every
/// element `e` and companion `c`, some bag already contains both — then
/// each occurrence subtree of `c` grows by subtrees that intersect it,
/// preserving connectedness. Validity should be re-checked in tests via
/// [`TreeDecomposition::validate`].
pub fn augment_bags(td: &mut TreeDecomposition, mut companions: impl FnMut(ElemId) -> Vec<ElemId>) {
    td.map_bags(|_, bag| {
        let mut out = bag.to_vec();
        for &e in bag {
            out.extend(companions(e));
        }
        out
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> ElemId {
        ElemId(i)
    }

    fn sample_td() -> TreeDecomposition {
        let mut td = TreeDecomposition::singleton(vec![e(0), e(1), e(2)]);
        let c1 = td.add_child(td.root(), vec![e(1), e(3)]);
        td.add_child(c1, vec![e(3), e(4)]);
        td.add_child(td.root(), vec![e(2), e(5)]);
        td.add_child(td.root(), vec![e(0), e(6)]);
        td
    }

    #[test]
    fn nice_form_is_valid_and_width_preserving() {
        let td = sample_td();
        let nice = NiceTd::from_td(&td, NiceOptions::default());
        assert_eq!(nice.validate_nice_form(), Ok(()));
        assert_eq!(nice.width(), td.width());
    }

    #[test]
    fn nice_form_is_still_a_decomposition() {
        use mdtw_structure::{Domain, Signature, Structure};
        use std::sync::Arc;
        let sig = Arc::new(Signature::from_pairs([("e", 2)]));
        let dom = Domain::anonymous(7);
        let mut s = Structure::new(sig, dom);
        let ep = s.signature().lookup("e").unwrap();
        for (a, b) in [(0, 1), (1, 3), (3, 4), (2, 5), (0, 6), (0, 2)] {
            s.insert(ep, &[e(a), e(b)]);
        }
        let td = sample_td();
        assert_eq!(td.validate(&s), Ok(()));
        for opts in [
            NiceOptions::default(),
            NiceOptions {
                every_elem_in_leaf: true,
            },
        ] {
            let nice = NiceTd::from_td(&td, opts);
            assert_eq!(nice.to_set_td().validate(&s), Ok(()));
        }
    }

    #[test]
    fn every_elem_in_leaf_option() {
        let td = sample_td();
        let nice = NiceTd::from_td(
            &td,
            NiceOptions {
                every_elem_in_leaf: true,
            },
        );
        assert_eq!(nice.validate_nice_form(), Ok(()));
        // Every element that occurs anywhere also occurs in a leaf.
        use std::collections::BTreeSet;
        let mut everywhere: BTreeSet<ElemId> = BTreeSet::new();
        let mut in_leaf: BTreeSet<ElemId> = BTreeSet::new();
        for id in nice.node_ids() {
            everywhere.extend(nice.bag(id).iter().copied());
            if nice.node(id).children.is_empty() {
                in_leaf.extend(nice.bag(id).iter().copied());
            }
        }
        assert_eq!(everywhere, in_leaf);
    }

    #[test]
    fn kinds_and_histogram() {
        let td = sample_td();
        let nice = NiceTd::from_td(&td, NiceOptions::default());
        let (leaf, intro, forget, branch) = nice.kind_histogram();
        assert!(leaf >= 3);
        assert!(intro >= 1);
        assert!(forget >= 1);
        assert!(branch >= 2); // root had 3 children
        assert_eq!(leaf + intro + forget + branch, nice.len());
    }

    #[test]
    fn traversal_orders() {
        let td = sample_td();
        let nice = NiceTd::from_td(&td, NiceOptions::default());
        let po = nice.post_order();
        let pre = nice.pre_order();
        assert_eq!(po.len(), nice.len());
        assert_eq!(pre.len(), nice.len());
        assert_eq!(*po.last().unwrap(), nice.root());
        assert_eq!(pre[0], nice.root());
    }

    #[test]
    fn augment_bags_with_companions() {
        use mdtw_structure::{Domain, Signature, Structure};
        use std::sync::Arc;
        // e(1) must accompany e(0) wherever it occurs; they co-occur in the
        // root bag, so connectedness is preserved.
        let sig = Arc::new(Signature::from_pairs([("e", 2)]));
        let dom = Domain::anonymous(7);
        let mut s = Structure::new(sig, dom);
        let ep = s.signature().lookup("e").unwrap();
        for (a, b) in [(0, 1), (1, 3), (3, 4), (2, 5), (0, 6), (0, 2)] {
            s.insert(ep, &[e(a), e(b)]);
        }
        let mut td = sample_td();
        augment_bags(&mut td, |x| if x == e(0) { vec![e(1)] } else { vec![] });
        assert_eq!(td.validate(&s), Ok(()));
        // Every bag that contains 0 now contains 1 as well.
        for id in td.node_ids() {
            if td.bag_contains(id, e(0)) {
                assert!(td.bag_contains(id, e(1)));
            }
        }
    }

    #[test]
    fn singleton_decomposition() {
        let td = TreeDecomposition::singleton(vec![e(0), e(1)]);
        let nice = NiceTd::from_td(&td, NiceOptions::default());
        assert_eq!(nice.len(), 1);
        assert_eq!(nice.kind(nice.root()), NiceKind::Leaf);
    }
}
