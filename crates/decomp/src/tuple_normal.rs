//! The normalized tree decompositions of Definition 2.3 and the
//! linear-time normalization of Proposition 2.4.
//!
//! Bags become *tuples* of exactly `w+1` pairwise distinct elements; every
//! internal node has one or two children; a node with one child is a
//! *permutation node* (child bag is a permutation of the parent's) or an
//! *element replacement node* (child bag replaces position 0); a node with
//! two children is a *branch node* (children carry the parent's tuple).

use crate::tree::{NodeId, Tree, TreeDecomposition};
use mdtw_structure::ElemId;

/// Kinds of nodes in a normalized (tuple-form) tree decomposition.
///
/// The kind describes how the *children* of a node relate to it, matching
/// the wording of Definition 2.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TupleNodeKind {
    /// No children.
    Leaf,
    /// One child whose bag is a permutation of this node's bag.
    Permutation,
    /// One child whose bag replaces the element at position 0.
    ElementReplacement,
    /// Two children, both carrying this node's tuple.
    Branch,
}

/// A tree decomposition in the normal form of Definition 2.3: a [`Tree`]
/// whose bags are ordered tuples of `w+1` distinct elements and whose
/// kinds, recorded as each node's edges are built, are
/// [`TupleNodeKind`]s.
pub type TupleTd = Tree<TupleNodeKind>;

/// Errors raised when normalizing a decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NormalizeError {
    /// The domain has fewer than `w+1` elements (the paper's standing
    /// assumption in Proposition 2.4).
    DomainTooSmall {
        /// Required minimum number of elements (`w+1`).
        need: usize,
        /// Actual domain size.
        have: usize,
    },
}

impl std::fmt::Display for NormalizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NormalizeError::DomainTooSmall { need, have } => write!(
                f,
                "normalization requires ≥ {need} domain elements, found {have}"
            ),
        }
    }
}

impl std::error::Error for NormalizeError {}

impl TupleTd {
    /// Checks every clause of Definition 2.3, and that each node's
    /// recorded kind is the one its children give it; returns a
    /// human-readable description of the first violation. Allocates only
    /// to report it.
    pub fn validate_normal_form(&self) -> Result<(), String> {
        self.check_links()?;
        let size = self.width() + 1;
        for id in self.node_ids() {
            let bag = self.bag(id);
            if bag.len() != size {
                return Err(format!(
                    "bag of {id} has {} entries, expected {size}",
                    bag.len()
                ));
            }
            if (1..bag.len()).any(|i| bag[..i].contains(&bag[i])) {
                return Err(format!("bag of {id} has repeated elements"));
            }
            let mut children = self.children(id).map(|c| self.bag(c));
            let kind = match (children.next(), children.next(), children.next()) {
                (None, ..) => Some(TupleNodeKind::Leaf),
                (Some(c), None, _) if is_permutation(bag, c) => Some(TupleNodeKind::Permutation),
                (Some(c), None, _) if is_pos0_replacement(bag, c) => {
                    Some(TupleNodeKind::ElementReplacement)
                }
                (Some(l), Some(r), None) if l == bag && r == bag => Some(TupleNodeKind::Branch),
                _ => None,
            };
            if kind != Some(self.kind(id)) {
                return Err(format!(
                    "node {id}: its children and their bags do not make it a {:?} node",
                    self.kind(id)
                ));
            }
        }
        Ok(())
    }

    /// Normalizes an arbitrary tree decomposition into the form of
    /// Definition 2.3 (Proposition 2.4). The width is preserved except
    /// that width-0 inputs are lifted to width 1 (the paper assumes
    /// `w ≥ 1`); `domain_size` must be at least `w+1`.
    pub fn from_td(td: &TreeDecomposition, domain_size: usize) -> Result<Self, NormalizeError> {
        let w = td.width().max(1);
        Self::from_td_with_width(td, domain_size, w)
    }

    /// Like [`from_td`](Self::from_td) but pads every bag to a caller-chosen
    /// width `w ≥ max(width(td), 1)`.
    ///
    /// Steps 1–4 of Proposition 2.4 rewrite a set-form copy of `td` whose
    /// bags are `w+1`-cell slots of one arena; step 5 emits the tuples
    /// into the result. Nodes are numbered as they are created: the copy
    /// keeps `td`'s ids and appends new nodes, and the result numbers its
    /// nodes in the order of a depth-first walk of the copy that visits a
    /// branch node's second child first.
    pub fn from_td_with_width(
        td: &TreeDecomposition,
        domain_size: usize,
        w: usize,
    ) -> Result<Self, NormalizeError> {
        assert!(w >= td.width().max(1), "target width below input width");
        if domain_size < w + 1 {
            return Err(NormalizeError::DomainTooSmall {
                need: w + 1,
                have: domain_size,
            });
        }
        let mut set = pad(td, domain_size, w);
        binarize(&mut set);
        equalize_branches(&mut set);
        interpolate(&mut set);
        Ok(orient(&set))
    }
}

/// Step 1 (Prop. 2.4 (1)): a copy of `td` whose bags are padded to `w+1`
/// elements by pulling elements from neighbouring bags, sorted.
///
/// Each sweep visits the nodes in order and fills every short bag from
/// its parent's and then its children's bags, as they stand. Pulling from
/// a neighbour always preserves connectedness (the occurrence subtree
/// grows by an adjacent node). A sweep that changes nothing while a bag
/// is short finds every short bag holding all of its neighbours' elements,
/// hence (the tree being connected) all bags equal: the decomposition
/// covers fewer than `w+1` elements. Then the least element it does not
/// cover joins every bag, which keeps its occurrence set connected; one
/// exists because `domain_size ≥ w+1`.
fn pad(td: &TreeDecomposition, domain_size: usize, w: usize) -> TreeDecomposition {
    let size = w + 1;
    let mut set = TreeDecomposition::with_capacity(td.len(), td.len() * size);
    let mut lens = Vec::with_capacity(td.len());
    for id in td.node_ids() {
        let bag = td.bag(id);
        lens.push(bag.len());
        let unused = std::iter::repeat_n(ElemId(u32::MAX), size - bag.len());
        set.push(bag.iter().copied().chain(unused), ());
    }
    for id in td.node_ids() {
        for c in td.children(id) {
            set.attach(id, c);
        }
    }
    set.set_root(td.root());
    loop {
        let mut changed = false;
        let mut all_full = true;
        for id in set.node_ids() {
            let i = id.index();
            if lens[i] == size {
                continue;
            }
            all_full = false;
            for nb in td.parent(id).into_iter().chain(td.children(id)) {
                for k in 0..lens[nb.index()] {
                    if lens[i] == size {
                        break;
                    }
                    let e = set.bag(nb)[k];
                    if !set.bag(id)[..lens[i]].contains(&e) {
                        set.bag_mut(id)[lens[i]] = e;
                        lens[i] += 1;
                        changed = true;
                    }
                }
            }
        }
        if all_full {
            break;
        }
        if !changed {
            let len = lens[0];
            let covered = &set.bag(NodeId(0))[..len];
            let fresh = (0..domain_size as u32)
                .map(ElemId)
                .find(|e| !covered.contains(e))
                .expect("domain_size ≥ w+1 guarantees a spare element");
            for id in set.node_ids() {
                debug_assert_eq!(lens[id.index()], len);
                set.bag_mut(id)[len] = fresh;
                lens[id.index()] += 1;
            }
        }
    }
    for id in td.node_ids() {
        set.bag_mut(id).sort_unstable();
    }
    set
}

/// Step 2 (Prop. 2.4 (2)): binarizes nodes with more than two children.
/// A node `s` with children `c₁ … c_d`, `d > 2`, keeps `c₁` and gets a
/// chain of `d − 2` copies of itself: copy `j` has children `c_{j+1}`
/// and copy `j + 1`, and the last copy `c_{d−1}` and `c_d`. Nodes are
/// binarized from the last to the first, each chain's copies numbered
/// consecutively; every child moves once.
fn binarize(set: &mut TreeDecomposition) {
    for s in (0..set.len() as u32).rev().map(NodeId) {
        let d = set.children(s).count();
        if d <= 2 {
            continue;
        }
        let mut at = s;
        for k in 2..=d {
            let c = set.children(s).nth(1).expect("c_k is the second child");
            set.detach(s, c);
            if k < d {
                let copy = set.push_copy(s, ());
                set.attach(at, copy);
                at = copy;
            }
            set.attach(at, c);
        }
    }
}

/// Step 3 (Prop. 2.4 (3)): gives every branch node children with its own
/// bag, splicing a copy of the branch node above each child that differs.
fn equalize_branches(set: &mut TreeDecomposition) {
    for s in set.node_ids() {
        let mut children = set.children(s);
        let (Some(left), Some(right)) = (children.next(), children.next()) else {
            continue;
        };
        for c in [left, right] {
            if set.bag(c) != set.bag(s) {
                let mid = set.push_copy(s, ());
                set.splice_above(c, mid);
            }
        }
    }
}

/// Step 4 (Prop. 2.4 (4)): interpolates every edge whose bags differ in
/// `k > 1` elements with `k − 1` intermediate bags, exchanging one element
/// per step. Bags all have `w+1` elements, so `|A_s ∖ A_c| = |A_c ∖ A_s|`.
fn interpolate(set: &mut TreeDecomposition) {
    let (mut out, mut inn, mut current) = (Vec::new(), Vec::new(), Vec::new());
    for s in set.node_ids() {
        let mut children = set.children(s);
        let pair = [children.next(), children.next()];
        for c in pair.into_iter().flatten() {
            let (upper, lower) = (set.bag(s), set.bag(c));
            out.clear();
            out.extend(upper.iter().copied().filter(|e| !lower.contains(e)));
            inn.clear();
            inn.extend(lower.iter().copied().filter(|e| !upper.contains(e)));
            debug_assert_eq!(out.len(), inn.len());
            if out.len() <= 1 {
                continue;
            }
            current.clear();
            current.extend_from_slice(upper);
            for i in 0..out.len() - 1 {
                current.retain(|e| *e != out[i]);
                current.push(inn[i]);
                current.sort_unstable();
                let mid = set.push(current.iter().copied(), ());
                set.splice_above(c, mid);
            }
        }
    }
}

/// Step 5 (Prop. 2.4 (5)): orients the bags of the binarized, equalized,
/// interpolated `set` as tuples, top-down from the sorted root bag,
/// inserting a permutation node wherever the element an edge replaces is
/// not at position 0. Each node's kind is recorded as its edges are
/// emitted.
fn orient(set: &TreeDecomposition) -> TupleTd {
    // One node per set node, plus at most one permutation node per edge
    // below a single-child node.
    let single = set
        .node_ids()
        .filter(|&s| set.children(s).count() == 1)
        .count();
    let nodes = set.len() + single;
    let mut td = TupleTd::with_capacity(nodes, nodes * (set.width() + 1));
    let root = td.push(set.bag(set.root()).iter().copied(), TupleNodeKind::Leaf);
    let mut tuple = Vec::new();
    // (set node, emitted node carrying its tuple)
    let mut stack: Vec<(NodeId, NodeId)> = vec![(set.root(), root)];
    while let Some((s, emitted)) = stack.pop() {
        let mut children = set.children(s);
        match (children.next(), children.next()) {
            (None, _) => {}
            (Some(c), None) => {
                let child = emit_edge(&mut td, emitted, set.bag(c), &mut tuple);
                stack.push((c, child));
            }
            (Some(left), Some(right)) => {
                td.set_kind(emitted, TupleNodeKind::Branch);
                for c in [left, right] {
                    debug_assert!(is_permutation(td.bag(emitted), set.bag(c)));
                    let child = td.push_copy(emitted, TupleNodeKind::Leaf);
                    td.attach(emitted, child);
                    stack.push((c, child));
                }
            }
        }
    }
    debug_assert_eq!(td.validate_normal_form(), Ok(()));
    td
}

/// Emits the nodes for the edge from the emitted node `emitted` to a
/// child whose bag, as a set, is `child_set`: an identical child if the
/// sets agree, else possibly a permutation node bringing the leaving
/// element to position 0, then the replacement child. Returns the child.
/// `tuple` is a scratch buffer.
fn emit_edge(
    td: &mut TupleTd,
    emitted: NodeId,
    child_set: &[ElemId],
    tuple: &mut Vec<ElemId>,
) -> NodeId {
    tuple.clear();
    tuple.extend_from_slice(td.bag(emitted));
    let mut attach = emitted;
    let kind = match tuple.iter().position(|e| !child_set.contains(e)) {
        None => TupleNodeKind::Permutation,
        Some(at) => {
            debug_assert_eq!(
                tuple.iter().filter(|e| !child_set.contains(e)).count(),
                1,
                "interpolation left a multi-element edge"
            );
            let entering = *child_set
                .iter()
                .find(|e| !tuple.contains(e))
                .expect("equal-size bags: one in, one out");
            if at != 0 {
                tuple[..=at].rotate_right(1);
                attach = td.push(tuple.iter().copied(), TupleNodeKind::Leaf);
                td.attach(emitted, attach);
                td.set_kind(emitted, TupleNodeKind::Permutation);
            }
            tuple[0] = entering;
            TupleNodeKind::ElementReplacement
        }
    };
    let child = td.push(tuple.iter().copied(), TupleNodeKind::Leaf);
    td.attach(attach, child);
    td.set_kind(attach, kind);
    child
}

/// Whether the tuple `b` lists the distinct elements of `a` in some order.
fn is_permutation(a: &[ElemId], b: &[ElemId]) -> bool {
    a.len() == b.len() && a.iter().all(|e| b.contains(e))
}

fn is_pos0_replacement(parent: &[ElemId], child: &[ElemId]) -> bool {
    parent.len() == child.len()
        && !parent.is_empty()
        && parent[1..] == child[1..]
        && parent[0] != child[0]
        && !child[1..].contains(&child[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> ElemId {
        ElemId(i)
    }

    #[test]
    fn normalize_small_path() {
        let mut td = TreeDecomposition::singleton(vec![e(0), e(1)]);
        let c = td.add_child(td.root(), vec![e(1), e(2)]);
        td.add_child(c, vec![e(2), e(3)]);
        let norm = TupleTd::from_td(&td, 4).unwrap();
        assert_eq!(norm.validate_normal_form(), Ok(()));
        assert_eq!(norm.width(), 1);
    }

    #[test]
    fn normalize_wide_star() {
        // A root with 5 children forces binarization.
        let mut td = TreeDecomposition::singleton(vec![e(0), e(1), e(2)]);
        for i in 0..5u32 {
            td.add_child(td.root(), vec![e(0), e(3 + i)]);
        }
        let norm = TupleTd::from_td(&td, 8).unwrap();
        assert_eq!(norm.validate_normal_form(), Ok(()));
        assert_eq!(norm.width(), 2);
        for id in norm.node_ids() {
            assert!(norm.children(id).count() <= 2);
        }
    }

    #[test]
    fn normalize_with_multi_element_jump() {
        // Adjacent bags sharing nothing: requires interpolation.
        let mut td = TreeDecomposition::singleton(vec![e(0), e(1), e(2)]);
        td.add_child(td.root(), vec![e(3), e(4), e(5)]);
        let norm = TupleTd::from_td(&td, 6).unwrap();
        assert_eq!(norm.validate_normal_form(), Ok(()));
        // Every edge is now a permutation or a pos-0 replacement.
        for id in norm.node_ids() {
            let _ = norm.kind(id); // must not panic
        }
    }

    #[test]
    fn width_zero_input_is_lifted_to_width_one() {
        let mut td = TreeDecomposition::singleton(vec![e(0)]);
        td.add_child(td.root(), vec![e(1)]);
        let norm = TupleTd::from_td(&td, 2).unwrap();
        assert_eq!(norm.width(), 1);
        assert_eq!(norm.validate_normal_form(), Ok(()));
    }

    #[test]
    fn domain_too_small_is_reported() {
        let td = TreeDecomposition::singleton(vec![e(0)]);
        assert!(matches!(
            TupleTd::from_td(&td, 1),
            Err(NormalizeError::DomainTooSmall { need: 2, have: 1 })
        ));
    }

    #[test]
    fn padding_to_requested_width() {
        let mut td = TreeDecomposition::singleton(vec![e(0), e(1)]);
        td.add_child(td.root(), vec![e(1), e(2)]);
        let norm = TupleTd::from_td_with_width(&td, 5, 3).unwrap();
        assert_eq!(norm.width(), 3);
        assert_eq!(norm.validate_normal_form(), Ok(()));
        for id in norm.node_ids() {
            assert_eq!(norm.bag(id).len(), 4);
        }
    }

    #[test]
    fn to_set_td_roundtrip_is_still_a_decomposition() {
        use mdtw_structure::{Domain, Signature, Structure};
        use std::sync::Arc;
        let sig = Arc::new(Signature::from_pairs([("e", 2)]));
        let dom = Domain::anonymous(4);
        let mut s = Structure::new(sig, dom);
        let ep = s.signature().lookup("e").unwrap();
        s.insert(ep, &[e(0), e(1)]);
        s.insert(ep, &[e(1), e(2)]);
        s.insert(ep, &[e(2), e(3)]);
        let mut td = TreeDecomposition::singleton(vec![e(0), e(1)]);
        let c = td.add_child(td.root(), vec![e(1), e(2)]);
        td.add_child(c, vec![e(2), e(3)]);
        assert_eq!(td.validate(&s), Ok(()));
        let norm = TupleTd::from_td(&td, 4).unwrap();
        let back = norm.to_set_td();
        assert_eq!(back.validate(&s), Ok(()));
        assert_eq!(back.width(), norm.width());
    }

    #[test]
    fn kinds_cover_definition() {
        let mut td = TreeDecomposition::singleton(vec![e(0), e(1)]);
        let c1 = td.add_child(td.root(), vec![e(1), e(2)]);
        td.add_child(c1, vec![e(2), e(3)]);
        td.add_child(c1, vec![e(1), e(2)]);
        let norm = TupleTd::from_td(&td, 4).unwrap();
        let mut saw_branch = false;
        let mut saw_leaf = false;
        for id in norm.node_ids() {
            match norm.kind(id) {
                TupleNodeKind::Branch => saw_branch = true,
                TupleNodeKind::Leaf => saw_leaf = true,
                _ => {}
            }
        }
        assert!(saw_branch && saw_leaf);
    }
}
