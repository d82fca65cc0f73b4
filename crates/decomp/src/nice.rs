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
//! directly, which subsumes it (see `mdtw_core::primality`).

use crate::tree::{NodeId, Tree, TreeDecomposition};
use mdtw_structure::ElemId;
use std::cmp::Reverse;

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

/// A tree decomposition in the modified normal form of §5: a [`Tree`]
/// whose kinds are [`NiceKind`]s and whose bags are sorted sets.
pub type NiceTd = Tree<NiceKind>;

impl NiceTd {
    /// Counts nodes per kind: `(leaf, introduce, forget, branch)`.
    pub fn kind_histogram(&self) -> (usize, usize, usize, usize) {
        let mut h = (0, 0, 0, 0);
        for id in self.node_ids() {
            match self.kind(id) {
                NiceKind::Leaf => h.0 += 1,
                NiceKind::Introduce(_) => h.1 += 1,
                NiceKind::Forget(_) => h.2 += 1,
                NiceKind::Branch => h.3 += 1,
            }
        }
        h
    }

    /// Checks the structural invariants of the nice form: sorted bags,
    /// kinds agreeing with the bags of their children, and parent links
    /// mirroring child links. Allocates only to report a violation.
    pub fn validate_nice_form(&self) -> Result<(), String> {
        self.check_links()?;
        for id in self.node_ids() {
            let bag = self.bag(id);
            if bag.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("bag of {id} is not a sorted set"));
            }
            let mut children = self.children(id).map(|c| self.bag(c));
            let ok = match (
                self.kind(id),
                children.next(),
                children.next(),
                children.next(),
            ) {
                (NiceKind::Leaf, None, ..) => true,
                (NiceKind::Introduce(a), Some(child), None, _) => {
                    !child.contains(&a)
                        && bag.contains(&a)
                        && bag.iter().filter(|&&e| e != a).eq(child)
                }
                (NiceKind::Forget(a), Some(child), None, _) => {
                    child.contains(&a) && child.iter().filter(|&&e| e != a).eq(bag)
                }
                (NiceKind::Branch, Some(left), Some(right), None) => left == bag && right == bag,
                _ => false,
            };
            if !ok {
                return Err(format!(
                    "{id}: children and bags disagree with {:?}",
                    self.kind(id)
                ));
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
    ///
    /// Nodes are numbered as they are built: a post-order walk of `td`
    /// builds each leaf's node, or else morphs every child's top node up
    /// to the bag (one forget per element to drop, then one introduce per
    /// element to add) and joins the chain tops pairwise from the last
    /// child on.
    pub fn from_td_with_rank(
        td: &TreeDecomposition,
        options: NiceOptions,
        rank: &dyn Fn(ElemId) -> u8,
    ) -> Self {
        let (nodes, cells) = nice_size(td);
        let mut b = NiceBuilder {
            nice: Self::with_capacity(nodes, cells),
            rank,
            current: Vec::new(),
            diff: Vec::new(),
        };
        let mut rep: Vec<NodeId> = vec![NodeId(u32::MAX); td.len()];
        let mut tops: Vec<NodeId> = Vec::new();
        for id in td.post_order() {
            let bag = td.bag(id);
            // Morph every child chain up to this node's bag, then join
            // them pairwise with branch nodes.
            tops.clear();
            for c in td.children(id) {
                let top = b.morph(rep[c.index()], bag);
                tops.push(top);
            }
            let built = match tops.pop() {
                None => b.add_bag(bag, NiceKind::Leaf, &[]),
                Some(mut right) => {
                    while let Some(left) = tops.pop() {
                        right = b.add_bag(bag, NiceKind::Branch, &[left, right]);
                    }
                    right
                }
            };
            rep[id.index()] = built;
        }
        let mut nice = b.nice;
        debug_assert_eq!(
            (nodes, cells),
            (
                nice.len(),
                nice.node_ids().map(|id| nice.bag(id).len()).sum()
            ),
            "presized exactly"
        );
        nice.set_root(rep[td.root().index()]);
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
            .node_ids()
            .flat_map(|id| self.bag(id))
            .map(|e| e.index() + 1)
            .max()
            .unwrap_or(0);
        let mut in_leaf = vec![false; elems];
        let mut host: Vec<Option<NodeId>> = vec![None; elems];
        for id in self.node_ids() {
            let bag = self.bag(id);
            let leaf = self.kind(id) == NiceKind::Leaf;
            for &e in bag {
                let h = &mut host[e.index()];
                if h.is_none_or(|h| self.bag(h).len() < bag.len()) {
                    *h = Some(id);
                }
                in_leaf[e.index()] |= leaf;
            }
        }
        for e in 0..elems {
            let Some(t) = host[e] else { continue };
            if in_leaf[e] {
                continue;
            }
            self.splice_leaf_above(t);
            for &x in self.bag(t) {
                in_leaf[x.index()] = true;
            }
        }
    }

    /// Inserts `branch(bag(t)) -> [t, leaf(bag(t))]` above `t`, copying
    /// `bag(t)` twice within the arena.
    fn splice_leaf_above(&mut self, t: NodeId) {
        let leaf = self.push_copy(t, NiceKind::Leaf);
        let branch = self.push_copy(t, NiceKind::Branch);
        self.splice_above(t, branch);
        self.attach(branch, leaf);
    }
}

/// The number of nodes and bag cells of the nice form
/// [`NiceTd::from_td_with_rank`] builds from `td` before leaf coverage:
/// a leaf per childless node, `k − 1` branch nodes per node with `k ≥ 1`
/// children, and per edge one chain node per element of the symmetric
/// difference of the two bags, each carrying the bag of its chain step.
fn nice_size(td: &TreeDecomposition) -> (usize, usize) {
    // Σ_{s < n} s: the cells of chain bags of sizes 0..n.
    let tri = |n: usize| n * n.saturating_sub(1) / 2;
    let (mut nodes, mut cells) = (0, 0);
    for id in td.node_ids() {
        let bag = td.bag(id);
        let copies = match td.children(id).count() {
            0 => 1,
            k => k - 1,
        };
        nodes += copies;
        cells += copies * bag.len();
        for c in td.children(id) {
            let child = td.bag(c);
            let shared = child
                .iter()
                .filter(|e| bag.binary_search(e).is_ok())
                .count();
            // Forgets shrink the child's bag to the shared part, one
            // element at a time; introductions grow it to the parent's.
            nodes += child.len() + bag.len() - 2 * shared;
            cells += tri(child.len()) - tri(shared) + tri(bag.len() + 1) - tri(shared + 1);
        }
    }
    (nodes, cells)
}

/// Incremental builder for nice decompositions: the decomposition built
/// so far plus the two scratch buffers every morph chain reuses.
struct NiceBuilder<'a> {
    nice: NiceTd,
    rank: &'a dyn Fn(ElemId) -> u8,
    /// The bag at the current top of a morph chain.
    current: Vec<ElemId>,
    /// The elements a morph chain forgets, then those it introduces.
    diff: Vec<ElemId>,
}

impl NiceBuilder<'_> {
    /// Appends a node carrying a copy of `bag`.
    fn add_bag(&mut self, bag: &[ElemId], kind: NiceKind, children: &[NodeId]) -> NodeId {
        let id = self.nice.push(bag.iter().copied(), kind);
        for &c in children {
            self.nice.attach(id, c);
        }
        id
    }

    /// Builds the forget/introduce chain from the bag of `from` up to the
    /// sorted set `target`, returning the top node (whose bag equals
    /// `target`). Forgets run by descending rank, introductions by
    /// ascending rank, each in ascending element order within a rank.
    fn morph(&mut self, from: NodeId, target: &[ElemId]) -> NodeId {
        let rank = self.rank;
        let in_target = |e: &ElemId| target.binary_search(e).is_ok();
        self.current.clear();
        self.current.extend_from_slice(self.nice.bag(from));
        let mut top = from;
        self.diff.clear();
        self.diff
            .extend(self.current.iter().copied().filter(|e| !in_target(e)));
        self.diff.sort_unstable_by_key(|&e| (Reverse(rank(e)), e));
        for i in 0..self.diff.len() {
            let e = self.diff[i];
            self.current.retain(|&x| x != e);
            top = self.add_current(NiceKind::Forget(e), top);
        }
        // What survives the forgets is `current ∩ target`, a sorted
        // subsequence of `target`: the introductions are the rest.
        self.diff.clear();
        let kept = &self.current;
        self.diff.extend(
            target
                .iter()
                .copied()
                .filter(|e| kept.binary_search(e).is_err()),
        );
        self.diff.sort_unstable_by_key(|&e| (rank(e), e));
        for i in 0..self.diff.len() {
            let e = self.diff[i];
            let at = self.current.partition_point(|&x| x < e);
            self.current.insert(at, e);
            top = self.add_current(NiceKind::Introduce(e), top);
        }
        debug_assert_eq!(self.current, target);
        top
    }

    /// Appends a node carrying the current chain bag above `child`.
    fn add_current(&mut self, kind: NiceKind, child: NodeId) -> NodeId {
        let id = self.nice.push(self.current.iter().copied(), kind);
        self.nice.attach(id, child);
        id
    }
}

/// Augments every bag with companion elements: wherever `e` occurs in a
/// bag, its companion `companion(e)` is added too, if it has one.
///
/// This implements the paper's §5.2 requirement that *"whenever an FD `f`
/// is contained in a bag of the tree decomposition, then the attribute
/// `rhs(f)` is as well"* (worst case: doubles the width). An element has
/// at most one companion there (an FD's right-hand side), so each bag is
/// extended in place, without a list per element.
///
/// **Precondition** (satisfied by the `lh`/`rh` encoding): for every
/// element `e` and companion `c`, some bag already contains both — then
/// each occurrence subtree of `c` grows by subtrees that intersect it,
/// preserving connectedness. Validity should be re-checked in tests via
/// [`TreeDecomposition::validate`].
pub fn augment_bags(
    td: &mut TreeDecomposition,
    mut companion: impl FnMut(ElemId) -> Option<ElemId>,
) {
    td.map_bags(|_, bag| {
        for i in 0..bag.len() {
            if let Some(c) = companion(bag[i]) {
                bag.push(c);
            }
        }
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
            if nice.kind(id) == NiceKind::Leaf {
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
        augment_bags(&mut td, |x| (x == e(0)).then_some(e(1)));
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
