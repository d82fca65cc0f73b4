//! Rooted trees of bags: the one layout behind every decomposition of
//! this crate.
//!
//! [`Tree<K>`] is a rooted tree whose nodes carry a bag of domain elements
//! and a kind `K`. The set-form decompositions of §2.2 are
//! [`TreeDecomposition`] (`K = ()`), the nice form of §5 is
//! [`NiceTd`](crate::NiceTd) (`K = `[`NiceKind`](crate::NiceKind)) and the
//! tuple form of Definition 2.3 is [`TupleTd`](crate::TupleTd)
//! (`K = `[`TupleNodeKind`](crate::TupleNodeKind)). Accessors, traversals,
//! [`to_set_td`](Tree::to_set_td) and [`Display`](fmt::Display) are
//! written once, here; each normal form adds only its builder, its kind
//! and its validation.
//!
//! # Layout
//!
//! The nodes are stored flat, with no allocation per node:
//!
//! * every bag lives in one `Vec<ElemId>` arena, in node order: node `n`'s
//!   bag is `bags[ends[n − 1]..ends[n]]` (with `ends[−1] = 0`), so the
//!   offsets cost one `u32` per node;
//! * every node keeps its parent, its first and last child and its next
//!   sibling in one `Copy` record of four `u32`s, so
//!   [`children`](Tree::children) is an iterator over a sibling chain,
//!   appending a child costs `O(1)` and unlinking one (by
//!   [`reroot`](TreeDecomposition::reroot) or a splice) `O(degree)`;
//! * the kinds live in one `Vec<K>`, which for `K = ()` occupies nothing.
//!
//! A tree of `n` nodes and `Σ |bag|` bag cells thus occupies three vectors
//! of `4·Σ|bag|`, `4n` and `16n` bytes plus the kinds; cloning it costs
//! one memcpy per vector. Set-form and nice bags are sorted sets; tuple
//! bags are ordered tuples, so [`bag_contains`](Tree::bag_contains) scans
//! rather than binary-searches.

use mdtw_structure::ElemId;
use std::fmt;
use std::ops::Range;

/// Identifier of a decomposition tree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index of this node in its arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The absent link.
const NONE: u32 = u32::MAX;

/// The links of one node; [`NONE`] marks an absent one.
#[derive(Debug, Clone, Copy)]
struct Link {
    parent: u32,
    first_child: u32,
    last_child: u32,
    next_sibling: u32,
}

impl Link {
    const UNLINKED: Link = Link {
        parent: NONE,
        first_child: NONE,
        last_child: NONE,
        next_sibling: NONE,
    };
}

#[inline]
fn link(raw: u32) -> Option<NodeId> {
    (raw != NONE).then_some(NodeId(raw))
}

/// A rooted tree whose nodes carry a bag of domain elements and a kind
/// `K`; see the [module docs](self) for the layout.
#[derive(Debug, Clone)]
pub struct Tree<K> {
    bags: Vec<ElemId>,
    ends: Vec<u32>,
    links: Vec<Link>,
    kinds: Vec<K>,
    root: NodeId,
}

/// A rooted tree decomposition `T = ⟨T, (A_t)_{t∈T}⟩` of some structure
/// (§2.2), with bags kept sorted and deduplicated (set semantics).
///
/// The type stores only the tree and the bags; which structure it
/// decomposes is checked externally via [`validate`](Self::validate).
pub type TreeDecomposition = Tree<()>;

/// The children of one node, in order (see [`Tree::children`]).
#[derive(Debug, Clone)]
pub struct Children<'a> {
    links: &'a [Link],
    next: u32,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        let id = link(self.next)?;
        self.next = self.links[id.index()].next_sibling;
        Some(id)
    }
}

impl<K: Copy> Tree<K> {
    /// The root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of tree nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True if the tree has no nodes (no public constructor builds one).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// The bag of `id`: a sorted set, or an ordered tuple in a
    /// [`TupleTd`](crate::TupleTd).
    #[inline]
    pub fn bag(&self, id: NodeId) -> &[ElemId] {
        &self.bags[self.cells(id)]
    }

    /// The arena range of `id`'s bag.
    #[inline]
    fn cells(&self, id: NodeId) -> Range<usize> {
        let i = id.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        start..self.ends[i] as usize
    }

    /// The kind of `id`.
    #[inline]
    pub fn kind(&self, id: NodeId) -> K {
        self.kinds[id.index()]
    }

    /// The parent of `id`; `None` for the root.
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        link(self.links[id.index()].parent)
    }

    /// The children of `id`, first child first.
    #[inline]
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children {
            links: &self.links,
            next: self.links[id.index()].first_child,
        }
    }

    /// Iterates over all node ids (arena order).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.len() as u32).map(NodeId)
    }

    /// The width `max |bag| − 1`.
    pub fn width(&self) -> usize {
        let mut start = 0;
        let mut widest = 0;
        for &end in &self.ends {
            widest = widest.max(end - start);
            start = end;
        }
        (widest as usize).saturating_sub(1)
    }

    /// True if `elem` occurs in the bag of `node`.
    #[inline]
    pub fn bag_contains(&self, node: NodeId, elem: ElemId) -> bool {
        self.bag(node).contains(&elem)
    }

    /// All leaves (nodes without children), in node order.
    pub fn leaves(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&id| self.links[id.index()].first_child == NONE)
            .collect()
    }

    /// Post-order traversal from the root (children before parents): the
    /// order of the bottom-up `solve` computation of Figures 5 and 6.
    pub fn post_order(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.len());
        let mut node = self.root;
        loop {
            while let Some(child) = link(self.links[node.index()].first_child) {
                node = child;
            }
            loop {
                out.push(node);
                if node == self.root {
                    return out;
                }
                let l = self.links[node.index()];
                if let Some(sibling) = link(l.next_sibling) {
                    node = sibling;
                    break;
                }
                node = NodeId(l.parent);
            }
        }
    }

    /// Pre-order traversal from the root (parents before children): the
    /// order of the top-down `solve↓` computation of §5.3.
    pub fn pre_order(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.len());
        let mut node = self.root;
        loop {
            out.push(node);
            if let Some(child) = link(self.links[node.index()].first_child) {
                node = child;
                continue;
            }
            loop {
                if node == self.root {
                    return out;
                }
                let l = self.links[node.index()];
                if let Some(sibling) = link(l.next_sibling) {
                    node = sibling;
                    break;
                }
                node = NodeId(l.parent);
            }
        }
    }

    /// The same tree with every bag sorted and the kinds dropped: a
    /// set-form [`TreeDecomposition`] with the same node ids, for
    /// validation against the underlying structure.
    pub fn to_set_td(&self) -> TreeDecomposition {
        let mut td = Tree {
            bags: self.bags.clone(),
            ends: self.ends.clone(),
            links: self.links.clone(),
            kinds: vec![(); self.len()],
            root: self.root,
        };
        for id in td.node_ids() {
            td.bag_mut(id).sort_unstable();
        }
        td
    }

    /// Checks that the links form one tree: the root has no parent, every
    /// child links back to its parent and the sibling chains end at their
    /// recorded last child. Allocates only to report a violation.
    pub(crate) fn check_links(&self) -> Result<(), String> {
        if self.root.index() >= self.len() || self.parent(self.root).is_some() {
            return Err(format!("root {} is not a parentless node", self.root));
        }
        for id in self.node_ids() {
            let mut last = NONE;
            for c in self.children(id) {
                if c.index() >= self.len() || self.parent(c) != Some(id) {
                    return Err(format!("child {c} of {id} does not link back"));
                }
                last = c.0;
            }
            if self.links[id.index()].last_child != last {
                return Err(format!("last child of {id} is not the end of its chain"));
            }
        }
        Ok(())
    }

    // --- building -------------------------------------------------------------------

    /// An empty tree with room for `nodes` nodes and `cells` bag cells.
    /// Its root is node 0 unless [`set_root`](Self::set_root) says
    /// otherwise.
    pub(crate) fn with_capacity(nodes: usize, cells: usize) -> Self {
        Self {
            bags: Vec::with_capacity(cells),
            ends: Vec::with_capacity(nodes),
            links: Vec::with_capacity(nodes),
            kinds: Vec::with_capacity(nodes),
            root: NodeId(0),
        }
    }

    /// Appends an unlinked node with the given bag and kind.
    pub(crate) fn push(&mut self, bag: impl IntoIterator<Item = ElemId>, kind: K) -> NodeId {
        self.bags.extend(bag);
        self.close_node(kind)
    }

    /// Appends an unlinked node with a copy of `of`'s bag, copied within
    /// the arena.
    pub(crate) fn push_copy(&mut self, of: NodeId, kind: K) -> NodeId {
        self.bags.extend_from_within(self.cells(of));
        self.close_node(kind)
    }

    /// Ends the bag appended last as the bag of a new unlinked node.
    fn close_node(&mut self, kind: K) -> NodeId {
        let id = NodeId(u32::try_from(self.links.len()).expect("fewer than 2³² nodes"));
        let end = u32::try_from(self.bags.len()).expect("fewer than 2³² bag cells");
        self.ends.push(end);
        self.links.push(Link::UNLINKED);
        self.kinds.push(kind);
        id
    }

    /// The bag cells of `id`, for editing in place.
    pub(crate) fn bag_mut(&mut self, id: NodeId) -> &mut [ElemId] {
        let cells = self.cells(id);
        &mut self.bags[cells]
    }

    /// Sets the kind of `id`.
    pub(crate) fn set_kind(&mut self, id: NodeId, kind: K) {
        self.kinds[id.index()] = kind;
    }

    /// Makes `id` the root.
    pub(crate) fn set_root(&mut self, id: NodeId) {
        self.root = id;
    }

    /// Appends the parentless node `child` as the last child of `parent`.
    pub(crate) fn attach(&mut self, parent: NodeId, child: NodeId) {
        debug_assert_eq!(self.links[child.index()].parent, NONE);
        let last = self.links[parent.index()].last_child;
        if last == NONE {
            self.links[parent.index()].first_child = child.0;
        } else {
            self.links[last as usize].next_sibling = child.0;
        }
        self.links[parent.index()].last_child = child.0;
        let l = &mut self.links[child.index()];
        l.parent = parent.0;
        l.next_sibling = NONE;
    }

    /// Unlinks `child` from its parent `parent`, keeping the order of the
    /// other children.
    pub(crate) fn detach(&mut self, parent: NodeId, child: NodeId) {
        let next = self.links[child.index()].next_sibling;
        self.relink(parent, child, next);
        let l = &mut self.links[child.index()];
        l.parent = NONE;
        l.next_sibling = NONE;
    }

    /// Inserts the unlinked node `mid` between `child` and its parent (or
    /// above the root): `mid` takes `child`'s place among its siblings
    /// and `child` becomes `mid`'s last child.
    pub(crate) fn splice_above(&mut self, child: NodeId, mid: NodeId) {
        let Link {
            parent,
            next_sibling,
            ..
        } = self.links[child.index()];
        match link(parent) {
            Some(p) => self.relink(p, child, mid.0),
            None => self.root = mid,
        }
        let l = &mut self.links[mid.index()];
        l.parent = parent;
        l.next_sibling = next_sibling;
        self.links[child.index()].parent = NONE;
        self.attach(mid, child);
    }

    /// Points the link leading to `child` in `parent`'s chain (the first
    /// child link or a sibling link) at `to`, walking the chain. `to` is
    /// either a node taking `child`'s place or `child`'s successor, which
    /// is [`NONE`] when `child` is the last child: then its predecessor
    /// becomes the last child.
    fn relink(&mut self, parent: NodeId, child: NodeId, to: u32) {
        let mut prev = NONE;
        let mut at = self.links[parent.index()].first_child;
        while at != child.0 {
            prev = at;
            at = self.links[at as usize].next_sibling;
        }
        match prev {
            NONE => self.links[parent.index()].first_child = to,
            prev => self.links[prev as usize].next_sibling = to,
        }
        let l = &mut self.links[parent.index()];
        if l.last_child == child.0 {
            l.last_child = if to == NONE { prev } else { to };
        }
    }
}

impl TreeDecomposition {
    /// Creates a decomposition consisting of a single root node.
    pub fn singleton(bag: Vec<ElemId>) -> Self {
        let mut td = Self::with_capacity(1, bag.len());
        td.push(sorted_set(bag), ());
        td
    }

    /// Adds a child node with the given bag under `parent`.
    pub fn add_child(&mut self, parent: NodeId, bag: Vec<ElemId>) -> NodeId {
        let id = self.push(sorted_set(bag), ());
        self.attach(parent, id);
        id
    }

    /// Re-roots the decomposition at `new_root`, reversing parent links on
    /// the path to the old root; each node on the path gains its former
    /// parent as its last child. Bags are unchanged, so validity is
    /// preserved (tree decompositions are unordered; rooting is a choice).
    pub fn reroot(&mut self, new_root: NodeId) {
        let (mut below, mut node) = (None, Some(new_root));
        while let Some(n) = node {
            node = self.parent(n);
            if let Some(up) = node {
                self.detach(up, n);
            }
            if let Some(below) = below {
                self.attach(below, n);
            }
            below = Some(n);
        }
        self.root = new_root;
    }

    /// Lets `f` edit every bag (bag-augmentation transforms extend them),
    /// then restores set semantics by sorting and deduplicating each bag.
    /// `f` edits a copy of the bag in one reused buffer, and the arena is
    /// rebuilt in one pass.
    pub fn map_bags(&mut self, mut f: impl FnMut(NodeId, &mut Vec<ElemId>)) {
        let cells = self.bags.len();
        let old = std::mem::replace(&mut self.bags, Vec::with_capacity(cells + cells / 2));
        let mut bag = Vec::new();
        let mut start = 0;
        for i in 0..self.len() {
            let end = self.ends[i] as usize;
            bag.clear();
            bag.extend_from_slice(&old[start..end]);
            start = end;
            f(NodeId(i as u32), &mut bag);
            bag.sort_unstable();
            bag.dedup();
            self.bags.extend_from_slice(&bag);
            self.ends[i] = u32::try_from(self.bags.len()).expect("fewer than 2³² bag cells");
        }
    }
}

/// `bag` sorted and deduplicated.
fn sorted_set(mut bag: Vec<ElemId>) -> Vec<ElemId> {
    bag.sort_unstable();
    bag.dedup();
    bag
}

impl<K: Copy> fmt::Display for Tree<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "tree decomposition: {} nodes, width {}",
            self.len(),
            self.width()
        )?;
        let mut depth = vec![0; self.len()];
        for id in self.pre_order() {
            if let Some(p) = self.parent(id) {
                depth[id.index()] = depth[p.index()] + 1;
            }
            write!(f, "{}{} {{", "  ".repeat(depth[id.index()]), id)?;
            for (i, e) in self.bag(id).iter().enumerate() {
                write!(f, "{}{e}", if i == 0 { "" } else { "," })?;
            }
            writeln!(f, "}}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> ElemId {
        ElemId(i)
    }

    fn small_td() -> TreeDecomposition {
        let mut td = TreeDecomposition::singleton(vec![e(0), e(1)]);
        let c1 = td.add_child(td.root(), vec![e(1), e(2)]);
        td.add_child(c1, vec![e(2), e(3)]);
        td.add_child(td.root(), vec![e(0), e(4)]);
        td
    }

    #[test]
    fn construction_and_width() {
        let td = small_td();
        assert_eq!(td.len(), 4);
        assert_eq!(td.width(), 1);
        assert_eq!(td.leaves().len(), 2);
        assert_eq!(td.check_links(), Ok(()));
    }

    #[test]
    fn bags_are_sorted_sets() {
        let td = TreeDecomposition::singleton(vec![e(3), e(1), e(3), e(2)]);
        assert_eq!(td.bag(td.root()), &[e(1), e(2), e(3)]);
    }

    #[test]
    fn post_order_ends_with_root() {
        let td = small_td();
        let po = td.post_order();
        assert_eq!(po, [NodeId(2), NodeId(1), NodeId(3), NodeId(0)]);
        // Every child precedes its parent.
        let pos: Vec<usize> = {
            let mut v = vec![0; td.len()];
            for (i, id) in po.iter().enumerate() {
                v[id.index()] = i;
            }
            v
        };
        for id in td.node_ids() {
            if let Some(p) = td.parent(id) {
                assert!(pos[id.index()] < pos[p.index()]);
            }
        }
    }

    #[test]
    fn pre_order_starts_with_root() {
        let td = small_td();
        let pre = td.pre_order();
        assert_eq!(pre, [NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn reroot_preserves_node_set_and_edges() {
        let mut td = small_td();
        let leaves = td.leaves();
        let new_root = leaves[0];
        let old_edge_count: usize = td.node_ids().map(|n| td.children(n).count()).sum();
        td.reroot(new_root);
        assert_eq!(td.root(), new_root);
        assert!(td.parent(new_root).is_none());
        assert_eq!(td.check_links(), Ok(()));
        let edge_count: usize = td.node_ids().map(|n| td.children(n).count()).sum();
        assert_eq!(edge_count, old_edge_count);
        // The former parent of each path node became its last child.
        assert_eq!(td.children(NodeId(1)).collect::<Vec<_>>(), [NodeId(0)]);
        assert_eq!(td.children(NodeId(0)).collect::<Vec<_>>(), [NodeId(3)]);
        // All nodes reachable from the new root.
        assert_eq!(td.post_order().len(), td.len());
    }

    #[test]
    fn reroot_to_current_root_is_noop() {
        let mut td = small_td();
        let r = td.root();
        td.reroot(r);
        assert_eq!(td.root(), r);
        assert_eq!(td.check_links(), Ok(()));
    }

    #[test]
    fn splices_and_detaches_keep_sibling_order() {
        let mut td = small_td();
        let root = td.root();
        let mid = td.push_copy(root, ());
        td.splice_above(NodeId(1), mid);
        assert_eq!(td.children(root).collect::<Vec<_>>(), [mid, NodeId(3)]);
        assert_eq!(td.children(mid).collect::<Vec<_>>(), [NodeId(1)]);
        let top = td.push_copy(root, ());
        td.splice_above(root, top);
        assert_eq!(td.root(), top);
        td.detach(root, NodeId(3));
        assert_eq!(td.children(root).collect::<Vec<_>>(), [mid]);
        td.attach(root, NodeId(3));
        assert_eq!(td.children(root).collect::<Vec<_>>(), [mid, NodeId(3)]);
        assert_eq!(td.check_links(), Ok(()));
    }

    #[test]
    fn map_bags_rebuilds_sorted_sets() {
        let mut td = small_td();
        td.map_bags(|id, bag| bag.extend([e(9), e(id.0), e(1)]));
        assert_eq!(td.bag(NodeId(0)), &[e(0), e(1), e(9)]);
        assert_eq!(td.bag(NodeId(2)), &[e(1), e(2), e(3), e(9)]);
        assert_eq!(td.check_links(), Ok(()));
    }

    #[test]
    fn display_indents_by_depth() {
        let td = small_td();
        assert_eq!(
            td.to_string(),
            "tree decomposition: 4 nodes, width 1\n\
             s0 {#0,#1}\n  s1 {#1,#2}\n    s2 {#2,#3}\n  s3 {#0,#4}\n"
        );
    }
}
