//! Rooted tree decompositions with set-valued bags (paper §2.2).

use mdtw_structure::ElemId;
use std::fmt;

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

/// One node of a tree decomposition: a bag of domain elements plus tree
/// links. Bags are kept sorted and deduplicated (set semantics).
#[derive(Debug, Clone)]
pub struct TdNode {
    /// The bag `A_t ⊆ A`, sorted ascending.
    pub bag: Vec<ElemId>,
    /// Children in order (first child, second child, …).
    pub children: Vec<NodeId>,
    /// Parent link; `None` for the root.
    pub parent: Option<NodeId>,
}

/// A rooted tree decomposition `T = ⟨T, (A_t)_{t∈T}⟩` of some structure.
///
/// The type stores only the tree and the bags; which structure it
/// decomposes is checked externally via [`validate`](Self::validate).
#[derive(Debug, Clone)]
pub struct TreeDecomposition {
    nodes: Vec<TdNode>,
    root: NodeId,
}

impl TreeDecomposition {
    /// Creates a decomposition consisting of a single root node.
    pub fn singleton(mut bag: Vec<ElemId>) -> Self {
        bag.sort_unstable();
        bag.dedup();
        Self {
            nodes: vec![TdNode {
                bag,
                children: Vec::new(),
                parent: None,
            }],
            root: NodeId(0),
        }
    }

    /// The root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of tree nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the decomposition has no nodes (never constructible; kept
    /// for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable node access.
    #[inline]
    pub fn node(&self, id: NodeId) -> &TdNode {
        &self.nodes[id.index()]
    }

    /// The bag of `id`.
    #[inline]
    pub fn bag(&self, id: NodeId) -> &[ElemId] {
        &self.nodes[id.index()].bag
    }

    /// Adds a child node with the given bag under `parent`.
    pub fn add_child(&mut self, parent: NodeId, mut bag: Vec<ElemId>) -> NodeId {
        bag.sort_unstable();
        bag.dedup();
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(TdNode {
            bag,
            children: Vec::new(),
            parent: Some(parent),
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Iterates over all node ids (arena order).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// The width `max |A_t| − 1`.
    pub fn width(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.bag.len())
            .max()
            .unwrap_or(0)
            .saturating_sub(1)
    }

    /// Post-order traversal from the root (children before parents).
    pub fn post_order(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        // Iterative DFS: (node, child-cursor).
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

    /// Pre-order traversal from the root (parents before children).
    pub fn pre_order(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![self.root];
        while let Some(node) = stack.pop() {
            out.push(node);
            // Push in reverse so children come out in order.
            for &c in self.nodes[node.index()].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// All leaves (nodes without children).
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

    /// Re-roots the decomposition at `new_root`, reversing parent links on
    /// the path to the old root. Bags are unchanged, so validity is
    /// preserved (tree decompositions are unordered; rooting is a choice).
    pub fn reroot(&mut self, new_root: NodeId) {
        if new_root == self.root {
            return;
        }
        // Collect the path new_root -> old root.
        let mut path = vec![new_root];
        let mut cur = new_root;
        while let Some(p) = self.nodes[cur.index()].parent {
            path.push(p);
            cur = p;
        }
        // Reverse each edge along the path.
        for w in path.windows(2) {
            let (child, parent) = (w[0], w[1]);
            // parent loses `child`, gains nothing yet.
            self.nodes[parent.index()].children.retain(|&c| c != child);
            self.nodes[child.index()].children.push(parent);
            self.nodes[parent.index()].parent = Some(child);
        }
        self.nodes[new_root.index()].parent = None;
        self.root = new_root;
    }

    /// Lets `f` edit every bag in place (bag-augmentation transforms
    /// extend them), then restores set semantics by sorting and
    /// deduplicating each bag. Reuses every bag's buffer.
    pub fn map_bags(&mut self, mut f: impl FnMut(NodeId, &mut Vec<ElemId>)) {
        for (i, node) in self.nodes.iter_mut().enumerate() {
            f(NodeId(i as u32), &mut node.bag);
            node.bag.sort_unstable();
            node.bag.dedup();
        }
    }
}

impl fmt::Display for TreeDecomposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "tree decomposition: {} nodes, width {}",
            self.len(),
            self.width()
        )?;
        for id in self.pre_order() {
            let depth = {
                let mut d = 0;
                let mut cur = id;
                while let Some(p) = self.node(cur).parent {
                    d += 1;
                    cur = p;
                }
                d
            };
            let bag: Vec<String> = self
                .bag(id)
                .iter()
                .map(std::string::ToString::to_string)
                .collect();
            writeln!(f, "{}{} {{{}}}", "  ".repeat(depth), id, bag.join(","))?;
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
        assert_eq!(po.len(), 4);
        assert_eq!(*po.last().unwrap(), td.root());
        // Every child precedes its parent.
        let pos: Vec<usize> = {
            let mut v = vec![0; td.len()];
            for (i, id) in po.iter().enumerate() {
                v[id.index()] = i;
            }
            v
        };
        for id in td.node_ids() {
            if let Some(p) = td.node(id).parent {
                assert!(pos[id.index()] < pos[p.index()]);
            }
        }
    }

    #[test]
    fn pre_order_starts_with_root() {
        let td = small_td();
        let pre = td.pre_order();
        assert_eq!(pre[0], td.root());
        assert_eq!(pre.len(), 4);
    }

    #[test]
    fn reroot_preserves_node_set_and_edges() {
        let mut td = small_td();
        let leaves = td.leaves();
        let new_root = leaves[0];
        let old_edge_count: usize = td.node_ids().map(|n| td.node(n).children.len()).sum();
        td.reroot(new_root);
        assert_eq!(td.root(), new_root);
        assert!(td.node(new_root).parent.is_none());
        let edge_count: usize = td.node_ids().map(|n| td.node(n).children.len()).sum();
        assert_eq!(edge_count, old_edge_count);
        // All nodes reachable from the new root.
        assert_eq!(td.post_order().len(), td.len());
    }

    #[test]
    fn reroot_to_current_root_is_noop() {
        let mut td = small_td();
        let r = td.root();
        td.reroot(r);
        assert_eq!(td.root(), r);
    }
}
