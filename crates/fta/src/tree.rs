//! Colored binary trees: the input language of bottom-up tree automata.
//!
//! The classical MSO-to-FTA route (paper §1, [2, 13]) first translates a
//! structure plus tree decomposition into a *colored tree* whose node
//! symbols describe the bag-local information; the MSO evaluation problem
//! then becomes tree-language recognition. This module provides the tree
//! type plus the encoding of a nice tree decomposition.

use mdtw_decomp::{NiceTd, NodeId};

/// An interned alphabet symbol.
pub type Symbol = u32;

/// One node of a colored tree (at most two children).
#[derive(Debug, Clone)]
pub struct CtNode {
    /// The node's symbol.
    pub symbol: Symbol,
    /// Children (0, 1 or 2).
    pub children: Vec<u32>,
}

/// A rooted colored tree with ≤ 2 children per node.
#[derive(Debug, Clone)]
pub struct ColoredTree {
    nodes: Vec<CtNode>,
    root: u32,
}

impl ColoredTree {
    /// Builds a tree isomorphic to `td` with symbols chosen by `color`.
    pub fn of_nice_td(td: &NiceTd, mut color: impl FnMut(NodeId) -> Symbol) -> Self {
        let nodes: Vec<CtNode> = td
            .node_ids()
            .map(|id| CtNode {
                symbol: color(id),
                children: td.children(id).map(|c| c.0).collect(),
            })
            .collect();
        Self {
            nodes,
            root: td.root().0,
        }
    }

    /// Builds a tree from explicit nodes.
    ///
    /// # Panics
    /// Panics if a child index is out of range or a node has > 2 children.
    pub fn from_nodes(nodes: Vec<CtNode>, root: u32) -> Self {
        for n in &nodes {
            assert!(n.children.len() <= 2, "colored trees are binary");
            for &c in &n.children {
                assert!((c as usize) < nodes.len(), "dangling child");
            }
        }
        assert!((root as usize) < nodes.len());
        Self { nodes, root }
    }

    /// The root index.
    #[inline]
    pub fn root(&self) -> u32 {
        self.root
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the tree has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node access.
    #[inline]
    pub fn node(&self, i: u32) -> &CtNode {
        &self.nodes[i as usize]
    }

    /// Post-order traversal (children before parents).
    pub fn post_order(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![(self.root, 0usize)];
        while let Some(last) = stack.len().checked_sub(1) {
            let (node, cursor) = stack[last];
            let children = &self.nodes[node as usize].children;
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

    /// All distinct symbols with their observed ranks `(symbol, rank)`.
    pub fn alphabet(&self) -> Vec<(Symbol, u8)> {
        let mut seen: Vec<(Symbol, u8)> = self
            .nodes
            .iter()
            .map(|n| (n.symbol, n.children.len() as u8))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(symbol: Symbol) -> CtNode {
        CtNode {
            symbol,
            children: vec![],
        }
    }

    #[test]
    fn build_and_traverse() {
        // f(a, g(a))
        let nodes = vec![
            leaf(0), // 0: a
            leaf(0), // 1: a
            CtNode {
                symbol: 1,
                children: vec![1],
            }, // 2: g(a)
            CtNode {
                symbol: 2,
                children: vec![0, 2],
            }, // 3: f(a, g(a))
        ];
        let t = ColoredTree::from_nodes(nodes, 3);
        assert_eq!(t.len(), 4);
        let po = t.post_order();
        assert_eq!(*po.last().unwrap(), 3);
        assert_eq!(t.alphabet(), vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    #[should_panic(expected = "binary")]
    fn ternary_rejected() {
        let nodes = vec![
            leaf(0),
            leaf(0),
            leaf(0),
            CtNode {
                symbol: 1,
                children: vec![0, 1, 2],
            },
        ];
        ColoredTree::from_nodes(nodes, 3);
    }

    #[test]
    fn of_nice_td_shape() {
        use mdtw_decomp::{NiceOptions, TreeDecomposition};
        use mdtw_structure::ElemId;
        let mut td = TreeDecomposition::singleton(vec![ElemId(0), ElemId(1)]);
        td.add_child(td.root(), vec![ElemId(1)]);
        td.add_child(td.root(), vec![ElemId(0)]);
        let nice = NiceTd::from_td(&td, NiceOptions::default());
        let tree = ColoredTree::of_nice_td(&nice, |id| id.0);
        assert_eq!(tree.len(), nice.len());
        assert_eq!(tree.post_order().len(), nice.len());
    }
}
