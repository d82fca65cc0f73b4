//! Validation of the three tree-decomposition conditions (paper §2.2).

use crate::tree::{NodeId, TreeDecomposition};
use mdtw_structure::{ElemId, PredId, Structure};
use std::fmt;

/// A violation of one of the tree-decomposition conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TdViolation {
    /// Condition 1: some domain element occurs in no bag.
    ElementNotCovered(ElemId),
    /// Condition 2: some EDB tuple is not contained in any single bag.
    TupleNotCovered(PredId, Vec<ElemId>),
    /// Condition 3 (connectedness): the nodes containing this element do
    /// not induce a subtree.
    Disconnected(ElemId),
    /// A bag mentions an element outside the structure's domain.
    ForeignElement(NodeId, ElemId),
}

impl fmt::Display for TdViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TdViolation::ElementNotCovered(e) => write!(f, "element {e} occurs in no bag"),
            TdViolation::TupleNotCovered(p, t) => {
                write!(f, "tuple {p}({t:?}) not contained in any bag")
            }
            TdViolation::Disconnected(e) => {
                write!(f, "occurrences of element {e} do not form a subtree")
            }
            TdViolation::ForeignElement(n, e) => {
                write!(f, "bag of {n} mentions foreign element {e}")
            }
        }
    }
}

impl std::error::Error for TdViolation {}

impl TreeDecomposition {
    /// Checks that `self` is a tree decomposition of `structure`:
    /// (1) every element is in some bag, (2) every tuple fits in a bag,
    /// (3) each element's occurrence set induces a subtree.
    ///
    /// Runs in time linear in the decomposition plus the structure
    /// (for fixed width).
    pub fn validate(&self, structure: &Structure) -> Result<(), TdViolation> {
        let n = structure.domain().len();
        // Count occurrences per element and find one representative node.
        let mut occurrences = vec![0u32; n];
        for id in self.node_ids() {
            for &e in self.bag(id) {
                if e.index() >= n {
                    return Err(TdViolation::ForeignElement(id, e));
                }
                occurrences[e.index()] += 1;
            }
        }
        for e in structure.domain().elems() {
            if occurrences[e.index()] == 0 {
                return Err(TdViolation::ElementNotCovered(e));
            }
        }

        // Condition 3: for each element, the number of tree edges joining
        // two occurrence nodes must be exactly (#occurrences − 1); since the
        // occurrence nodes form a forest inside the tree, this forces a
        // single connected subtree.
        let mut internal_edges = vec![0u32; n];
        for id in self.node_ids() {
            if let Some(p) = self.parent(id) {
                // Intersect the two sorted bags.
                let (a, b) = (self.bag(id), self.bag(p));
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            internal_edges[a[i].index()] += 1;
                            i += 1;
                            j += 1;
                        }
                    }
                }
            }
        }
        for e in structure.domain().elems() {
            if internal_edges[e.index()] + 1 != occurrences[e.index()] {
                return Err(TdViolation::Disconnected(e));
            }
        }

        // Condition 2: every tuple inside one bag. Index: for each element,
        // one occurrence node; then check each tuple against all bags
        // containing its first argument — linear for fixed width because we
        // only need *some* bag; we search the occurrence subtree of the
        // first element. For simplicity and because widths are tiny we test
        // all bags containing the minimum-occurrence argument.
        let mut nodes_of: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for id in self.node_ids() {
            for &e in self.bag(id) {
                nodes_of[e.index()].push(id);
            }
        }
        for p in structure.signature().preds() {
            for t in structure.relation(p).iter() {
                if t.is_empty() {
                    continue;
                }
                let pivot = t
                    .iter()
                    .min_by_key(|e| nodes_of[e.index()].len())
                    .expect("non-empty tuple");
                let ok = nodes_of[pivot.index()]
                    .iter()
                    .any(|&id| t.iter().all(|&e| self.bag_contains(id, e)));
                if !ok {
                    return Err(TdViolation::TupleNotCovered(p, t.to_vec()));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdtw_structure::{Domain, Signature};
    use std::sync::Arc;

    fn path_graph(n: usize) -> Structure {
        let sig = Arc::new(Signature::from_pairs([("e", 2)]));
        let dom = Domain::anonymous(n);
        let mut s = Structure::new(sig, dom);
        let e = s.signature().lookup("e").unwrap();
        for i in 0..n - 1 {
            s.insert(e, &[ElemId(i as u32), ElemId(i as u32 + 1)]);
        }
        s
    }

    #[test]
    fn valid_path_decomposition() {
        let s = path_graph(4);
        let mut td = TreeDecomposition::singleton(vec![ElemId(0), ElemId(1)]);
        let c1 = td.add_child(td.root(), vec![ElemId(1), ElemId(2)]);
        td.add_child(c1, vec![ElemId(2), ElemId(3)]);
        assert_eq!(td.validate(&s), Ok(()));
    }

    #[test]
    fn detects_uncovered_element() {
        let s = path_graph(3);
        let mut td = TreeDecomposition::singleton(vec![ElemId(0), ElemId(1)]);
        td.add_child(td.root(), vec![ElemId(1)]);
        assert_eq!(
            td.validate(&s),
            Err(TdViolation::ElementNotCovered(ElemId(2)))
        );
    }

    #[test]
    fn detects_uncovered_tuple() {
        let s = path_graph(3);
        let mut td = TreeDecomposition::singleton(vec![ElemId(0), ElemId(1)]);
        td.add_child(td.root(), vec![ElemId(2)]);
        // Edge (1,2) does not fit in any bag.
        let e = s.signature().lookup("e").unwrap();
        assert_eq!(
            td.validate(&s),
            Err(TdViolation::TupleNotCovered(e, vec![ElemId(1), ElemId(2)]))
        );
    }

    #[test]
    fn detects_disconnected_occurrences() {
        let s = path_graph(3);
        // Element 0 appears in two non-adjacent nodes.
        let mut td = TreeDecomposition::singleton(vec![ElemId(0), ElemId(1)]);
        let mid = td.add_child(td.root(), vec![ElemId(1), ElemId(2)]);
        td.add_child(mid, vec![ElemId(2), ElemId(0)]);
        assert_eq!(td.validate(&s), Err(TdViolation::Disconnected(ElemId(0))));
    }

    #[test]
    fn detects_foreign_element() {
        let s = path_graph(2);
        let td = TreeDecomposition::singleton(vec![ElemId(0), ElemId(1), ElemId(9)]);
        assert!(matches!(
            td.validate(&s),
            Err(TdViolation::ForeignElement(_, ElemId(9)))
        ));
    }
}
