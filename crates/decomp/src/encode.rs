//! The τ_td encoding of paper §4: a structure 𝒜 plus a normalized tree
//! decomposition 𝒯 becomes a single τ_td-structure `𝒜_td` whose domain is
//! `dom(𝒜) ∪ nodes(𝒯)` and whose extra relations `root`, `leaf`,
//! `child1`, `child2`, `bag` describe the tree.

use crate::tree::NodeId;
use crate::tuple_normal::{TupleNodeKind, TupleTd};
use mdtw_structure::{ElemId, Structure};
use std::fmt::Write;
use std::sync::Arc;

/// The result of encoding: the τ_td structure plus the mapping from
/// decomposition nodes to their domain elements.
#[derive(Debug)]
pub struct TdEncoding {
    /// The combined structure `𝒜_td`.
    pub structure: Structure,
    /// `node_elem[t]` is the domain element standing for tree node `t`.
    pub node_elem: Vec<ElemId>,
}

impl TdEncoding {
    /// The domain element representing node `t`.
    #[inline]
    pub fn elem_of(&self, t: NodeId) -> ElemId {
        self.node_elem[t.index()]
    }
}

/// Encodes `base` together with its normalized tuple-form decomposition
/// `td` as a τ_td-structure (Example 4.2 shows the construction on the
/// running example). The encoding is linear in `|base| + |td|`.
///
/// Relations added on top of `base`'s:
/// * `root(t)` — `t` is the decomposition root,
/// * `leaf(t)` — `t` has no children,
/// * `child1(s, t)` — `s` is the first (or only) child of `t`,
/// * `child2(s, t)` — `s` is the second child of `t`,
/// * `bag(t, a₀, …, a_w)` — the bag of `t` is the tuple `(a₀, …, a_w)`.
pub fn encode_tuple_td(base: &Structure, td: &TupleTd) -> TdEncoding {
    let sig = Arc::new(base.signature().extend_td(td.width()));
    // Clone the base domain, then append one element per tree node,
    // named `nd{t}` (with `'` appended while a base element has the name).
    let mut domain = base.domain().clone();
    let mut node_elem = Vec::with_capacity(td.len());
    let mut name = String::new();
    for t in td.node_ids() {
        name.clear();
        write!(name, "nd{}", t.0).expect("writing to a String cannot fail");
        while domain.lookup(&name).is_some() {
            name.push('\'');
        }
        node_elem.push(domain.insert(&name));
    }

    let root_p = sig.lookup("root").expect("root");
    let leaf_p = sig.lookup("leaf").expect("leaf");
    let child1_p = sig.lookup("child1").expect("child1");
    let child2_p = sig.lookup("child2").expect("child2");
    let bag_p = sig.lookup("bag").expect("bag");
    let branch_p = sig.lookup("branch").expect("branch");
    let same_p = sig.lookup("same").expect("same");

    // Presize every relation: base relations keep their sizes, and the
    // tree relations' sizes follow from the node kinds.
    let count = |kind| td.node_ids().filter(|&t| td.kind(t) == kind).count();
    let (leaves, branches) = (count(TupleNodeKind::Leaf), count(TupleNodeKind::Branch));
    let mut rows = vec![0; sig.len()];
    for p in base.signature().preds() {
        rows[p.index()] = base.relation(p).len();
    }
    for (p, n) in [
        (root_p, 1),
        (leaf_p, leaves),
        (child1_p, td.len() - leaves),
        (child2_p, branches),
        (bag_p, td.len()),
        (branch_p, branches),
        (same_p, domain.len()),
    ] {
        rows[p.index()] = n;
    }
    let mut out = Structure::with_capacity(Arc::clone(&sig), domain, &rows);
    // Base relations carry over unchanged (ids are preserved).
    for p in base.signature().preds() {
        for tuple in base.relation(p).iter() {
            out.insert(p, tuple);
        }
    }

    out.insert(root_p, &[node_elem[td.root().index()]]);
    let mut bag_tuple = Vec::with_capacity(td.width() + 2);
    for t in td.node_ids() {
        let at = node_elem[t.index()];
        match td.kind(t) {
            TupleNodeKind::Leaf => {
                out.insert(leaf_p, &[at]);
            }
            TupleNodeKind::Branch => {
                out.insert(branch_p, &[at]);
            }
            TupleNodeKind::Permutation | TupleNodeKind::ElementReplacement => {}
        }
        for (c, pred) in td.children(t).zip([child1_p, child2_p]) {
            out.insert(pred, &[node_elem[c.index()], at]);
        }
        bag_tuple.clear();
        bag_tuple.push(at);
        bag_tuple.extend_from_slice(td.bag(t));
        out.insert(bag_p, &bag_tuple);
    }
    // The identity relation (a guard for the generic Theorem 4.5 rules).
    for e in 0..out.domain().len() as u32 {
        out.insert(same_p, &[ElemId(e), ElemId(e)]);
    }
    TdEncoding {
        structure: out,
        node_elem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeDecomposition;
    use mdtw_structure::{Domain, Signature};

    fn e(i: u32) -> ElemId {
        ElemId(i)
    }

    fn base_and_td() -> (Structure, TupleTd) {
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
        let tuple_td = TupleTd::from_td(&td, 4).unwrap();
        (s, tuple_td)
    }

    #[test]
    fn encoding_has_all_td_relations() {
        let (s, td) = base_and_td();
        let enc = encode_tuple_td(&s, &td);
        let sig = enc.structure.signature();
        let root_p = sig.lookup("root").unwrap();
        let leaf_p = sig.lookup("leaf").unwrap();
        let child1_p = sig.lookup("child1").unwrap();
        let bag_p = sig.lookup("bag").unwrap();
        assert_eq!(enc.structure.relation(root_p).len(), 1);
        assert!(!enc.structure.relation(leaf_p).is_empty());
        // Every non-root node is someone's child.
        let child2_p = sig.lookup("child2").unwrap();
        assert_eq!(
            enc.structure.relation(child1_p).len() + enc.structure.relation(child2_p).len(),
            td.len() - 1
        );
        // One bag atom per node, arity w+2.
        assert_eq!(enc.structure.relation(bag_p).len(), td.len());
        assert_eq!(enc.structure.relation(bag_p).arity(), td.width() + 2);
    }

    #[test]
    fn node_names_skip_base_element_names() {
        let (s, td) = base_and_td();
        let dom = Domain::from_names(["nd0", "nd1", "nd1'", "x3"]);
        let mut base = Structure::new(Arc::clone(s.signature()), dom);
        let ep = base.signature().lookup("e").unwrap();
        for tuple in s.relation(ep).iter() {
            base.insert(ep, tuple);
        }
        let enc = encode_tuple_td(&base, &td);
        let dom = enc.structure.domain();
        assert_eq!(dom.len(), 4 + td.len());
        assert_eq!(dom.name(e(0)), "nd0");
        let names: Vec<&str> = td.node_ids().map(|t| dom.name(enc.elem_of(t))).collect();
        assert_eq!(names[..3], ["nd0'", "nd1''", "nd2"]);
        assert!(enc.node_elem.iter().all(|n| n.index() >= 4));
        assert!(enc.structure.holds(ep, &[e(0), e(1)]));
    }

    #[test]
    fn base_relations_survive() {
        let (s, td) = base_and_td();
        let enc = encode_tuple_td(&s, &td);
        let ep = enc.structure.signature().lookup("e").unwrap();
        assert!(enc.structure.holds(ep, &[e(0), e(1)]));
        assert!(enc.structure.holds(ep, &[e(2), e(3)]));
        assert_eq!(enc.structure.relation(ep).len(), 3);
    }

    #[test]
    fn domain_is_union_of_elements_and_nodes() {
        let (s, td) = base_and_td();
        let enc = encode_tuple_td(&s, &td);
        assert_eq!(enc.structure.domain().len(), s.domain().len() + td.len());
        // Node elements are addressable.
        for t in td.node_ids() {
            let el = enc.elem_of(t);
            assert!(enc.structure.domain().contains(el));
        }
    }
}
