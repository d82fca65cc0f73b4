//! Encoding a relational schema as a τ-structure with
//! τ = {fd, att, lh, rh} (paper §2.2, Example 2.2).

use crate::schema::{AttrId, Schema};
use mdtw_structure::{Domain, ElemId, Signature, Structure};
use std::fmt::Write;
use std::sync::Arc;

/// The encoded structure plus element maps for both universes.
#[derive(Debug)]
pub struct SchemaEncoding {
    /// The τ-structure 𝒜 with τ = {fd, att, lh, rh}.
    pub structure: Structure,
    /// `attr_elem[a]` is the domain element of attribute `a`.
    pub attr_elem: Vec<ElemId>,
    /// `fd_elem[f]` is the domain element of FD `f`.
    pub fd_elem: Vec<ElemId>,
}

impl SchemaEncoding {
    /// The element of attribute `a`.
    #[inline]
    pub fn elem_of_attr(&self, a: AttrId) -> ElemId {
        self.attr_elem[a.index()]
    }

    /// The element of FD index `f`.
    #[inline]
    pub fn elem_of_fd(&self, f: usize) -> ElemId {
        self.fd_elem[f]
    }

    /// Reverse lookup: the attribute of a domain element, if it is one.
    pub fn attr_of_elem(&self, e: ElemId) -> Option<AttrId> {
        self.attr_elem
            .iter()
            .position(|&x| x == e)
            .map(|i| AttrId(i as u32))
    }

    /// Reverse lookup: the FD index of a domain element, if it is one.
    pub fn fd_of_elem(&self, e: ElemId) -> Option<usize> {
        self.fd_elem.iter().position(|&x| x == e)
    }
}

/// The signature τ = {fd, att, lh, rh}.
pub fn schema_signature() -> Signature {
    Signature::from_pairs([("fd", 1), ("att", 1), ("lh", 2), ("rh", 2)])
}

/// Encodes `(R, F)` as a τ-structure: `fd(f)`, `att(b)`, `lh(b, f)` for
/// `b ∈ lhs(f)`, `rh(b, f)` for `b = rhs(f)` (Example 2.2).
///
/// The domain holds the attributes in schema order, then the FDs `f1`,
/// `f2`, …. The domain and the four relations are sized up front, so the
/// encoding makes a constant number of allocations.
pub fn encode_schema(schema: &Schema) -> SchemaEncoding {
    let sig = Arc::new(schema_signature());
    let fds = schema.fds();
    let attr_bytes: usize = schema.attrs().map(|a| schema.attr_name(a).len()).sum();
    // `f1`, `f2`, …: one letter and the digits of the FD's number.
    let fd_bytes: usize = (1..=fds.len()).map(|i| 2 + i.ilog10() as usize).sum();
    let mut dom = Domain::with_capacity(schema.attr_count() + fds.len(), attr_bytes + fd_bytes);
    let attr_elem: Vec<ElemId> = schema
        .attrs()
        .map(|a| dom.insert(schema.attr_name(a)))
        .collect();
    let mut name = String::new();
    let fd_elem: Vec<ElemId> = (1..=fds.len())
        .map(|i| {
            name.clear();
            write!(name, "f{i}").expect("writing to a String cannot fail");
            dom.insert(&name)
        })
        .collect();
    let pred = |n: &str| sig.lookup(n).expect("schema predicate");
    let (fd_p, att_p, lh_p, rh_p) = (pred("fd"), pred("att"), pred("lh"), pred("rh"));
    let mut rows = [0; 4];
    rows[fd_p.index()] = fds.len();
    rows[att_p.index()] = attr_elem.len();
    rows[lh_p.index()] = fds.iter().map(|fd| fd.lhs.len()).sum();
    rows[rh_p.index()] = fds.len();
    let mut s = Structure::with_capacity(sig, dom, &rows);
    for &e in &attr_elem {
        s.insert(att_p, &[e]);
    }
    for (fd, &f) in fds.iter().zip(&fd_elem) {
        s.insert(fd_p, &[f]);
        for &b in &fd.lhs {
            s.insert(lh_p, &[attr_elem[b.index()], f]);
        }
        s.insert(rh_p, &[attr_elem[fd.rhs.index()], f]);
    }
    SchemaEncoding {
        structure: s,
        attr_elem,
        fd_elem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::example_2_1;
    use mdtw_decomp::{decompose, exact_treewidth, Heuristic, PrimalGraph};

    #[test]
    fn example_2_2_encoding() {
        let schema = example_2_1();
        let enc = encode_schema(&schema);
        let s = &enc.structure;
        // |A| = 6 attributes + 5 FDs.
        assert_eq!(s.domain().len(), 11);
        let att = s.signature().lookup("att").unwrap();
        let fd = s.signature().lookup("fd").unwrap();
        let lh = s.signature().lookup("lh").unwrap();
        let rh = s.signature().lookup("rh").unwrap();
        assert_eq!(s.relation(att).len(), 6);
        assert_eq!(s.relation(fd).len(), 5);
        // lh tuples from Example 2.2: 8 entries.
        assert_eq!(s.relation(lh).len(), 8);
        assert_eq!(s.relation(rh).len(), 5);
        // Spot checks: lh(a, f1), rh(c, f1).
        let a = enc.elem_of_attr(schema.attr("a").unwrap());
        let c = enc.elem_of_attr(schema.attr("c").unwrap());
        let f1 = enc.elem_of_fd(0);
        assert!(s.holds(lh, &[a, f1]));
        assert!(s.holds(rh, &[c, f1]));
    }

    #[test]
    fn example_2_2_treewidth_is_two() {
        // The paper proves tw(𝒜) = 2 for the running example.
        let schema = example_2_1();
        let enc = encode_schema(&schema);
        let g = PrimalGraph::of(&enc.structure);
        assert_eq!(exact_treewidth(&g), 2);
        // Heuristic decomposition achieves it and validates.
        let td = decompose(&enc.structure, Heuristic::MinFill);
        assert_eq!(td.validate(&enc.structure), Ok(()));
        assert_eq!(td.width(), 2);
    }

    #[test]
    fn reverse_lookups() {
        let schema = example_2_1();
        let enc = encode_schema(&schema);
        let b = schema.attr("b").unwrap();
        let e = enc.elem_of_attr(b);
        assert_eq!(enc.attr_of_elem(e), Some(b));
        assert_eq!(enc.fd_of_elem(e), None);
        let f3 = enc.elem_of_fd(2);
        assert_eq!(enc.fd_of_elem(f3), Some(2));
        assert_eq!(enc.attr_of_elem(f3), None);
    }
}
