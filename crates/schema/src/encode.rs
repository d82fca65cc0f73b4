//! Encoding a relational schema as a τ-structure with
//! τ = {fd, att, lh, rh} (paper §2.2, Example 2.2).

use crate::schema::{AttrId, Schema};
use mdtw_structure::{Domain, ElemId, Signature, Structure};
use std::fmt::Write;
use std::sync::Arc;

/// The encoded structure plus element maps for both universes.
///
/// [`encode_schema`] numbers the attributes first, in schema order, and
/// the FDs next, so element `i` is attribute `i` for `i < |R|` and FD
/// `i − |R|` after that; the reverse lookups rely on this numbering.
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
    #[inline]
    pub fn attr_of_elem(&self, e: ElemId) -> Option<AttrId> {
        (e.index() < self.attr_elem.len()).then_some(AttrId(e.0))
    }

    /// Reverse lookup: the FD index of a domain element, if it is one.
    #[inline]
    pub fn fd_of_elem(&self, e: ElemId) -> Option<usize> {
        e.index()
            .checked_sub(self.attr_elem.len())
            .filter(|&f| f < self.fd_elem.len())
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
/// `f2`, …; an FD name already taken by an attribute gets `'` appended
/// until it is free. The domain and the four relations are sized up
/// front, so the encoding makes a constant number of allocations.
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
            while dom.lookup(&name).is_some() {
                name.push('\'');
            }
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
    fn fd_names_skip_attribute_names() {
        // Attributes named like the generated FD elements.
        let mut schema = Schema::new();
        let f1 = schema.add_attr("f1");
        let f1p = schema.add_attr("f1'");
        let b = schema.add_attr("b");
        schema.add_fd(&[f1], b);
        schema.add_fd(&[b], f1p);
        let enc = encode_schema(&schema);
        let dom = enc.structure.domain();
        assert_eq!(dom.len(), 5);
        let names: Vec<&str> = (0..2).map(|f| dom.name(enc.elem_of_fd(f))).collect();
        assert_eq!(names, ["f1''", "f2"]);
        assert_eq!(dom.name(enc.elem_of_attr(f1)), "f1");
        let lh = enc.structure.signature().lookup("lh").unwrap();
        assert!(enc
            .structure
            .holds(lh, &[enc.elem_of_attr(f1), enc.elem_of_fd(0)]));
    }

    /// The reverse lookups against a scan of the element maps, on every
    /// element of the encoding.
    fn assert_lookups_match_the_scan(enc: &SchemaEncoding) {
        for e in enc.structure.domain().elems() {
            let attr = enc.attr_elem.iter().position(|&x| x == e);
            assert_eq!(enc.attr_of_elem(e), attr.map(|i| AttrId(i as u32)));
            assert_eq!(enc.fd_of_elem(e), enc.fd_elem.iter().position(|&x| x == e));
        }
        let past = ElemId(enc.structure.domain().len() as u32);
        assert_eq!((enc.attr_of_elem(past), enc.fd_of_elem(past)), (None, None));
    }

    #[test]
    fn reverse_lookups_match_the_element_maps() {
        use crate::generator::{block_tree_instance, random_schema, seeded_rng};
        let mut rng = seeded_rng(31);
        for (attrs, fds) in [(2, 0), (5, 3), (12, 20), (30, 7)] {
            assert_lookups_match_the_scan(&encode_schema(&random_schema(&mut rng, attrs, fds, 3)));
        }
        assert_lookups_match_the_scan(&block_tree_instance(8).encoding);
        let mut schema = Schema::new();
        let f1 = schema.add_attr("f1");
        let b = schema.add_attr("b");
        schema.add_fd(&[f1], b);
        assert_lookups_match_the_scan(&encode_schema(&schema));
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
