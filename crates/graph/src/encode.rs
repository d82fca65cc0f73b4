//! Encoding graphs as τ-structures with τ = {e} (paper §5.1).

use crate::graph::Graph;
use mdtw_structure::{Domain, ElemId, Signature, Structure};
use std::fmt::Write;
use std::sync::Arc;

/// The signature τ = {e} with a binary edge relation.
pub fn graph_signature() -> Signature {
    Signature::from_pairs([("e", 2)])
}

/// Encodes an undirected graph: vertex `v` becomes element `v`, and each
/// edge contributes both `e(u, v)` and `e(v, u)` (the paper's MSO sentence
/// quantifies over ordered pairs, and symmetric storage keeps the datalog
/// programs free of orientation case splits). Vertex `v` is named `v{v}`;
/// the domain and the edge relation are sized up front.
pub fn encode_graph(g: &Graph) -> Structure {
    let sig = Arc::new(graph_signature());
    // `v0`, `v1`, …: one letter and the digits of the vertex number.
    let name_bytes = (0..g.len())
        .map(|i| 2 + i.checked_ilog10().unwrap_or(0) as usize)
        .sum();
    let mut dom = Domain::with_capacity(g.len(), name_bytes);
    let mut name = String::new();
    for i in 0..g.len() {
        name.clear();
        write!(name, "v{i}").expect("writing to a String cannot fail");
        dom.insert(&name);
    }
    let mut s = Structure::with_capacity(sig, dom, &[2 * g.edge_count()]);
    let e = s.signature().lookup("e").unwrap();
    for (a, b) in g.edges() {
        s.insert(e, &[ElemId(a), ElemId(b)]);
        s.insert(e, &[ElemId(b), ElemId(a)]);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::cycle;
    use mdtw_decomp::{decompose, Heuristic};

    #[test]
    fn symmetric_encoding() {
        let g = cycle(4);
        let s = encode_graph(&g);
        let e = s.signature().lookup("e").unwrap();
        assert_eq!(s.relation(e).len(), 8);
        assert!(s.holds(e, &[ElemId(0), ElemId(1)]));
        assert!(s.holds(e, &[ElemId(1), ElemId(0)]));
        assert!(!s.holds(e, &[ElemId(0), ElemId(2)]));
    }

    #[test]
    fn heuristic_decomposition_of_cycle() {
        let g = cycle(8);
        let s = encode_graph(&g);
        let td = decompose(&s, Heuristic::MinDegree);
        assert_eq!(td.validate(&s), Ok(()));
        assert_eq!(td.width(), 2);
    }
}
