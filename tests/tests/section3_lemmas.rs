//! Empirical verification of the paper's §3 lemmas on induced
//! substructures: the k-type of the structure induced by a subtree `S_s`
//! is fully determined by the child types plus the bag-local data.
//!
//! The lemmas are proved by Ehrenfeucht–Fraïssé games in the paper; here
//! they are *checked* on concrete structures by computing rank-k types of
//! the induced substructures directly (mdtw-mso's type machinery).

use mdtw_decomp::{NodeId, TupleNodeKind, TupleTd};
use mdtw_graph::{encode_graph, partial_k_tree};
use mdtw_mso::TypeInterner;
use mdtw_structure::{ElemId, Structure};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Materializes `I(𝒜, S_s, s)`: the substructure induced by the union of
/// the bags in the subtree rooted at `s`, with the bag of `s`
/// distinguished. Returns the structure and the remapped bag.
fn induced_subtree(structure: &Structure, td: &TupleTd, s: NodeId) -> (Structure, Vec<ElemId>) {
    // Collect the subtree's elements.
    let mut live = vec![false; structure.domain().len()];
    let mut stack = vec![s];
    while let Some(node) = stack.pop() {
        for &e in td.bag(node) {
            live[e.index()] = true;
        }
        stack.extend(td.children(node));
    }
    let view = structure.induced(&|e: ElemId| live[e.index()]);
    let (owned, map) = view.materialize();
    let bag = td.bag(s).iter().map(|e| map[e]).collect();
    (owned, bag)
}

/// The rank-k types of every node's induced substructure.
fn subtree_types(
    structure: &Structure,
    td: &TupleTd,
    ti: &mut TypeInterner,
    k: usize,
) -> Vec<mdtw_mso::TypeId> {
    td.node_ids()
        .map(|s| {
            let (sub, bag) = induced_subtree(structure, td, s);
            ti.fo_type_of(&sub, &bag, k)
        })
        .collect()
}

/// Lemma 3.5, checked contrapositively on one structure: whenever two
/// nodes of the same kind have ≡ᵏ child subtrees and identical bag-local
/// data, their own subtrees are ≡ᵏ.
fn check_lemma_3_5(structure: &Structure, td: &TupleTd, k: usize) {
    let mut ti = TypeInterner::new();
    let types = subtree_types(structure, td, &mut ti, k);
    let nodes: Vec<NodeId> = td.node_ids().collect();
    for &s in &nodes {
        for &t in &nodes {
            if s == t || td.kind(s) != td.kind(t) {
                continue;
            }
            match td.kind(s) {
                TupleNodeKind::Permutation | TupleNodeKind::ElementReplacement => {
                    let cs = td.children(s).next().expect("one child");
                    let ct = td.children(t).next().expect("one child");
                    // Premises: equivalent child subtrees, identical
                    // relative bag arrangement (we require the full
                    // two-bag diagram to coincide).
                    if types[cs.index()] != types[ct.index()] {
                        continue;
                    }
                    let mut ext_s: Vec<ElemId> = td.bag(s).to_vec();
                    ext_s.extend_from_slice(td.bag(cs));
                    let mut ext_t: Vec<ElemId> = td.bag(t).to_vec();
                    ext_t.extend_from_slice(td.bag(ct));
                    let (sub_s, _) = induced_subtree(structure, td, s);
                    let (sub_t, _) = induced_subtree(structure, td, t);
                    let _ = (sub_s, sub_t);
                    // Bag-diagram premise on the *original* structure:
                    if !structure.bags_equivalent(&ext_s, structure, &ext_t) {
                        continue;
                    }
                    // Permutation premise: identical index mapping
                    // between parent and child tuples.
                    let perm_s: Vec<Option<usize>> = td
                        .bag(s)
                        .iter()
                        .map(|e| td.bag(cs).iter().position(|x| x == e))
                        .collect();
                    let perm_t: Vec<Option<usize>> = td
                        .bag(t)
                        .iter()
                        .map(|e| td.bag(ct).iter().position(|x| x == e))
                        .collect();
                    if perm_s != perm_t {
                        continue;
                    }
                    assert_eq!(
                        types[s.index()],
                        types[t.index()],
                        "Lemma 3.5 violated at {s} vs {t}"
                    );
                }
                TupleNodeKind::Branch => {
                    let (mut sc, mut tc) = (td.children(s), td.children(t));
                    let (Some(s1), Some(s2), Some(t1), Some(t2)) =
                        (sc.next(), sc.next(), tc.next(), tc.next())
                    else {
                        unreachable!("branch nodes have two children")
                    };
                    let matched = (types[s1.index()] == types[t1.index()]
                        && types[s2.index()] == types[t2.index()])
                        || (types[s1.index()] == types[t2.index()]
                            && types[s2.index()] == types[t1.index()]);
                    if !matched {
                        continue;
                    }
                    assert_eq!(
                        types[s.index()],
                        types[t.index()],
                        "Lemma 3.5 (branch) violated at {s} vs {t}"
                    );
                }
                TupleNodeKind::Leaf => {}
            }
        }
    }
}

#[test]
fn lemma_3_5_holds_on_random_partial_k_trees() {
    let mut rng = SmallRng::seed_from_u64(314);
    for i in 0..6 {
        let (g, td) = partial_k_tree(&mut rng, 8 + i, 2, 0.7);
        let s = encode_graph(&g);
        let tuple_td = TupleTd::from_td(&td, s.domain().len()).unwrap();
        for k in 0..=1 {
            check_lemma_3_5(&s, &tuple_td, k);
        }
    }
}

#[test]
fn leaf_types_are_determined_by_bag_diagram() {
    // Degenerate case of the base construction in Theorem 4.5: two leaves
    // whose bags carry the same atomic diagram induce ≡ᵏ substructures
    // (leaf subtrees *are* their bags).
    let mut rng = SmallRng::seed_from_u64(42);
    let (g, td) = partial_k_tree(&mut rng, 10, 2, 0.6);
    let s = encode_graph(&g);
    let tuple_td = TupleTd::from_td(&td, s.domain().len()).unwrap();
    let mut ti = TypeInterner::new();
    let types = subtree_types(&s, &tuple_td, &mut ti, 1);
    let leaves = tuple_td.leaves();
    for &a in &leaves {
        for &b in &leaves {
            if s.bags_equivalent(tuple_td.bag(a), &s, tuple_td.bag(b)) {
                assert_eq!(types[a.index()], types[b.index()]);
            }
        }
    }
}

#[test]
fn subtree_of_root_is_whole_structure() {
    // Sanity for the harness itself: the root's induced substructure has
    // the full domain.
    let mut rng = SmallRng::seed_from_u64(5);
    let (g, td) = partial_k_tree(&mut rng, 9, 2, 0.8);
    let s = encode_graph(&g);
    let tuple_td = TupleTd::from_td(&td, s.domain().len()).unwrap();
    let (sub, bag) = induced_subtree(&s, &tuple_td, tuple_td.root());
    assert_eq!(sub.domain().len(), s.domain().len());
    assert_eq!(bag.len(), tuple_td.width() + 1);
    assert_eq!(sub.atom_count(), s.atom_count());
}
