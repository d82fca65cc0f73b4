//! Pins the decompositions the pipeline builds, node for node: the set
//! form from the elimination heuristics, the nice form of §5 and the tuple
//! form of Definition 2.3.
//!
//! Every node is hashed with FNV-1a: its kind (for the nice form with the
//! introduced or forgotten element), its bag, its children and its parent,
//! followed by the root. The nice inputs are the ones whose nice forms the
//! solvers consume:
//!
//! - the Example 2.1 schema and the Table 1 block-tree schema with 64 FDs,
//!   each rerooted at a bag of an attribute, augmented with FD right-hand
//!   sides and ranked (FDs above attributes) as the PRIMALITY context does,
//!   with and without §5.3 leaf coverage;
//! - seeded partial k-trees, k = 2–4, decomposed by min-fill as the
//!   Figure 5 pipeline does, with and without leaf coverage.
//!
//! The set-form inputs are the min-fill and min-degree decompositions of
//! those partial k-trees and of a seeded 1500-vertex random forest, and
//! the block-tree decomposition with 64 FDs rerooted at an attribute's bag
//! and then augmented, as `PrimalityContext::for_decision` does. The tuple
//! forms are those of the forest at widths 1–3, of a partial 2-tree at
//! widths 2–3 and of a two-node decomposition too small to pad from its
//! neighbours.
//!
//! The pinned values fix node ids, node order, kinds, bags and links: a
//! change to how the decompositions store or build their nodes must keep
//! them.

use mdtw_decomp::{
    augment_bags, decompose, Heuristic, NiceKind, NiceOptions, NiceTd, Tree, TreeDecomposition,
    TupleNodeKind, TupleTd,
};
use mdtw_graph::{encode_graph, partial_k_tree, Graph};
use mdtw_schema::{block_tree_instance, encode_schema, example_2_1, SchemaEncoding};
use mdtw_structure::ElemId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over a stream of `u32` words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The FNV-1a hash of every node of `td` in node order (the words `kind`
/// writes for its kind, then its bag, children and parent), then of the
/// root.
fn tree_hash<K: Copy>(td: &Tree<K>, kind: impl Fn(&mut Fnv, K)) -> u64 {
    let mut h = Fnv::new();
    h.word(td.len() as u32);
    for id in td.node_ids() {
        kind(&mut h, td.kind(id));
        let bag = td.bag(id);
        h.word(bag.len() as u32);
        bag.iter().for_each(|e| h.word(e.0));
        h.word(td.children(id).count() as u32);
        td.children(id).for_each(|c| h.word(c.0));
        h.word(td.parent(id).map_or(u32::MAX, |p| p.0));
    }
    h.word(td.root().0);
    h.0
}

/// The hash of a nice decomposition: each kind with the introduced or
/// forgotten element.
fn nice_hash(nice: &NiceTd) -> u64 {
    tree_hash(nice, |h, kind| match kind {
        NiceKind::Leaf => h.word(0),
        NiceKind::Introduce(a) => {
            h.word(1);
            h.word(a.0);
        }
        NiceKind::Forget(a) => {
            h.word(2);
            h.word(a.0);
        }
        NiceKind::Branch => h.word(3),
    })
}

/// The hash of a set-form decomposition, which has no kinds.
fn td_hash(td: &TreeDecomposition) -> u64 {
    tree_hash(td, |_, ()| {})
}

/// The hash of a tuple-form decomposition.
fn tuple_hash(td: &TupleTd) -> u64 {
    tree_hash(td, |h, kind| {
        h.word(match kind {
            TupleNodeKind::Leaf => 0,
            TupleNodeKind::Permutation => 1,
            TupleNodeKind::ElementReplacement => 2,
            TupleNodeKind::Branch => 3,
        });
    })
}

/// The seeded 200-vertex partial k-tree of the Figure 5 pins.
fn k_tree(k: usize) -> Graph {
    let mut rng = SmallRng::seed_from_u64(30 + k as u64);
    partial_k_tree(&mut rng, 200, k, 0.7).0
}

/// A seeded random forest on 1500 vertices (treewidth ≤ 1), with about
/// 450 isolated vertices, as in the τ_td workloads.
fn random_forest() -> Graph {
    let mut rng = SmallRng::seed_from_u64(23);
    let mut g = Graph::new(1500);
    for v in 1..1500 {
        if rng.random::<f64>() < 0.7 {
            let parent = rng.random_range(0..v);
            g.add_edge(parent, v);
        }
    }
    g
}

/// The PRIMALITY nice decompositions of `td`: rerooted at the first bag
/// holding `attr`, augmented with FD right-hand sides and ranked, without
/// and with leaf coverage.
fn primality_hashes(
    encoding: &SchemaEncoding,
    mut td: TreeDecomposition,
    attr: ElemId,
) -> [u64; 2] {
    let host = td
        .node_ids()
        .find(|&n| td.bag_contains(n, attr))
        .expect("attribute occurs in some bag");
    td.reroot(host);
    let s = &encoding.structure;
    let mut rhs: Vec<Option<ElemId>> = vec![None; s.domain().len()];
    for t in s.relation(s.signature().lookup("rh").expect("rh")).iter() {
        rhs[t[1].index()] = Some(t[0]);
    }
    augment_bags(&mut td, |e| rhs[e.index()]);
    let rank = |e: ElemId| u8::from(rhs[e.index()].is_some());
    [false, true].map(|every_elem_in_leaf| {
        let nice = NiceTd::from_td_with_rank(&td, NiceOptions { every_elem_in_leaf }, &rank);
        assert_eq!(nice.validate_nice_form(), Ok(()));
        nice_hash(&nice)
    })
}

#[test]
fn example_2_1_primality_nice_forms_are_pinned() {
    let schema = example_2_1();
    let encoding = encode_schema(&schema);
    let td = decompose(&encoding.structure, Heuristic::MinFill);
    let attr = encoding.elem_of_attr(schema.attr("d").expect("attribute d"));
    assert_eq!(
        primality_hashes(&encoding, td, attr),
        [12_699_915_392_198_274_645, 13_167_404_372_137_706_701]
    );
}

#[test]
fn block_tree_primality_nice_forms_are_pinned() {
    let inst = block_tree_instance(64);
    let attr = inst
        .encoding
        .elem_of_attr(inst.schema.attr("u37").expect("attribute u37"));
    assert_eq!(
        primality_hashes(&inst.encoding, inst.td, attr),
        [2_715_420_825_527_069_332, 6_697_116_964_347_974_016]
    );
}

#[test]
fn partial_k_tree_nice_forms_are_pinned() {
    let mut got = Vec::new();
    for k in 2..=4 {
        let td = decompose(&encode_graph(&k_tree(k)), Heuristic::MinFill);
        for every_elem_in_leaf in [false, true] {
            let nice = NiceTd::from_td(&td, NiceOptions { every_elem_in_leaf });
            assert_eq!(nice.validate_nice_form(), Ok(()));
            got.push(nice_hash(&nice));
        }
    }
    assert_eq!(
        got,
        [
            2_341_877_243_782_110_660,
            7_700_458_811_235_772_024,
            7_512_674_737_015_678_366,
            15_531_570_649_519_603_018,
            3_479_368_547_020_727_910,
            17_275_756_787_708_961_010,
        ]
    );
}

#[test]
fn heuristic_decompositions_are_pinned() {
    let mut got = Vec::new();
    for g in [k_tree(2), k_tree(3), k_tree(4), random_forest()] {
        let s = encode_graph(&g);
        for heuristic in [Heuristic::MinFill, Heuristic::MinDegree] {
            let td = decompose(&s, heuristic);
            assert_eq!(td.validate(&s), Ok(()));
            got.push(td_hash(&td));
        }
    }
    assert_eq!(
        got,
        [
            13_647_193_239_292_161_417,
            13_715_866_150_753_842_684,
            2_269_709_694_663_335_286,
            10_397_681_830_846_828_790,
            12_220_149_616_432_074_540,
            596_737_965_953_933_879,
            6_034_407_571_930_931_665,
            3_010_562_431_971_003_415,
        ]
    );
}

#[test]
fn rerooted_augmented_block_tree_is_pinned() {
    let inst = block_tree_instance(64);
    let attr = inst
        .encoding
        .elem_of_attr(inst.schema.attr("u37").expect("attribute u37"));
    let mut td = inst.td;
    let host = td
        .node_ids()
        .find(|&n| td.bag_contains(n, attr))
        .expect("attribute occurs in some bag");
    td.reroot(host);
    let s = &inst.encoding.structure;
    let mut rhs: Vec<Option<ElemId>> = vec![None; s.domain().len()];
    for t in s.relation(s.signature().lookup("rh").expect("rh")).iter() {
        rhs[t[1].index()] = Some(t[0]);
    }
    augment_bags(&mut td, |e| rhs[e.index()]);
    assert_eq!(td.validate(s), Ok(()));
    assert_eq!(td_hash(&td), 4_478_710_554_944_077_545);
}

#[test]
fn tuple_normal_forms_are_pinned() {
    let mut got = Vec::new();
    let forest = encode_graph(&random_forest());
    let td = decompose(&forest, Heuristic::MinDegree);
    for w in 1..=3 {
        let tuple = TupleTd::from_td_with_width(&td, forest.domain().len(), w).unwrap();
        assert_eq!(tuple.validate_normal_form(), Ok(()));
        assert_eq!(tuple.to_set_td().validate(&forest), Ok(()));
        got.push(tuple_hash(&tuple));
    }
    let k_tree = encode_graph(&k_tree(2));
    let td = decompose(&k_tree, Heuristic::MinFill);
    for w in 2..=3 {
        let tuple = TupleTd::from_td_with_width(&td, k_tree.domain().len(), w).unwrap();
        assert_eq!(tuple.validate_normal_form(), Ok(()));
        assert_eq!(tuple.to_set_td().validate(&k_tree), Ok(()));
        got.push(tuple_hash(&tuple));
    }
    // Two bags with two elements between them: padding to width 3 stalls
    // and adds the two smallest uncovered elements to every bag.
    let mut td = TreeDecomposition::singleton(vec![ElemId(1)]);
    td.add_child(td.root(), vec![ElemId(1), ElemId(3)]);
    let tuple = TupleTd::from_td_with_width(&td, 6, 3).unwrap();
    assert_eq!(tuple.validate_normal_form(), Ok(()));
    got.push(tuple_hash(&tuple));
    assert_eq!(
        got,
        [
            9_130_632_492_019_017_142,
            2_093_750_498_618_468_039,
            797_507_305_875_516_606,
            3_468_903_372_664_803_693,
            14_657_924_569_010_381_325,
            15_620_345_712_414_052_410,
        ]
    );
}
