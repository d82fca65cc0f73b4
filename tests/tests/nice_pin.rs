//! Pins the nice decompositions the pipeline builds, node for node.
//!
//! Every nice node is hashed with FNV-1a: its kind (with the introduced or
//! forgotten element), its bag, its children and its parent, followed by
//! the root. The inputs are the ones whose nice forms the solvers consume:
//!
//! - the Example 2.1 schema and the Table 1 block-tree schema with 64 FDs,
//!   each rerooted at a bag of an attribute, augmented with FD right-hand
//!   sides and ranked (FDs above attributes) as the PRIMALITY context does,
//!   with and without §5.3 leaf coverage;
//! - seeded partial k-trees, k = 2–4, decomposed by min-fill as the
//!   Figure 5 pipeline does, with and without leaf coverage.
//!
//! The pinned values fix node ids, node order, kinds, bags and links: a
//! change to how `NiceTd` stores or builds its nodes must keep them.

use mdtw_decomp::{
    augment_bags, decompose, Heuristic, NiceKind, NiceOptions, NiceTd, TreeDecomposition,
};
use mdtw_graph::{encode_graph, partial_k_tree};
use mdtw_schema::{block_tree_instance, encode_schema, example_2_1, SchemaEncoding};
use mdtw_structure::ElemId;
use rand::rngs::SmallRng;
use rand::SeedableRng;

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

/// The FNV-1a hash of every node of `nice` in node order (kind, bag,
/// children, parent), then of the root.
fn nice_hash(nice: &NiceTd) -> u64 {
    let mut h = Fnv::new();
    h.word(nice.len() as u32);
    for id in nice.node_ids() {
        match nice.kind(id) {
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
        }
        let bag = nice.bag(id);
        h.word(bag.len() as u32);
        bag.iter().for_each(|e| h.word(e.0));
        let children = nice.children(id);
        h.word(children.len() as u32);
        children.iter().for_each(|c| h.word(c.0));
        h.word(nice.parent(id).map_or(u32::MAX, |p| p.0));
    }
    h.word(nice.root().0);
    h.0
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
        let mut rng = SmallRng::seed_from_u64(30 + k as u64);
        let (g, _) = partial_k_tree(&mut rng, 200, k, 0.7);
        let td = decompose(&encode_graph(&g), Heuristic::MinFill);
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
