//! Storage invariants of [`Relation`] under random operation sequences:
//! `insert`, `retract`, `clear` and `index_on` on relations of arity 1–3,
//! some presized with [`Relation::with_capacity`], run in lockstep with a
//! `BTreeSet` model. After every operation the relation must pass
//! [`Relation::check_invariants`] (arena ↔ row table ↔ cached indexes),
//! report the model's answer and size, and every cached index must
//! return exactly the model's tuples for the operation's key.
//!
//! A second property pins what semi-naive evaluation reads a round's
//! delta by: rows appended after any insert/retract history land at the
//! end of every index bucket, in ascending order, so the bucket entries
//! at or past a row boundary are one `partition_point` away.

use mdtw_structure::{ElemId, Relation};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One operation: a kind selector and the element ids it uses.
type Op = (u8, u32, u32, u32);

/// The tuple of arity `arity` an operation names.
fn tuple_of(arity: usize, &(_, a, b, c): &Op) -> Vec<ElemId> {
    [a, b, c][..arity].iter().map(|&x| ElemId(x)).collect()
}

/// The index positions an operation asks for: a non-empty subset of
/// `0..arity`, chosen by `mask`, in an order chosen by `flip`.
fn positions_of(arity: usize, mask: u32, flip: u32) -> Vec<usize> {
    let mut positions: Vec<usize> = (0..arity).filter(|&p| mask >> p & 1 == 1).collect();
    if positions.is_empty() {
        positions.push(mask as usize % arity);
    }
    if flip % 2 == 1 {
        positions.reverse();
    }
    positions
}

/// Checks `rel` against `model`, and every index in `indexed` against
/// the model on the key that `probe` carries at the index's positions.
fn check(rel: &Relation, model: &BTreeSet<Vec<ElemId>>, indexed: &[Vec<usize>], probe: &[ElemId]) {
    rel.check_invariants();
    assert_eq!(rel.len(), model.len());
    let stored: BTreeSet<Vec<ElemId>> = rel.iter().map(<[ElemId]>::to_vec).collect();
    assert_eq!(&stored, model);
    for positions in indexed {
        let idx = rel.index_on(positions);
        let key: Vec<ElemId> = positions.iter().map(|&p| probe[p]).collect();
        let probed: BTreeSet<Vec<ElemId>> =
            rel.matching(&idx, &key).map(<[ElemId]>::to_vec).collect();
        let expected: BTreeSet<Vec<ElemId>> = model
            .iter()
            .filter(|t| positions.iter().zip(&key).all(|(&p, &k)| t[p] == k))
            .cloned()
            .collect();
        assert_eq!(probed, expected, "index on {positions:?}, key {key:?}");
        assert_eq!(
            rel.rows_matching(&idx, &key).len(),
            expected.len(),
            "a row is listed twice"
        );
    }
}

/// Runs `ops` on a relation of `arity` (presized for `presize` rows) and
/// on the model in lockstep.
fn run(arity: usize, presize: usize, ops: &[Op]) {
    let mut rel = Relation::with_capacity(arity, presize);
    let mut model: BTreeSet<Vec<ElemId>> = BTreeSet::new();
    let mut indexed: Vec<Vec<usize>> = Vec::new();
    for op in ops {
        let tuple = tuple_of(arity, op);
        match op.0 {
            0..=10 => assert_eq!(rel.insert(&tuple), model.insert(tuple.clone())),
            11..=16 => assert_eq!(rel.retract(&tuple), model.remove(&tuple)),
            17..=18 => {
                let positions = positions_of(arity, op.1, op.2);
                rel.index_on(&positions);
                if !indexed.contains(&positions) {
                    indexed.push(positions);
                }
            }
            _ => {
                // Clearing drops the cached indexes.
                rel.clear();
                model.clear();
                indexed.clear();
            }
        }
        assert_eq!(rel.contains(&tuple), model.contains(&tuple));
        check(&rel, &model, &indexed, &tuple);
    }
}

/// Operations over a domain of `dom` elements: mostly inserts, so the
/// relation grows through several row-table sizes, with retracts
/// interleaved and a rare clear.
fn arb_ops(dom: u32) -> impl Strategy<Value = Vec<Op>> {
    vec((0u8..20, 0..dom, 0..dom, 0..dom), 0..300)
}

/// The key cells of `row` at `positions`.
fn key_of(rel: &Relation, positions: &[usize], row: u32) -> Vec<ElemId> {
    let tuple = rel.tuple(row);
    positions.iter().map(|&p| tuple[p]).collect()
}

/// Runs the insert/retract/index `history` on a relation of `arity`,
/// records `lo = len()`, then inserts the tuples of `appended` (or, for
/// an index kind, builds that index). After every step the relation must
/// pass its invariants, and in every bucket of every cached index the
/// entries `≥ lo` must be exactly the appended rows with the bucket's
/// key, in ascending order and after every entry `< lo` — however the
/// history's retracts reordered the bucket's prefix.
fn run_appends(arity: usize, history: &[Op], appended: &[Op]) {
    let mut rel = Relation::new(arity);
    let mut indexed: Vec<Vec<usize>> = Vec::new();
    let index = |rel: &Relation, op: &Op, indexed: &mut Vec<Vec<usize>>| {
        let positions = positions_of(arity, op.1, op.2);
        rel.index_on(&positions);
        if !indexed.contains(&positions) {
            indexed.push(positions);
        }
    };
    for op in history {
        let tuple = tuple_of(arity, op);
        match op.0 {
            0..=10 => {
                rel.insert(&tuple);
            }
            11..=16 => {
                rel.retract(&tuple);
            }
            _ => index(&rel, op, &mut indexed),
        }
        rel.check_invariants();
    }
    let lo = rel.len() as u32;
    for op in appended {
        if op.0 < 17 {
            let (row, new) = rel.insert_row(&tuple_of(arity, op));
            assert!(
                !new || row as usize == rel.len() - 1,
                "a new row is the last"
            );
        } else {
            index(&rel, op, &mut indexed);
        }
        rel.check_invariants();
        for positions in &indexed {
            let idx = rel.index_on(positions);
            for bucket in idx.buckets() {
                let key = key_of(&rel, positions, bucket[0]);
                let cut = bucket.partition_point(|&r| r < lo);
                assert!(
                    bucket[..cut].iter().all(|&r| r < lo),
                    "index on {positions:?}: an appended row precedes an older one in {bucket:?}"
                );
                let expected: Vec<u32> = (lo..rel.len() as u32)
                    .filter(|&r| key_of(&rel, positions, r) == key)
                    .collect();
                assert_eq!(
                    &bucket[cut..],
                    expected.as_slice(),
                    "index on {positions:?}, key {key:?}: the suffix past row {lo}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Appends after a random history form each bucket's ascending
    /// suffix. A dense domain makes retracts reorder shared buckets.
    #[test]
    fn appended_rows_form_each_buckets_ascending_suffix(
        arity in 1usize..=3,
        (history, appended) in (2u32..6).prop_flat_map(|dom| {
            let op = || (0u8..20, 0..dom, 0..dom, 0..dom);
            (vec(op(), 0..200), vec(op(), 0..80))
        }),
    ) {
        run_appends(arity, &history, &appended);
    }

    #[test]
    fn relation_matches_set_model(
        arity in 1usize..=3,
        presize in 0usize..80,
        ops in (2u32..40).prop_flat_map(arb_ops),
    ) {
        run(arity, presize, &ops);
    }

    /// A small domain: duplicates, shared index keys and emptied key
    /// buckets are frequent.
    #[test]
    fn relation_matches_set_model_on_a_dense_domain(
        arity in 1usize..=3,
        ops in (2u32..5).prop_flat_map(arb_ops),
    ) {
        run(arity, 0, &ops);
    }
}
