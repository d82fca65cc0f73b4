//! Differential test of [`Domain`] against a reference model: the names
//! in a `Vec<String>` (element `e` is entry `e`) and their ids in a
//! `HashMap<String, ElemId>`.
//!
//! Names are strings over the fragments `a`, `é`, `日本`, `z9` and `\0`, so
//! the runs mix the empty name, multi-byte characters, names that are
//! prefixes of others and names that differ only by trailing zero bytes
//! (which the word-wise hash maps to the same value). Every case draws over twenty thousand operations
//! from a pool of sixty thousand names, so the domain holds over ten
//! thousand elements and its table grows many times.

use mdtw_structure::{Domain, ElemId};
use proptest::prelude::*;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The fragments names are built from.
const FRAGMENTS: [&str; 5] = ["a", "é", "日本", "z9", "\0"];

/// Name number `k`: the bijective base-5 digits of `k`, least significant
/// first, spelled with [`FRAGMENTS`]. Name 0 is empty; distinct numbers
/// give distinct names.
fn name(mut k: u32) -> String {
    let mut out = String::new();
    while k > 0 {
        k -= 1;
        out.push_str(FRAGMENTS[(k % 5) as usize]);
        k /= 5;
    }
    out
}

/// One operation on the domain and the reference.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u32),
    Intern(u32),
    Lookup(u32),
    /// Continue on a clone of the domain (and check the original is
    /// untouched by writes to the clone).
    Clone(u32),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0..8u8, 0..60_000u32), 20_000..=22_000).prop_map(|ops| {
        ops.into_iter()
            .map(|(kind, k)| match kind {
                0..=2 => Op::Insert(k),
                3..=4 => Op::Intern(k),
                5..=6 => Op::Lookup(k),
                _ if k % 500 == 0 => Op::Clone(k),
                _ => Op::Lookup(k),
            })
            .collect()
    })
}

/// The reference model.
#[derive(Default)]
struct Reference {
    names: Vec<String>,
    ids: HashMap<String, ElemId>,
}

impl Reference {
    fn add(&mut self, name: String) -> ElemId {
        let id = ElemId(self.names.len() as u32);
        self.ids.insert(name.clone(), id);
        self.names.push(name);
        id
    }
}

/// Checks `d` against the reference element by element.
fn assert_same(d: &Domain, reference: &Reference) {
    assert_eq!(d.len(), reference.names.len());
    assert_eq!(d.is_empty(), reference.names.is_empty());
    for (e, expect) in d.elems().zip(&reference.names) {
        assert_eq!(d.name(e), expect, "name of {e}");
        assert_eq!(d.lookup(expect), Some(e), "lookup of {expect:?}");
        assert!(d.contains(e));
    }
    assert!(!d.contains(ElemId(reference.names.len() as u32)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn domain_matches_the_vec_and_hash_map_reference(ops in arb_ops()) {
        let mut d = Domain::new();
        let mut reference = Reference::default();
        for op in ops {
            match op {
                Op::Insert(k) => {
                    let n = name(k);
                    if reference.ids.contains_key(&n) {
                        let err = catch_unwind(AssertUnwindSafe(|| d.insert(&n)))
                            .expect_err("duplicate insert panics");
                        let msg = err.downcast_ref::<String>().expect("formatted panic");
                        prop_assert!(msg.contains("inserted twice"), "{msg}");
                    } else {
                        prop_assert_eq!(d.insert(n.as_str()), reference.add(n));
                    }
                }
                Op::Intern(k) => {
                    let n = name(k);
                    let expect = match reference.ids.get(&n) {
                        Some(&id) => id,
                        None => reference.add(n.clone()),
                    };
                    prop_assert_eq!(d.intern(n), expect);
                }
                Op::Lookup(k) => {
                    let n = name(k);
                    prop_assert_eq!(d.lookup(&n), reference.ids.get(&n).copied());
                }
                Op::Clone(k) => {
                    let before = d.len();
                    let mut copy = d.clone();
                    let n = format!("{}#clone", name(k));
                    if reference.ids.contains_key(&n) {
                        continue;
                    }
                    prop_assert_eq!(copy.insert(n.as_str()), reference.add(n.clone()));
                    prop_assert_eq!(d.len(), before);
                    prop_assert_eq!(d.lookup(&n), None);
                    d = copy;
                }
            }
            prop_assert_eq!(d.len(), reference.names.len());
        }
        prop_assert!(reference.names.len() >= 10_000, "{} names", reference.names.len());
        assert_same(&d, &reference);
        assert_same(&d.clone(), &reference);
        let rebuilt = Domain::from_names(&reference.names);
        assert_same(&rebuilt, &reference);
    }
}

#[test]
fn empty_non_ascii_and_prefix_names_are_distinct() {
    let names = [
        "", "a", "aa", "aaa", "é", "éa", "日本", "日", "a\0", "b\0", "b", "z9",
    ];
    let d = Domain::from_names(names);
    for (i, n) in names.iter().enumerate() {
        assert_eq!(d.lookup(n), Some(ElemId(i as u32)));
        assert_eq!(d.name(ElemId(i as u32)), *n);
    }
    assert_eq!(d.lookup("aaaa"), None);
    assert_eq!(d.lookup("本"), None);
}
