//! Finite τ-structures: a domain plus one relation per predicate symbol.
//!
//! # Tuple representation: arenas and row ids
//!
//! A [`Relation`] of arity α stores its tuples in one flat `Vec<ElemId>`
//! *arena*: the tuple with row id `r` occupies cells `r·α .. (r+1)·α`.
//! Tuples are never boxed individually; every internal map is keyed by
//! integers:
//!
//! * deduplication uses an open-addressing [`RowTable`] whose slots hold
//!   row ids — membership hashes the probe tuple's `u32` element ids and
//!   compares against the arena in place, allocating nothing. Each slot
//!   carries a one-byte tag from its row's hash, so a probe reads the
//!   arena only at slots whose tag matches; an insert finds a duplicate or
//!   claims a free slot in the same single probe, and growth rebuilds the
//!   table from the dense row ids `0..len` in arena order;
//! * a secondary index ([`PosIndex`]) maps the values at fixed argument
//!   positions to row buckets. Keys are not materialized either: a
//!   single-position key hashes the `ElemId` directly, a multi-position
//!   key hashes the packed sequence of `u32` ids, and collisions are
//!   resolved by comparing the probe key with the key positions of a
//!   bucket's representative row in the arena.
//!
//! Rows are *swap-remove compact*: [`Relation::insert`] appends, and
//! [`Relation::retract`] removes a row by moving the last row into its
//! slot (backward-shift deletion keeps the [`RowTable`] tombstone-free,
//! and every cached [`PosIndex`] is patched in place), so row ids stay
//! dense. An `Arc<PosIndex>` snapshot taken before an *insert* remains a
//! consistent view of the pre-insert relation (see
//! [`Relation::index_on`]); a retract — like [`Relation::clear`] —
//! invalidates held snapshots, because the swap renumbers a row id.
//! Every mutation of the tuple set bumps [`Relation::generation`], so
//! incremental consumers can detect churn without diffing contents.
//!
//! A [`Structure`] holds its relations behind `Arc`s shared
//! copy-on-write: cloning or [extending](Structure::extended) a structure
//! bumps one reference count per predicate, reads and duplicate inserts
//! never un-share, and the first genuine write deep-copies only the
//! written relation. This makes `Structure::extended` (the stratified
//! evaluator's materialization substrate) linear in the number of *new*
//! predicates — while a bare [`Relation`] (an evaluator's store of
//! derived facts) stays a plain value with no per-insert atomics.

use crate::domain::{Domain, ElemId};
use crate::fx::{FxHashMap, FxHasher};
use crate::signature::{PredId, Signature};
use std::fmt;
use std::hash::Hasher;
use std::sync::{Arc, RwLock};

/// A ground atom `R(a₁, …, a_α)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroundAtom {
    /// The predicate symbol.
    pub pred: PredId,
    /// The argument tuple.
    pub args: Box<[ElemId]>,
}

impl GroundAtom {
    /// Creates a ground atom.
    pub fn new(pred: PredId, args: impl Into<Box<[ElemId]>>) -> Self {
        Self {
            pred,
            args: args.into(),
        }
    }
}

/// Hashes a sequence of element ids with the workspace [`FxHasher`]. A
/// one-element sequence hashes the `ElemId` directly; longer sequences
/// fold the packed `u32` ids into the 64-bit hash state — no key is ever
/// materialized on the heap.
#[inline]
fn hash_elems(elems: impl IntoIterator<Item = ElemId>) -> u64 {
    let mut h = FxHasher::default();
    for e in elems {
        h.write_u32(e.0);
    }
    h.finish()
}

/// A dense id for the `n`-th value of a [`RowTable`] user (a row of a
/// relation, a key bucket of an index). Ids are `u32` and stay below
/// `u32::MAX`, so that a count of them fits a `u32` as well.
///
/// # Panics
/// Panics if `n ≥ u32::MAX`, with a message naming the limit and `what`
/// was counted.
#[inline]
fn dense_id(n: usize, what: &str) -> u32 {
    match u32::try_from(n) {
        Ok(id) if id != u32::MAX => id,
        _ => panic!("more than u32::MAX − 1 = {} {what}", u32::MAX - 1),
    }
}

/// An open-addressing hash table whose slots hold bare `u32` values (row
/// ids, bucket ids for [`PosIndex`], or element ids for a [`Domain`]'s
/// names). The table stores no keys: callers supply the hash and an
/// equality predicate that compares against the owner's arena, so probes
/// and inserts allocate nothing.
///
/// Next to each slot the table keeps a one-byte *tag*: the top byte of
/// the stored value's hash (never 0), or 0 for a free slot. A probe walks
/// the tag bytes and calls the caller's equality only where the tag
/// matches, so the occupied slots it passes cost no read of the arena
/// unless their tag agrees (about one in 255 of them). The key comparison
/// itself is never skipped.
///
/// Every user keeps its values *dense*: a relation's row ids, an index's
/// bucket ids and a domain's element ids are always `0..len`. The table relies on that: a new
/// value is `len` ([`RowTable::find_or_insert`]), and growth re-places the
/// values `0..len` in order, so rehashing reads the arena front to back
/// instead of in slot order.
#[derive(Debug, Clone, Default)]
pub(crate) struct RowTable {
    /// Power-of-two slot array; a slot's value is meaningful only where
    /// its tag is not [`RowTable::FREE`].
    slots: Vec<u32>,
    /// One tag per slot.
    tags: Vec<u8>,
    len: usize,
}

impl RowTable {
    /// The tag of a free slot.
    const FREE: u8 = 0;

    /// A table that holds `n` values without growing: the capacity that
    /// inserting them one by one would reach.
    pub(crate) fn with_capacity(n: usize) -> Self {
        if n == 0 {
            return Self::default();
        }
        let mut cap = 8;
        while Self::full(n - 1, cap) {
            cap *= 2;
        }
        Self {
            slots: vec![0; cap],
            tags: vec![Self::FREE; cap],
            len: 0,
        }
    }

    /// True when a table of `cap` slots holding `len` values must grow
    /// before the next insert: the load limit is 7/8, so a free slot
    /// always ends a probe. Covers the empty table (0 ≥ 0).
    #[inline]
    fn full(len: usize, cap: usize) -> bool {
        len * 8 >= cap * 7
    }

    /// The tag of `hash`: its top byte, with 0 (free) folded into 1.
    #[inline]
    fn tag(hash: u64) -> u8 {
        ((hash >> 56) as u8).max(1)
    }

    /// Walks `hash`'s probe chain in a table with slots: `Ok(slot)` for
    /// the first slot whose tag matches and whose value satisfies `eq`,
    /// `Err(slot)` for the free slot that ends the chain (the load limit
    /// guarantees one).
    #[inline]
    fn probe(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Result<usize, usize> {
        let mask = self.tags.len() - 1;
        let tag = Self::tag(hash);
        let mut i = (hash as usize) & mask;
        loop {
            let t = self.tags[i];
            if t == Self::FREE {
                return Err(i);
            }
            if t == tag && eq(self.slots[i]) {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Finds the stored value matching `hash` + `eq` via linear probing.
    #[inline]
    pub(crate) fn find(&self, hash: u64, eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.tags.is_empty() {
            return None;
        }
        self.probe(hash, eq).ok().map(|i| self.slots[i])
    }

    /// Finds the stored value matching `hash` + `eq`, or else stores the
    /// next dense value `len` in the free slot that ended the probe: one
    /// probe chain either way. Returns the value and whether it is new.
    /// `rehash` recomputes the hash of a stored value when the table has
    /// to grow; it is called for the values `0..len` only, so the caller
    /// need not have stored the new value's key yet.
    ///
    /// # Panics
    /// Panics if the table already holds `u32::MAX` values (see
    /// [`dense_id`]; `what` names them).
    #[inline]
    pub(crate) fn find_or_insert(
        &mut self,
        hash: u64,
        eq: impl FnMut(u32) -> bool,
        rehash: impl FnMut(u32) -> u64,
        what: &str,
    ) -> (u32, bool) {
        let free = if self.tags.is_empty() {
            None
        } else {
            match self.probe(hash, eq) {
                Ok(i) => return (self.slots[i], false),
                Err(i) => Some(i),
            }
        };
        let value = dense_id(self.len, what);
        let i = match free {
            Some(i) if !Self::full(self.len, self.tags.len()) => i,
            _ => {
                self.grow(rehash);
                self.free_slot(hash)
            }
        };
        self.slots[i] = value;
        self.tags[i] = Self::tag(hash);
        self.len += 1;
        (value, true)
    }

    /// Doubles the slot array (to 8 slots at least) and re-places the
    /// dense values `0..len`.
    fn grow(&mut self, mut rehash: impl FnMut(u32) -> u64) {
        let cap = (self.tags.len() * 2).max(8);
        self.slots = vec![0; cap];
        self.tags = vec![Self::FREE; cap];
        for v in 0..self.len as u32 {
            let hash = rehash(v);
            let i = self.free_slot(hash);
            self.slots[i] = v;
            self.tags[i] = Self::tag(hash);
        }
    }

    /// The first free slot of `hash`'s probe chain.
    fn free_slot(&self, hash: u64) -> usize {
        let mask = self.tags.len() - 1;
        let mut i = (hash as usize) & mask;
        while self.tags[i] != Self::FREE {
            i = (i + 1) & mask;
        }
        i
    }

    /// Removes the stored value matching `hash` + `eq`, compacting its
    /// probe chain by backward-shift deletion (no tombstones: each
    /// following value moves, with its tag, into the hole iff the hole
    /// lies cyclically between the value's ideal slot and its current
    /// slot, which is exactly the invariant linear probing needs).
    /// `rehash` recomputes the hash of a stored value during the shift.
    /// Returns the removed value, or `None` if no value matched.
    fn remove(
        &mut self,
        hash: u64,
        eq: impl FnMut(u32) -> bool,
        mut rehash: impl FnMut(u32) -> u64,
    ) -> Option<u32> {
        if self.tags.is_empty() {
            return None;
        }
        let mut hole = self.probe(hash, eq).ok()?;
        let removed = self.slots[hole];
        let mask = self.tags.len() - 1;
        // The load limit leaves a free slot, which terminates the walk.
        let mut j = (hole + 1) & mask;
        while self.tags[j] != Self::FREE {
            let v = self.slots[j];
            let ideal = (rehash(v) as usize) & mask;
            if hole.wrapping_sub(ideal) & mask <= j.wrapping_sub(ideal) & mask {
                self.slots[hole] = v;
                self.tags[hole] = self.tags[j];
                hole = j;
            }
            j = (j + 1) & mask;
        }
        self.tags[hole] = Self::FREE;
        self.len -= 1;
        Some(removed)
    }

    /// Rewrites the stored value `old` to `new` in place. The caller
    /// guarantees `old` is present and that `new` has the same content —
    /// and therefore the same `hash` — as `old` (the swap-remove row/bucket
    /// renumbering protocol), so neither the slot nor its tag moves.
    fn replace(&mut self, hash: u64, old: u32, new: u32) {
        let i = self
            .probe(hash, |v| v == old)
            .expect("renumbered value must be in its probe chain");
        self.slots[i] = new;
    }

    fn clear(&mut self) {
        // An empty table may still have a large retained capacity (e.g. a
        // recycled relation that was once large): skip the
        // tag memset entirely so clearing an already-empty table is O(1)
        // no matter its high-water mark.
        if self.len > 0 {
            self.tags.fill(Self::FREE);
            self.len = 0;
        }
    }

    /// Checks that the table holds exactly the dense values `0..n`, each
    /// found by a probe for its own hash (`hash_of`) under its own tag,
    /// with `same(a, b)` the content equality probes use: so no two values
    /// share content either. Also checks the slot arrays' shape and the
    /// load limit. Returns the first violation found.
    pub(crate) fn check_dense(
        &self,
        n: usize,
        hash_of: impl Fn(u32) -> u64,
        same: impl Fn(u32, u32) -> bool,
    ) -> Result<(), String> {
        let cap = self.tags.len();
        if self.slots.len() != cap || !(cap == 0 || cap.is_power_of_two() && cap >= 8) {
            return Err(format!(
                "{} slots and {cap} tags (want equal powers of two ≥ 8)",
                self.slots.len()
            ));
        }
        let occupied = self.tags.iter().filter(|&&t| t != Self::FREE).count();
        if occupied != self.len || self.len != n {
            return Err(format!(
                "{occupied} occupied slots, len {}, {n} values",
                self.len
            ));
        }
        if let Some(i) =
            (0..cap).find(|&i| self.tags[i] != Self::FREE && self.slots[i] as usize >= n)
        {
            return Err(format!(
                "slot {i} holds value {}, not below {n}",
                self.slots[i]
            ));
        }
        if n > 0 && n * 8 > cap * 7 {
            return Err(format!(
                "{n} values in {cap} slots exceed the 7/8 load limit"
            ));
        }
        for v in 0..n as u32 {
            match self.find(hash_of(v), |w| same(w, v)) {
                Some(w) if w == v => {}
                Some(w) => return Err(format!("values {w} and {v} have the same content")),
                None => return Err(format!("value {v} is not found under its hash and tag")),
            }
        }
        Ok(())
    }
}

/// A secondary hash index over a [`Relation`]: maps the values at a fixed
/// set of argument positions (the *key positions*) to the rows of every
/// tuple carrying those values. Built lazily by [`Relation::index_on`] and
/// kept current by [`Relation::insert`], so join engines can probe
/// `R(…, a, …)` without scanning `R`.
///
/// Keys are integers all the way down: the hash of a key is the packed
/// hash of its `u32` element ids and the index stores only row buckets —
/// a probe key is compared against the key positions of a bucket's
/// representative row in the relation's arena. Because the comparison
/// needs the arena, lookups go through [`Relation::rows_matching`] /
/// [`Relation::matching`] rather than the index alone.
///
/// A bucket lists its rows in insertion order until a retract
/// swap-removes one, which moves rows that already exist. A row inserted
/// later gets the next row id and is appended. So if the relation has
/// only grown since its length was `lo`, the entries `≥ lo` of every
/// bucket are the rows inserted since, at the bucket's end and in
/// ascending order: semi-naive evaluation reads a round's delta through
/// a probe as that suffix.
#[derive(Debug, Clone, Default)]
pub struct PosIndex {
    positions: Box<[usize]>,
    /// Maps key hashes to indices into `buckets`.
    table: RowTable,
    /// Rows sharing a key, in first-seen key order.
    buckets: Vec<Vec<u32>>,
}

impl PosIndex {
    /// The indexed argument positions, in key order.
    #[inline]
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.buckets.len()
    }

    /// Iterates over the row buckets (one per distinct key, in first-seen
    /// key order). Used for selectivity estimates and uniqueness checks;
    /// resolve rows with [`Relation::tuple`].
    pub fn buckets(&self) -> impl Iterator<Item = &[u32]> {
        self.buckets.iter().map(Vec::as_slice)
    }

    /// The key values of `row` in `arena`, as an id iterator.
    #[inline]
    fn key_of_row<'a>(
        &'a self,
        arena: &'a [ElemId],
        arity: usize,
        row: u32,
    ) -> impl Iterator<Item = ElemId> + 'a {
        let base = row as usize * arity;
        self.positions.iter().map(move |&p| arena[base + p])
    }

    /// Rows whose key equals `key` (empty if none). `arena`/`arity` must
    /// come from the owning relation.
    #[inline]
    fn rows_in<'i>(&'i self, arena: &[ElemId], arity: usize, key: &[ElemId]) -> &'i [u32] {
        debug_assert_eq!(key.len(), self.positions.len());
        let hash = hash_elems(key.iter().copied());
        self.table
            .find(hash, |b| {
                self.key_of_row(arena, arity, self.buckets[b as usize][0])
                    .eq(key.iter().copied())
            })
            .map_or(&[], |b| self.buckets[b as usize].as_slice())
    }

    /// Registers `row` (whose tuple lives at `row·arity` in `arena`).
    ///
    /// # Panics
    /// Panics if a new key would be the index's `u32::MAX`-th (which
    /// cannot happen while its relation stays below that many rows).
    fn add(&mut self, arena: &[ElemId], arity: usize, row: u32) {
        let hash = hash_elems(self.key_of_row(arena, arity, row));
        let row_base = row as usize * arity;
        let (buckets, positions) = (&self.buckets, &self.positions);
        let key_cell = |b: u32, p: usize| arena[buckets[b as usize][0] as usize * arity + p];
        let (b, new) = self.table.find_or_insert(
            hash,
            |b| {
                positions
                    .iter()
                    .all(|&p| key_cell(b, p) == arena[row_base + p])
            },
            |b| hash_elems(positions.iter().map(|&p| key_cell(b, p))),
            "distinct keys in one index",
        );
        if new {
            self.buckets.push(vec![row]);
        } else {
            self.buckets[b as usize].push(row);
        }
    }

    /// Checks the index against its relation's `arena` of `rows` rows:
    /// the key table holds exactly the dense bucket ids, each under its
    /// key's hash and tag, and every row lies in exactly one bucket, whose
    /// key it carries. Returns the first violation found.
    fn check(&self, arena: &[ElemId], arity: usize, rows: usize) -> Result<(), String> {
        if let Some(b) = self.buckets.iter().position(Vec::is_empty) {
            return Err(format!("bucket {b} is empty"));
        }
        let rep = |b: u32| self.buckets[b as usize][0];
        let same_key = |r: u32, s: u32| {
            self.key_of_row(arena, arity, r)
                .eq(self.key_of_row(arena, arity, s))
        };
        let mut seen = vec![false; rows];
        for (b, bucket) in self.buckets.iter().enumerate() {
            for &r in bucket {
                if r as usize >= rows || std::mem::replace(&mut seen[r as usize], true) {
                    return Err(format!("row {r} is out of range or in two buckets"));
                }
                if !same_key(r, bucket[0]) {
                    return Err(format!("row {r} does not carry the key of bucket {b}"));
                }
            }
        }
        if let Some(r) = seen.iter().position(|&s| !s) {
            return Err(format!("row {r} is in no bucket"));
        }
        self.table.check_dense(
            self.buckets.len(),
            |b| hash_elems(self.key_of_row(arena, arity, rep(b))),
            |a, b| same_key(rep(a), rep(b)),
        )
    }

    /// Unregisters `row` and renumbers `last` to `row` — the arena
    /// swap-remove protocol of [`Relation::retract`]. Must run *before*
    /// the arena move: both rows' key cells are read from the pre-move
    /// `arena`. Any bucket member works as its representative (they all
    /// share the key), so removing a representative needs no special case;
    /// an emptied bucket is itself swap-removed, with the moved bucket's
    /// table entry renumbered in place.
    fn remove_row(&mut self, arena: &[ElemId], arity: usize, row: u32, last: u32) {
        let hash = hash_elems(self.key_of_row(arena, arity, row));
        let row_base = row as usize * arity;
        let b = self
            .table
            .find(hash, |b| {
                let base = self.buckets[b as usize][0] as usize * arity;
                self.positions
                    .iter()
                    .all(|&p| arena[base + p] == arena[row_base + p])
            })
            .expect("retracted row is indexed");
        let bucket = &mut self.buckets[b as usize];
        let pos = bucket
            .iter()
            .position(|&r| r == row)
            .expect("retracted row is in its key bucket");
        bucket.swap_remove(pos);
        if self.buckets[b as usize].is_empty() {
            let (buckets, positions) = (&self.buckets, &self.positions);
            self.table.remove(
                hash,
                |bb| bb == b,
                |bb| {
                    let base = buckets[bb as usize][0] as usize * arity;
                    hash_elems(positions.iter().map(|&p| arena[base + p]))
                },
            );
            let moved = (self.buckets.len() - 1) as u32;
            self.buckets.swap_remove(b as usize);
            if b != moved {
                // Bucket `moved` now lives at index `b`: patch its entry.
                let mhash = hash_elems(self.key_of_row(arena, arity, self.buckets[b as usize][0]));
                self.table.replace(mhash, moved, b);
            }
        }
        if row != last {
            // The arena swap renames row id `last` to `row`.
            let lhash = hash_elems(self.key_of_row(arena, arity, last));
            let last_base = last as usize * arity;
            let lb = self
                .table
                .find(lhash, |bb| {
                    let base = self.buckets[bb as usize][0] as usize * arity;
                    self.positions
                        .iter()
                        .all(|&p| arena[base + p] == arena[last_base + p])
                })
                .expect("surviving row is indexed");
            let bucket = &mut self.buckets[lb as usize];
            let pos = bucket
                .iter()
                .position(|&r| r == last)
                .expect("surviving row is in its key bucket");
            bucket[pos] = row;
        }
    }
}

/// One relation `R^𝒜 ⊆ A^α`: a deduplicated set of tuples with stable
/// insertion order (order matters for reproducible iteration), plus a
/// cache of lazily built secondary indexes keyed by argument positions.
///
/// Tuples live in a flat arena addressed by `u32` row ids (see the module
/// docs); no per-tuple heap allocation happens on insert, membership
/// tests, or index probes. A `Relation` is a plain value — the
/// evaluators' IDB stores own theirs outright, so the hot
/// derive path performs no atomic operations. Sharing happens one level
/// up: a [`Structure`] holds `Arc<Relation>`s and copies a relation only
/// on its first write ([`Structure::extended`], `Structure::clone`).
#[derive(Debug, Default)]
pub struct Relation {
    arity: usize,
    /// Number of rows (kept separately: `arena.len()/arity` is undefined
    /// for zero-ary relations).
    rows: usize,
    /// Flat tuple storage: row `r` occupies cells `r·arity..(r+1)·arity`.
    arena: Vec<ElemId>,
    /// Deduplication table mapping tuple content to row ids.
    table: RowTable,
    /// Bumped by every mutation of the tuple set (see
    /// [`Relation::generation`]).
    generation: u64,
    /// Secondary indexes by key positions. Behind a lock so `index_on`
    /// can build and cache through `&self` (probes happen mid-join, where
    /// the relation is shared); `Arc` so probers hold the index without
    /// holding the lock — and so deep-cloning a relation copies only
    /// `Arc` handles, deferring each index copy until it is touched.
    secondary: RwLock<FxHashMap<Box<[usize]>, Arc<PosIndex>>>,
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        Self {
            arity: self.arity,
            rows: self.rows,
            arena: self.arena.clone(),
            table: self.table.clone(),
            generation: self.generation,
            secondary: RwLock::new(self.secondary.read().expect("index cache lock").clone()),
        }
    }
}

impl Relation {
    /// Creates an empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Self {
            arity,
            ..Self::default()
        }
    }

    /// Creates an empty relation of the given arity with room for `rows`
    /// tuples: its arena and row table start at the capacities that
    /// inserting `rows` tuples one by one would grow them to, so filling
    /// it to that size reallocates and rehashes nothing. Secondary indexes
    /// are not presized.
    pub fn with_capacity(arity: usize, rows: usize) -> Self {
        let cells = rows * arity;
        Self {
            arity,
            arena: Vec::with_capacity(if cells == 0 {
                0
            } else {
                cells.next_power_of_two().max(4)
            }),
            table: RowTable::with_capacity(rows),
            ..Self::default()
        }
    }

    /// Checks the relation's storage invariants: the arena holds
    /// `rows × arity` cells; the row table holds exactly the row ids
    /// `0..len`, each found by a probe for its own tuple's hash under that
    /// hash's tag (so no tuple is stored twice); and every cached
    /// secondary index has dense bucket ids, each found under its key's
    /// hash and tag, with every row in exactly one bucket whose key
    /// matches the row. Costs a pass over the relation and its indexes;
    /// meant for tests and debugging.
    ///
    /// # Panics
    /// Panics with a description of the first violated invariant.
    pub fn check_invariants(&self) {
        let (arena, arity, rows) = (&self.arena, self.arity, self.rows);
        assert_eq!(
            arena.len(),
            rows * arity,
            "relation invariant: the arena holds {} cells for {rows} rows of arity {arity}",
            arena.len()
        );
        let row_cells = |r: u32| &arena[r as usize * arity..][..arity];
        if let Err(e) = self.table.check_dense(
            rows,
            |r| hash_elems(row_cells(r).iter().copied()),
            |a, b| row_cells(a) == row_cells(b),
        ) {
            panic!("relation invariant: row table: {e}");
        }
        for (positions, idx) in self.secondary.read().expect("index cache lock").iter() {
            if let Err(e) = idx.check(arena, arity, rows) {
                panic!("relation invariant: index on {positions:?}: {e}");
            }
        }
    }

    /// The arity of the relation.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if the relation holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// True if `self` and `other` are the *same* relation object — i.e.
    /// two structures hand out the same `Arc`'d allocation because one is
    /// a copy-on-write clone/extension of the other with no intervening
    /// write to this predicate. This is the observable that pins
    /// [`Structure::extended`] to O(#new predicates).
    #[inline]
    pub fn shares_storage(&self, other: &Relation) -> bool {
        std::ptr::eq(self, other)
    }

    /// Inserts a tuple; returns `true` if it was new.
    ///
    /// # Panics
    /// Panics as [`Relation::insert_row`] does.
    #[inline]
    pub fn insert(&mut self, tuple: &[ElemId]) -> bool {
        self.insert_row(tuple).1
    }

    /// Inserts a tuple, returning its row id and whether it was new. One
    /// probe of the row table answers both: a duplicate returns its row,
    /// and a new tuple takes the free slot that ended the probe.
    ///
    /// # Panics
    /// Panics if the tuple length differs from the relation arity, or if
    /// a new tuple would be the relation's `u32::MAX`-th: row ids are
    /// `u32`, and the row count must fit one too.
    pub fn insert_row(&mut self, tuple: &[ElemId]) -> (u32, bool) {
        assert_eq!(
            tuple.len(),
            self.arity,
            "tuple arity mismatch: got {}, relation has arity {}",
            tuple.len(),
            self.arity
        );
        let hash = hash_elems(tuple.iter().copied());
        let (arena, arity) = (&self.arena, self.arity);
        let row_cells = |r: u32| &arena[r as usize * arity..][..arity];
        let (row, new) = self.table.find_or_insert(
            hash,
            |r| row_cells(r) == tuple,
            |r| hash_elems(row_cells(r).iter().copied()),
            "rows in one relation",
        );
        if !new {
            return (row, false);
        }
        self.arena.extend_from_slice(tuple);
        self.rows += 1;
        let arena = &self.arena;
        // Keep cached secondary indexes current so they never have to be
        // rebuilt. `make_mut` copies only if a prober still holds the Arc
        // (it then keeps a consistent snapshot of the pre-insert relation).
        for idx in self
            .secondary
            .get_mut()
            .expect("index cache lock")
            .values_mut()
        {
            Arc::make_mut(idx).add(arena, arity, row);
        }
        self.generation += 1;
        (row, true)
    }

    /// Removes a tuple; returns `true` if it was present.
    ///
    /// The removed row is filled by *swap-remove*: the last row's cells
    /// move into its arena slot, the dedup-table entry is deleted
    /// by backward-shift (no tombstones) and the moved row's entry is
    /// renumbered, and every cached secondary index is patched the same
    /// way — so cached indexes stay warm across retractions. Row ids
    /// remain dense, but the *identity* of the last row changes; unlike
    /// inserts, a retract therefore invalidates `Arc<PosIndex>` snapshots
    /// taken earlier (the same caveat as [`Relation::clear`]).
    ///
    /// # Panics
    /// Panics if the tuple length differs from the relation arity.
    pub fn retract(&mut self, tuple: &[ElemId]) -> bool {
        assert_eq!(
            tuple.len(),
            self.arity,
            "tuple arity mismatch: got {}, relation has arity {}",
            tuple.len(),
            self.arity
        );
        let hash = hash_elems(tuple.iter().copied());
        let (arena, arity) = (&self.arena, self.arity);
        let Some(row) = self
            .table
            .find(hash, |r| &arena[r as usize * arity..][..arity] == tuple)
        else {
            return false;
        };
        let last = (self.rows - 1) as u32;
        // Indexes first: they read both rows' key cells from the pre-move
        // arena.
        for idx in self
            .secondary
            .get_mut()
            .expect("index cache lock")
            .values_mut()
        {
            Arc::make_mut(idx).remove_row(arena, arity, row, last);
        }
        self.table.remove(
            hash,
            |r| r == row,
            |r| hash_elems(arena[r as usize * arity..][..arity].iter().copied()),
        );
        if row != last {
            let last_hash =
                hash_elems(self.arena[last as usize * arity..][..arity].iter().copied());
            let (rb, lb) = (row as usize * arity, last as usize * arity);
            for k in 0..arity {
                self.arena[rb + k] = self.arena[lb + k];
            }
            self.table.replace(last_hash, last, row);
        }
        self.arena.truncate(self.arena.len() - arity);
        self.rows -= 1;
        self.generation += 1;
        true
    }

    /// A counter bumped by every mutation of the tuple set (each new
    /// insert, each successful retract, each non-empty
    /// [`clear`](Relation::clear)). Incremental consumers use it to detect
    /// relation churn without diffing contents; it survives deep clones,
    /// so a copy-on-write holder observes its source's history.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Membership test. Hashes the probe tuple's element ids and compares
    /// against the arena; allocates nothing.
    #[inline]
    pub fn contains(&self, tuple: &[ElemId]) -> bool {
        self.row_of(tuple).is_some()
    }

    /// The row id of `tuple` if present.
    #[inline]
    pub fn row_of(&self, tuple: &[ElemId]) -> Option<u32> {
        debug_assert_eq!(tuple.len(), self.arity);
        let (arena, arity) = (&self.arena, self.arity);
        self.table.find(hash_elems(tuple.iter().copied()), |r| {
            &arena[r as usize * arity..][..arity] == tuple
        })
    }

    /// Iterates over tuples in insertion (row) order.
    pub fn iter(&self) -> impl Iterator<Item = &[ElemId]> {
        (0..self.rows as u32).map(|r| self.tuple(r))
    }

    /// The tuple stored at `row` (rows come from [`Relation::rows_matching`]).
    #[inline]
    pub fn tuple(&self, row: u32) -> &[ElemId] {
        &self.arena[row as usize * self.arity..][..self.arity]
    }

    /// Removes all tuples and drops every cached secondary index (their
    /// row ids would dangle). Capacity is retained, so a cleared relation
    /// can be refilled without reallocating (and clearing an
    /// already-empty relation is O(1) regardless of retained capacity).
    pub fn clear(&mut self) {
        if self.rows > 0 {
            self.generation += 1;
        }
        self.rows = 0;
        self.arena.clear();
        self.table.clear();
        self.secondary.get_mut().expect("index cache lock").clear();
    }

    /// The secondary index keyed by `positions`, built on first request
    /// and cached (subsequent calls are a lock + hash lookup). Positions
    /// must be distinct and `< arity`.
    ///
    /// # Panics
    /// Panics if a position is out of range or `positions` is empty.
    pub fn index_on(&self, positions: &[usize]) -> Arc<PosIndex> {
        assert!(!positions.is_empty(), "index on zero positions is a scan");
        for &p in positions {
            assert!(
                p < self.arity,
                "index position {p} out of arity {}",
                self.arity
            );
        }
        if let Some(idx) = self
            .secondary
            .read()
            .expect("index cache lock")
            .get(positions)
        {
            return Arc::clone(idx);
        }
        let mut cache = self.secondary.write().expect("index cache lock");
        // Re-check: another prober may have built it between the locks.
        if let Some(idx) = cache.get(positions) {
            return Arc::clone(idx);
        }
        let mut idx = PosIndex {
            positions: positions.into(),
            ..PosIndex::default()
        };
        for row in 0..self.rows as u32 {
            idx.add(&self.arena, self.arity, row);
        }
        let idx = Arc::new(idx);
        cache.insert(positions.into(), Arc::clone(&idx));
        idx
    }

    /// Rows of all tuples whose values at `index`'s key positions equal
    /// `key` (empty if none). The slice borrows from `index`, so an
    /// `Arc<PosIndex>` snapshot keeps serving its pre-insert rows.
    #[inline]
    pub fn rows_matching<'i>(&self, index: &'i PosIndex, key: &[ElemId]) -> &'i [u32] {
        index.rows_in(&self.arena, self.arity, key)
    }

    /// Number of distinct values at `positions`: the exact
    /// [`PosIndex::key_count`] when the index is already cached, otherwise
    /// a one-shot count that does **not** build or cache an index —
    /// planners can weigh candidate access paths without saddling the
    /// relation with index maintenance for paths they reject. For one or
    /// two positions the count packs keys exactly; for wider keys it
    /// dedups by 64-bit hash, so it is an estimate (a collision
    /// undercounts by one).
    ///
    /// # Panics
    /// Panics if a position is out of range or `positions` is empty.
    pub fn distinct_key_count(&self, positions: &[usize]) -> usize {
        assert!(!positions.is_empty(), "zero positions have a single key");
        for &p in positions {
            assert!(
                p < self.arity,
                "key position {p} out of arity {}",
                self.arity
            );
        }
        if let Some(idx) = self
            .secondary
            .read()
            .expect("index cache lock")
            .get(positions)
        {
            return idx.key_count();
        }
        let arena = &self.arena;
        let mut seen: crate::fx::FxHashSet<u64> = crate::fx::FxHashSet::default();
        for row in 0..self.rows {
            let base = row * self.arity;
            let packed = match positions {
                [p] => u64::from(arena[base + p].0),
                [p, q] => (u64::from(arena[base + p].0) << 32) | u64::from(arena[base + q].0),
                _ => hash_elems(positions.iter().map(|&p| arena[base + p])),
            };
            seen.insert(packed);
        }
        seen.len()
    }

    /// Iterates over the tuples matching `key` on `index`'s positions.
    pub fn matching<'a>(
        &'a self,
        index: &'a PosIndex,
        key: &[ElemId],
    ) -> impl Iterator<Item = &'a [ElemId]> {
        self.rows_matching(index, key)
            .iter()
            .map(move |&r| self.tuple(r))
    }
}

/// A finite structure 𝒜 over a signature τ.
///
/// The signature is shared (`Arc`) because derived structures — induced
/// substructures, decomposition encodings — reuse it unchanged. The
/// relations are shared **copy-on-write**: `clone` and
/// [`extended`](Structure::extended) bump one `Arc` per predicate, and a
/// relation is deep-copied only on its first write through a sharing
/// holder ([`Relation::shares_storage`] observes the sharing). Reads and
/// duplicate inserts never un-share.
#[derive(Debug, Clone)]
pub struct Structure {
    sig: Arc<Signature>,
    domain: Domain,
    relations: Vec<Arc<Relation>>,
}

impl Structure {
    /// Creates a structure with the given signature and domain and all
    /// relations empty.
    pub fn new(sig: Arc<Signature>, domain: Domain) -> Self {
        let relations = sig
            .preds()
            .map(|p| Arc::new(Relation::new(sig.arity(p))))
            .collect();
        Self {
            sig,
            domain,
            relations,
        }
    }

    /// Like [`Structure::new`], with room for `rows[p]` tuples in the
    /// relation of each predicate `p` (see [`Relation::with_capacity`]), so
    /// a builder that knows its relation sizes fills them without
    /// reallocating or rehashing.
    ///
    /// # Panics
    /// Panics unless `rows` has one entry per predicate.
    pub fn with_capacity(sig: Arc<Signature>, domain: Domain, rows: &[usize]) -> Self {
        assert_eq!(rows.len(), sig.len(), "one capacity per predicate");
        let relations = sig
            .preds()
            .map(|p| Arc::new(Relation::with_capacity(sig.arity(p), rows[p.index()])))
            .collect();
        Self {
            sig,
            domain,
            relations,
        }
    }

    /// The signature τ.
    #[inline]
    pub fn signature(&self) -> &Arc<Signature> {
        &self.sig
    }

    /// The domain A.
    #[inline]
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// The relation interpreting `pred`.
    #[inline]
    pub fn relation(&self, pred: PredId) -> &Relation {
        &self.relations[pred.index()]
    }

    /// Inserts a ground tuple into `pred`'s relation; returns `true` if new.
    ///
    /// On a relation still shared with a copy-on-write clone, a duplicate
    /// insert is answered by a read-only membership probe, so only a
    /// *genuinely new* tuple deep-copies the relation.
    ///
    /// # Panics
    /// Panics on arity mismatch or if any argument is outside the domain.
    pub fn insert(&mut self, pred: PredId, tuple: &[ElemId]) -> bool {
        for &e in tuple {
            assert!(
                self.domain.contains(e),
                "tuple argument {e} outside the domain"
            );
        }
        let rel = &mut self.relations[pred.index()];
        if Arc::get_mut(rel).is_none() && rel.contains(tuple) {
            return false;
        }
        Arc::make_mut(rel).insert(tuple)
    }

    /// Removes a ground tuple from `pred`'s relation; returns `true` if
    /// it was present ([`Relation::retract`] describes the swap-remove
    /// mechanics).
    ///
    /// Mirrors [`Structure::insert`]'s copy-on-write discipline: on a
    /// relation still shared with a clone, an *absent* tuple is answered
    /// by a read-only membership probe, so only a genuine removal
    /// deep-copies the relation.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn retract(&mut self, pred: PredId, tuple: &[ElemId]) -> bool {
        let rel = &mut self.relations[pred.index()];
        if Arc::get_mut(rel).is_none() && !rel.contains(tuple) {
            return false;
        }
        Arc::make_mut(rel).retract(tuple)
    }

    /// Membership test for a ground atom.
    #[inline]
    pub fn holds(&self, pred: PredId, tuple: &[ElemId]) -> bool {
        self.relations[pred.index()].contains(tuple)
    }

    /// Total number of ground atoms (the size of the EDB `E(𝒜)`).
    pub fn atom_count(&self) -> usize {
        self.relations.iter().map(|r| r.len()).sum()
    }

    /// A rough size measure `|𝒜|`: domain size plus total tuple cells.
    /// This is the `|A|` of the paper's complexity bounds.
    pub fn size(&self) -> usize {
        self.domain.len()
            + self
                .relations
                .iter()
                .map(|r| r.len() * r.arity().max(1))
                .sum::<usize>()
    }

    /// Iterates over all ground atoms of the EDB.
    pub fn atoms(&self) -> impl Iterator<Item = GroundAtom> + '_ {
        self.sig.preds().flat_map(move |p| {
            self.relation(p)
                .iter()
                .map(move |t| GroundAtom::new(p, t.to_vec()))
        })
    }

    /// Renders a ground atom using domain and signature names.
    pub fn render_atom(&self, atom: &GroundAtom) -> String {
        let args: Vec<&str> = atom.args.iter().map(|&e| self.domain.name(e)).collect();
        format!("{}({})", self.sig.name(atom.pred), args.join(","))
    }

    /// A structure over `self`'s signature extended with the fresh
    /// predicates in `extra`: the domain is shared, existing relations
    /// are shared **copy-on-write** (each an `Arc` bump — arena, dedup
    /// table and warm secondary indexes included, so probes stay warm and
    /// extension costs O(#new predicates), not O(|𝒜|)), and the new
    /// relations start empty. Returns the extended structure and the ids
    /// of the new predicates, in `extra` order.
    ///
    /// This is the materialization substrate of the stratified datalog
    /// evaluator: each stratum's derived relations are inserted into the
    /// extension so higher strata read them as ordinary extensional
    /// relations — and since only the *fresh* relations are written, the
    /// base relations are never deep-copied (pinned by
    /// [`Relation::shares_storage`]).
    ///
    /// # Panics
    /// Panics if a name in `extra` collides with an existing predicate.
    pub fn extended<I, S>(&self, extra: I) -> (Structure, Vec<PredId>)
    where
        I: IntoIterator<Item = (S, usize)>,
        S: AsRef<str>,
    {
        let sig = self.sig.extend_with(extra);
        // `declare` appends, so the fresh predicates are exactly the ids
        // past the base signature's length.
        let ids: Vec<PredId> = (self.sig.len()..sig.len())
            .map(|i| PredId(i as u32))
            .collect();
        let mut relations = self.relations.clone();
        relations.extend(ids.iter().map(|&id| Arc::new(Relation::new(sig.arity(id)))));
        (
            Structure {
                sig: Arc::new(sig),
                domain: self.domain.clone(),
                relations,
            },
            ids,
        )
    }

    /// Like [`Structure::extended`], but against a *pre-extended* signature
    /// `Arc` — one produced earlier by [`Signature::extend_with`] on this
    /// structure's signature. The existing relations are shared
    /// copy-on-write and one empty relation is appended per extension
    /// predicate; the signature `Arc` itself is reused, so callers that
    /// extend the same structure repeatedly (e.g. a stratified evaluator
    /// session re-evaluating per structure) skip rebuilding the signature
    /// every time.
    ///
    /// # Panics
    /// Panics if `sig` is not an extension of this structure's signature
    /// (fewer predicates, or a mismatched name/arity on the shared prefix).
    pub fn extended_shared(&self, sig: &Arc<Signature>) -> Structure {
        assert!(
            sig.len() >= self.sig.len(),
            "extended signature has fewer predicates than the base"
        );
        for p in self.sig.preds() {
            assert!(
                sig.name(p) == self.sig.name(p) && sig.arity(p) == self.sig.arity(p),
                "signature is not an extension of the structure's signature \
                 (mismatch at predicate `{}`)",
                self.sig.name(p)
            );
        }
        let mut relations = self.relations.clone();
        relations.extend(
            (self.sig.len()..sig.len())
                .map(|i| Arc::new(Relation::new(sig.arity(PredId(i as u32))))),
        );
        Structure {
            sig: Arc::clone(sig),
            domain: self.domain.clone(),
            relations,
        }
    }

    /// The inverse of [`Structure::extended_shared`]: a structure over the
    /// *prefix* signature `sig`, sharing the domain and the first
    /// `sig.len()` relations copy-on-write (each an `Arc` bump) and
    /// dropping the rest. A materialized-view server uses this to recover
    /// the base-signature view of an extended structure — e.g. to hand a
    /// post-update EDB back to a from-scratch evaluation.
    ///
    /// # Panics
    /// Panics if `sig` is not a prefix of this structure's signature
    /// (more predicates, or a mismatched name/arity on the shared prefix).
    pub fn restricted(&self, sig: &Arc<Signature>) -> Structure {
        assert!(
            sig.len() <= self.sig.len(),
            "restriction signature has more predicates than the base"
        );
        for p in sig.preds() {
            assert!(
                sig.name(p) == self.sig.name(p) && sig.arity(p) == self.sig.arity(p),
                "signature is not a prefix of the structure's signature \
                 (mismatch at predicate `{}`)",
                sig.name(p)
            );
        }
        Structure {
            sig: Arc::clone(sig),
            domain: self.domain.clone(),
            relations: self.relations[..sig.len()].to_vec(),
        }
    }

    /// The substructure of `self` induced by the element set `keep`
    /// (Definition 3.2): the domain is restricted to `keep` and a tuple
    /// survives iff all its arguments lie in `keep`.
    ///
    /// Element ids are preserved — the induced structure shares the parent
    /// domain's id space so distinguished tuples remain valid. `keep` is a
    /// membership predicate over the parent domain.
    pub fn induced(&self, keep: &dyn Fn(ElemId) -> bool) -> InducedStructure<'_> {
        let mut live = vec![false; self.domain.len()];
        for e in self.domain.elems() {
            live[e.index()] = keep(e);
        }
        InducedStructure::new(self, live)
    }

    /// Equality of two argument tuples under Definition 3.4: `(a₀,…,a_w)`
    /// and `(b₀,…,b_w)` are *equivalent* iff every predicate holds on
    /// corresponding index patterns simultaneously in `self` and `other`.
    pub fn bags_equivalent(&self, a: &[ElemId], other: &Structure, b: &[ElemId]) -> bool {
        assert_eq!(a.len(), b.len(), "bags of different length");
        debug_assert_eq!(self.sig.len(), other.sig.len());
        let w1 = a.len();
        let mut pattern = Vec::new();
        for p in self.sig.preds() {
            let arity = self.sig.arity(p);
            if arity > 0 && w1 == 0 {
                continue; // no index patterns over an empty tuple
            }
            // Enumerate all index patterns {0..w}^arity.
            pattern.clear();
            pattern.resize(arity, 0usize);
            loop {
                let ta: Vec<ElemId> = pattern.iter().map(|&i| a[i]).collect();
                let tb: Vec<ElemId> = pattern.iter().map(|&i| b[i]).collect();
                if self.holds(p, &ta) != other.holds(p, &tb) {
                    return false;
                }
                // Next pattern (odometer).
                let mut k = 0;
                loop {
                    if k == arity {
                        break;
                    }
                    pattern[k] += 1;
                    if pattern[k] < w1 {
                        break;
                    }
                    pattern[k] = 0;
                    k += 1;
                }
                if k == arity {
                    break;
                }
            }
        }
        true
    }
}

impl fmt::Display for Structure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "structure with {} elements:", self.domain.len())?;
        for atom in self.atoms() {
            writeln!(f, "  {}", self.render_atom(&atom))?;
        }
        Ok(())
    }
}

/// A view of a structure restricted to a live subset of its domain
/// (the induced substructure of Definition 3.2, without copying tuples).
#[derive(Debug)]
pub struct InducedStructure<'a> {
    parent: &'a Structure,
    live: Vec<bool>,
}

impl<'a> InducedStructure<'a> {
    fn new(parent: &'a Structure, live: Vec<bool>) -> Self {
        Self { parent, live }
    }

    /// True if `e` survives the restriction.
    #[inline]
    pub fn contains_elem(&self, e: ElemId) -> bool {
        self.live.get(e.index()).copied().unwrap_or(false)
    }

    /// The number of surviving elements.
    pub fn len(&self) -> usize {
        self.live.iter().filter(|&&b| b).count()
    }

    /// True if no elements survive.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over surviving elements.
    pub fn elems(&self) -> impl Iterator<Item = ElemId> + '_ {
        self.parent
            .domain()
            .elems()
            .filter(move |&e| self.live[e.index()])
    }

    /// Atom membership in the induced structure: all arguments must be live
    /// and the atom must hold in the parent.
    pub fn holds(&self, pred: PredId, tuple: &[ElemId]) -> bool {
        tuple.iter().all(|&e| self.contains_elem(e)) && self.parent.holds(pred, tuple)
    }

    /// Materializes the view as an owned [`Structure`] over a fresh compact
    /// domain. Returns the structure and the map from parent ids to new ids.
    pub fn materialize(&self) -> (Structure, FxHashMap<ElemId, ElemId>) {
        let mut dom = Domain::new();
        let mut map: FxHashMap<ElemId, ElemId> = FxHashMap::default();
        for e in self.elems() {
            let name = self.parent.domain().name(e).to_owned();
            map.insert(e, dom.insert(name));
        }
        let mut s = Structure::new(Arc::clone(self.parent.signature()), dom);
        for p in self.parent.signature().preds() {
            for t in self.parent.relation(p).iter() {
                if t.iter().all(|&e| self.contains_elem(e)) {
                    let mapped: Vec<ElemId> = t.iter().map(|e| map[e]).collect();
                    s.insert(p, &mapped);
                }
            }
        }
        (s, map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_sig() -> Arc<Signature> {
        Arc::new(Signature::from_pairs([("e", 2)]))
    }

    fn triangle() -> (Structure, Vec<ElemId>) {
        let sig = graph_sig();
        let mut dom = Domain::new();
        let v: Vec<ElemId> = ["a", "b", "c"].iter().map(|n| dom.insert(*n)).collect();
        let mut s = Structure::new(sig, dom);
        let e = s.signature().lookup("e").unwrap();
        for (x, y) in [(0, 1), (1, 2), (2, 0)] {
            s.insert(e, &[v[x], v[y]]);
            s.insert(e, &[v[y], v[x]]);
        }
        (s, v)
    }

    #[test]
    fn insert_and_holds() {
        let (s, v) = triangle();
        let e = s.signature().lookup("e").unwrap();
        assert!(s.holds(e, &[v[0], v[1]]));
        assert!(s.holds(e, &[v[1], v[0]]));
        assert!(!s.holds(e, &[v[0], v[0]]));
        assert_eq!(s.atom_count(), 6);
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let (mut s, v) = triangle();
        let e = s.signature().lookup("e").unwrap();
        assert!(!s.insert(e, &[v[0], v[1]]));
        assert_eq!(s.atom_count(), 6);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let (mut s, v) = triangle();
        let e = s.signature().lookup("e").unwrap();
        s.insert(e, &[v[0]]);
    }

    #[test]
    fn induced_substructure_drops_crossing_tuples() {
        let (s, v) = triangle();
        let e = s.signature().lookup("e").unwrap();
        let keep = |x: ElemId| x == v[0] || x == v[1];
        let ind = s.induced(&keep);
        assert_eq!(ind.len(), 2);
        assert!(ind.holds(e, &[v[0], v[1]]));
        assert!(!ind.holds(e, &[v[1], v[2]]));
        let (owned, map) = ind.materialize();
        assert_eq!(owned.domain().len(), 2);
        assert_eq!(owned.atom_count(), 2);
        assert!(owned.holds(e, &[map[&v[0]], map[&v[1]]]));
    }

    #[test]
    fn extended_structure_shares_tuples_and_adds_empty_relations() {
        let (s, v) = triangle();
        let e = s.signature().lookup("e").unwrap();
        let _ = s.relation(e).index_on(&[0]); // warm an index pre-extension
        let (mut ext, ids) = s.extended([("reach", 1)]);
        let reach = ids[0];
        assert_eq!(ext.signature().len(), 2);
        assert_eq!(ext.signature().name(reach), "reach");
        // Existing tuples (and their indexes) survive the extension.
        assert!(ext.holds(e, &[v[0], v[1]]));
        assert_eq!(ext.atom_count(), 6);
        let idx = ext.relation(e).index_on(&[0]);
        assert_eq!(ext.relation(e).rows_matching(&idx, &[v[0]]).len(), 2);
        // The new relation starts empty and accepts inserts.
        assert!(ext.relation(reach).is_empty());
        assert!(ext.insert(reach, &[v[2]]));
        assert!(ext.holds(reach, &[v[2]]));
        // The original structure is untouched.
        assert_eq!(s.signature().len(), 1);
        assert_eq!(s.atom_count(), 6);
    }

    #[test]
    fn atoms_iterates_everything() {
        let (s, _) = triangle();
        assert_eq!(s.atoms().count(), 6);
        let rendered: Vec<String> = s.atoms().map(|a| s.render_atom(&a)).collect();
        assert!(rendered.contains(&"e(a,b)".to_string()));
    }

    #[test]
    fn bag_equivalence_definition_3_4() {
        // Two structures; bags equivalent iff same atoms on index patterns.
        let (s1, v1) = triangle();
        let (s2, v2) = triangle();
        assert!(s1.bags_equivalent(&[v1[0], v1[1]], &s2, &[v2[1], v2[2]]));
        // Remove one direction of an edge in a copy: no longer equivalent.
        let sig = graph_sig();
        let mut dom = Domain::new();
        let a = dom.insert("a");
        let b = dom.insert("b");
        let mut s3 = Structure::new(sig, dom);
        let e = s3.signature().lookup("e").unwrap();
        s3.insert(e, &[a, b]);
        assert!(!s1.bags_equivalent(&[v1[0], v1[1]], &s3, &[a, b]));
        assert!(!s3.bags_equivalent(&[a, b], &s3, &[b, a]));
    }

    #[test]
    fn size_counts_domain_and_cells() {
        let (s, _) = triangle();
        assert_eq!(s.size(), 3 + 6 * 2);
    }

    #[test]
    fn secondary_index_probes_match_scan() {
        let (s, v) = triangle();
        let e = s.signature().lookup("e").unwrap();
        let rel = s.relation(e);
        let idx = rel.index_on(&[0]);
        for &src in &v {
            let probed: Vec<&[ElemId]> = rel.matching(&idx, &[src]).collect();
            let scanned: Vec<&[ElemId]> = rel.iter().filter(|t| t[0] == src).collect();
            assert_eq!(probed, scanned);
        }
        assert_eq!(rel.rows_matching(&idx, &[v[0]]).len(), 2);
        assert_eq!(idx.key_count(), 3);
        assert_eq!(idx.buckets().map(<[u32]>::len).sum::<usize>(), rel.len());
    }

    #[test]
    fn secondary_index_is_cached_and_maintained_on_insert() {
        let (mut s, v) = triangle();
        let e = s.signature().lookup("e").unwrap();
        let before = s.relation(e).index_on(&[1]);
        // Same positions → same cached index object.
        assert!(Arc::ptr_eq(&before, &s.relation(e).index_on(&[1])));
        // Insert a new tuple: the cached index must see it.
        s.insert(e, &[v[0], v[0]]);
        let rel = s.relation(e);
        let after = rel.index_on(&[1]);
        assert_eq!(rel.rows_matching(&after, &[v[0]]).len(), 3);
        let hits: Vec<&[ElemId]> = rel.matching(&after, &[v[0]]).collect();
        assert!(hits.contains(&&[v[0], v[0]][..]));
        // The pre-insert Arc still held by the caller is a consistent
        // snapshot of the old relation contents (rows are append-only).
        assert_eq!(rel.rows_matching(&before, &[v[0]]).len(), 2);
    }

    #[test]
    fn multi_position_index() {
        let (s, v) = triangle();
        let e = s.signature().lookup("e").unwrap();
        let rel = s.relation(e);
        let idx = rel.index_on(&[0, 1]);
        assert_eq!(rel.rows_matching(&idx, &[v[0], v[1]]).len(), 1);
        assert_eq!(rel.rows_matching(&idx, &[v[0], v[0]]).len(), 0);
    }

    #[test]
    fn cloned_relation_keeps_index_cache_consistent() {
        let (mut s, v) = triangle();
        let e = s.signature().lookup("e").unwrap();
        let _ = s.relation(e).index_on(&[0]);
        let cloned = s.clone();
        s.insert(e, &[v[0], v[0]]);
        // The clone is unaffected by the original's insert.
        let crel = cloned.relation(e);
        let cidx = crel.index_on(&[0]);
        assert_eq!(crel.rows_matching(&cidx, &[v[0]]).len(), 2);
        let rel = s.relation(e);
        let idx = rel.index_on(&[0]);
        assert_eq!(rel.rows_matching(&idx, &[v[0]]).len(), 3);
    }

    #[test]
    fn row_ids_are_stable_and_dense() {
        let mut rel = Relation::new(2);
        let (r0, fresh0) = rel.insert_row(&[ElemId(4), ElemId(5)]);
        let (r1, fresh1) = rel.insert_row(&[ElemId(5), ElemId(4)]);
        assert!(fresh0 && fresh1);
        assert_eq!((r0, r1), (0, 1));
        // Re-inserting an existing tuple returns its original row.
        let (again, fresh) = rel.insert_row(&[ElemId(4), ElemId(5)]);
        assert_eq!(again, r0);
        assert!(!fresh);
        assert_eq!(rel.tuple(r0), &[ElemId(4), ElemId(5)]);
        // Rows are dense 0..len, matching iteration order.
        for (i, t) in rel.iter().enumerate() {
            assert_eq!(rel.row_of(t), Some(i as u32));
        }
    }

    #[test]
    fn clear_resets_rows_and_drops_indexes() {
        let mut rel = Relation::new(2);
        for i in 0..100u32 {
            rel.insert(&[ElemId(i), ElemId(i % 7)]);
        }
        let idx = rel.index_on(&[1]);
        assert_eq!(idx.key_count(), 7);
        rel.clear();
        assert!(rel.is_empty());
        assert!(!rel.contains(&[ElemId(3), ElemId(3)]));
        // Refilling after clear rebuilds dedup and indexes from scratch.
        rel.insert(&[ElemId(1), ElemId(2)]);
        rel.insert(&[ElemId(1), ElemId(2)]);
        assert_eq!(rel.len(), 1);
        let idx = rel.index_on(&[1]);
        assert_eq!(rel.rows_matching(&idx, &[ElemId(2)]), &[0]);
    }

    #[test]
    fn zero_ary_relation_holds_one_empty_tuple() {
        let mut rel = Relation::new(0);
        assert!(!rel.contains(&[]));
        assert!(rel.insert(&[]));
        assert!(!rel.insert(&[]));
        assert!(rel.contains(&[]));
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.iter().collect::<Vec<_>>(), vec![&[] as &[ElemId]]);
    }

    #[test]
    fn distinct_key_count_matches_index_key_count() {
        let (s, _) = triangle();
        let e = s.signature().lookup("e").unwrap();
        let rel = s.relation(e);
        // One-shot counts (no index built yet): 3 sources, 6 edges.
        assert_eq!(rel.distinct_key_count(&[0]), 3);
        assert_eq!(rel.distinct_key_count(&[1]), 3);
        assert_eq!(rel.distinct_key_count(&[0, 1]), 6);
        // Once an index exists, the exact key_count is served.
        let idx = rel.index_on(&[0]);
        assert_eq!(rel.distinct_key_count(&[0]), idx.key_count());
    }

    #[test]
    fn dedup_survives_table_growth() {
        // Enough tuples to force several RowTable growths; every duplicate
        // insert must still be detected after rehashing.
        let mut rel = Relation::new(2);
        for i in 0..5_000u32 {
            assert!(rel.insert(&[ElemId(i), ElemId(i.wrapping_mul(31) % 997)]));
        }
        assert_eq!(rel.len(), 5_000);
        for i in 0..5_000u32 {
            assert!(!rel.insert(&[ElemId(i), ElemId(i.wrapping_mul(31) % 997)]));
            assert!(rel.contains(&[ElemId(i), ElemId(i.wrapping_mul(31) % 997)]));
        }
        assert_eq!(rel.len(), 5_000);
    }

    #[test]
    #[should_panic(expected = "out of arity")]
    fn index_position_out_of_range_panics() {
        let (s, _) = triangle();
        let e = s.signature().lookup("e").unwrap();
        let _ = s.relation(e).index_on(&[2]);
    }

    #[test]
    fn extended_structure_shares_base_relations_copy_on_write() {
        let (s, v) = triangle();
        let e = s.signature().lookup("e").unwrap();
        let _ = s.relation(e).index_on(&[0]); // warm an index pre-extension
        let (mut ext, ids) = s.extended([("reach", 1)]);
        // Extension must not deep-copy the untouched base relation.
        assert!(ext.relation(e).shares_storage(s.relation(e)));
        // Reads and index probes leave the sharing intact.
        let idx = ext.relation(e).index_on(&[0]);
        assert_eq!(ext.relation(e).rows_matching(&idx, &[v[0]]).len(), 2);
        assert!(ext.holds(e, &[v[1], v[2]]));
        assert!(ext.relation(e).shares_storage(s.relation(e)));
        // Writing only the fresh relation keeps the base shared.
        assert!(ext.insert(ids[0], &[v[2]]));
        assert!(ext.relation(e).shares_storage(s.relation(e)));
        // The first write to the base relation un-shares exactly it.
        ext.insert(e, &[v[0], v[0]]);
        assert!(!ext.relation(e).shares_storage(s.relation(e)));
        assert!(ext.holds(e, &[v[0], v[0]]));
        assert!(!s.holds(e, &[v[0], v[0]]), "original untouched");
        assert_eq!(s.atom_count(), 6);
    }

    #[test]
    fn duplicate_insert_does_not_unshare() {
        let (s, v) = triangle();
        let e = s.signature().lookup("e").unwrap();
        let (mut ext, _) = s.extended([("reach", 1)]);
        assert!(!ext.insert(e, &[v[0], v[1]]), "already present");
        assert!(
            ext.relation(e).shares_storage(s.relation(e)),
            "a duplicate insert is a read and must not deep-copy"
        );
    }

    #[test]
    fn cloned_structure_shares_until_first_write() {
        let (s, v) = triangle();
        let e = s.signature().lookup("e").unwrap();
        let mut copy = s.clone();
        assert!(copy.relation(e).shares_storage(s.relation(e)));
        // The first genuine write un-shares; the original keeps its rows.
        copy.insert(e, &[v[0], v[0]]);
        assert!(!copy.relation(e).shares_storage(s.relation(e)));
        assert!(copy.holds(e, &[v[0], v[0]]));
        assert!(!s.holds(e, &[v[0], v[0]]));
        assert_eq!(s.atom_count(), 6);
        assert_eq!(copy.atom_count(), 7);
    }

    #[test]
    fn retract_swaps_last_row_in_and_stays_deduplicated() {
        let mut rel = Relation::new(2);
        for i in 0..5u32 {
            rel.insert(&[ElemId(i), ElemId(i + 10)]);
        }
        // Retract a middle row: the last row (4, 14) must move into slot 1.
        assert!(rel.retract(&[ElemId(1), ElemId(11)]));
        assert_eq!(rel.len(), 4);
        assert!(!rel.contains(&[ElemId(1), ElemId(11)]));
        assert_eq!(rel.tuple(1), &[ElemId(4), ElemId(14)]);
        assert_eq!(rel.row_of(&[ElemId(4), ElemId(14)]), Some(1));
        // Retracting the (new) last row needs no swap.
        assert!(rel.retract(&[ElemId(3), ElemId(13)]));
        assert_eq!(rel.len(), 3);
        // An absent tuple is a no-op, and the retracted tuples reinsert
        // as genuinely new rows.
        assert!(!rel.retract(&[ElemId(1), ElemId(11)]));
        assert!(rel.insert(&[ElemId(1), ElemId(11)]));
        assert_eq!(rel.len(), 4);
        for (i, t) in rel.iter().enumerate() {
            assert_eq!(rel.row_of(t), Some(i as u32), "row ids stay dense");
        }
    }

    #[test]
    fn retract_maintains_cached_secondary_indexes() {
        let mut rel = Relation::new(2);
        for i in 0..30u32 {
            rel.insert(&[ElemId(i), ElemId(i % 3)]);
        }
        let _ = rel.index_on(&[1]);
        let _ = rel.index_on(&[0]);
        // Remove every tuple with key 1 on position 1, one by one.
        for i in (0..30u32).filter(|i| i % 3 == 1) {
            assert!(rel.retract(&[ElemId(i), ElemId(1)]));
        }
        let idx = rel.index_on(&[1]);
        assert_eq!(rel.rows_matching(&idx, &[ElemId(1)]).len(), 0);
        assert_eq!(idx.key_count(), 2, "emptied key bucket is dropped");
        for key in [0u32, 2] {
            // Renumbering perturbs bucket order relative to row order, so
            // compare the probe and the scan as sets.
            let mut probed: Vec<Vec<ElemId>> = rel
                .matching(&idx, &[ElemId(key)])
                .map(<[ElemId]>::to_vec)
                .collect();
            let mut scanned: Vec<Vec<ElemId>> = rel
                .iter()
                .filter(|t| t[1] == ElemId(key))
                .map(<[ElemId]>::to_vec)
                .collect();
            probed.sort();
            scanned.sort();
            assert_eq!(probed, scanned);
        }
        let by0 = rel.index_on(&[0]);
        for t in rel.iter() {
            assert_eq!(rel.rows_matching(&by0, &[t[0]]).len(), 1);
        }
        assert_eq!(by0.buckets().map(<[u32]>::len).sum::<usize>(), rel.len());
    }

    #[test]
    fn retract_survives_table_growth_and_refill() {
        // Interleave enough churn to exercise backward-shift deletion
        // across several RowTable growths.
        let mut rel = Relation::new(2);
        for i in 0..2_000u32 {
            assert!(rel.insert(&[ElemId(i), ElemId(i.wrapping_mul(31) % 97)]));
        }
        for i in (0..2_000u32).step_by(2) {
            assert!(rel.retract(&[ElemId(i), ElemId(i.wrapping_mul(31) % 97)]));
        }
        assert_eq!(rel.len(), 1_000);
        for i in 0..2_000u32 {
            let tuple = [ElemId(i), ElemId(i.wrapping_mul(31) % 97)];
            assert_eq!(rel.contains(&tuple), i % 2 == 1, "tuple {i}");
            assert_eq!(rel.insert(&tuple), i % 2 == 0, "reinsert {i}");
        }
        assert_eq!(rel.len(), 2_000);
    }

    /// Three distinct tuples whose hashes share both the home slot of an
    /// 8-slot table and the tag: the worst case for the tag filter, where
    /// only the arena comparison tells them apart.
    fn same_home_and_tag() -> [[ElemId; 2]; 3] {
        let mut bins: FxHashMap<(u64, u8), Vec<[ElemId; 2]>> = FxHashMap::default();
        for a in 0..64u32 {
            for b in 0..64u32 {
                let t = [ElemId(a), ElemId(b)];
                let h = hash_elems(t);
                let bin = bins.entry((h & 7, RowTable::tag(h))).or_default();
                bin.push(t);
                if let [x, y, z] = bin[..] {
                    return [x, y, z];
                }
            }
        }
        panic!("no three tuples share a home slot and a tag");
    }

    #[test]
    fn tuples_sharing_home_slot_and_tag_stay_distinct() {
        let [x, y, z] = same_home_and_tag();
        let mut rel = Relation::new(2);
        assert!(rel.insert(&x) && rel.insert(&y));
        assert_eq!(rel.table.tags.len(), 8, "both share one 8-slot probe chain");
        let idx = rel.index_on(&[0, 1]);
        rel.check_invariants();
        assert!(rel.contains(&x) && rel.contains(&y) && !rel.contains(&z));
        assert_eq!(rel.row_of(&x), Some(0));
        assert_eq!(rel.row_of(&y), Some(1));
        assert_eq!(rel.rows_matching(&idx, &x), &[0]);
        assert_eq!(rel.rows_matching(&idx, &y), &[1]);
        assert_eq!(rel.rows_matching(&idx, &z), &[] as &[u32]);
        drop(idx);
        // Retracting the absent third tuple must not hit either stored one.
        assert!(!rel.retract(&z));
        assert_eq!(rel.len(), 2);
        // Retracting the first moves the second into row 0.
        assert!(rel.retract(&x));
        rel.check_invariants();
        assert!(!rel.contains(&x) && rel.contains(&y));
        let idx = rel.index_on(&[0, 1]);
        assert_eq!(rel.rows_matching(&idx, &y), &[0]);
        assert_eq!(rel.rows_matching(&idx, &x), &[] as &[u32]);
        assert!(rel.insert(&z) && !rel.insert(&y));
        rel.check_invariants();
        assert_eq!(
            rel.rows_matching(&idx, &z),
            &[] as &[u32],
            "a held snapshot"
        );
        let idx = rel.index_on(&[0, 1]);
        assert_eq!(rel.rows_matching(&idx, &z), &[1]);
    }

    #[test]
    fn with_capacity_fills_without_growing() {
        for n in [0usize, 1, 7, 8, 100, 1_000] {
            let mut rel = Relation::with_capacity(3, n);
            let (slots, cells) = (rel.table.tags.len(), rel.arena.capacity());
            for i in 0..n as u32 {
                assert!(rel.insert(&[ElemId(i), ElemId(i / 3), ElemId(7)]));
            }
            rel.check_invariants();
            assert_eq!(rel.table.tags.len(), slots, "{n} rows grew the row table");
            assert_eq!(rel.arena.capacity(), cells, "{n} rows grew the arena");
            // The same capacity growth reaches: one more row than fits
            // (or the first row of an empty table) grows.
            let mut grown = Relation::new(3);
            for i in 0..n as u32 {
                grown.insert(&[ElemId(i), ElemId(i / 3), ElemId(7)]);
            }
            assert_eq!(grown.table.tags.len(), slots, "{n} rows");
        }
    }

    #[test]
    #[should_panic(expected = "relation invariant: row table")]
    fn check_invariants_detects_a_lost_tag() {
        let mut rel = Relation::new(1);
        rel.insert(&[ElemId(5)]);
        let slot = rel
            .table
            .tags
            .iter()
            .position(|&t| t != RowTable::FREE)
            .unwrap();
        rel.table.tags[slot] = rel.table.tags[slot].wrapping_add(1).max(1);
        rel.check_invariants();
    }

    #[test]
    #[should_panic(expected = "more than u32::MAX − 1")]
    fn dense_ids_stop_below_u32_max() {
        dense_id(u32::MAX as usize, "rows");
    }

    #[test]
    fn zero_ary_retract() {
        let mut rel = Relation::new(0);
        assert!(!rel.retract(&[]));
        assert!(rel.insert(&[]));
        assert!(rel.retract(&[]));
        assert!(rel.is_empty());
        assert!(!rel.contains(&[]));
        assert!(rel.insert(&[]));
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn generation_counts_tuple_set_mutations() {
        let mut rel = Relation::new(1);
        assert_eq!(rel.generation(), 0);
        rel.insert(&[ElemId(1)]);
        rel.insert(&[ElemId(1)]); // duplicate: no mutation
        assert_eq!(rel.generation(), 1);
        rel.retract(&[ElemId(7)]); // absent: no mutation
        assert_eq!(rel.generation(), 1);
        rel.retract(&[ElemId(1)]);
        assert_eq!(rel.generation(), 2);
        rel.clear(); // already empty: no mutation
        assert_eq!(rel.generation(), 2);
        rel.insert(&[ElemId(2)]);
        rel.clear();
        assert_eq!(rel.generation(), 4);
        assert_eq!(rel.clone().generation(), 4, "clones keep the history");
    }

    #[test]
    fn structure_retract_is_copy_on_write() {
        let (s, v) = triangle();
        let e = s.signature().lookup("e").unwrap();
        let mut copy = s.clone();
        // Retracting an absent tuple is a read: sharing stays intact.
        assert!(!copy.retract(e, &[v[0], v[0]]));
        assert!(copy.relation(e).shares_storage(s.relation(e)));
        // A genuine retract un-shares exactly the written relation.
        assert!(copy.retract(e, &[v[0], v[1]]));
        assert!(!copy.relation(e).shares_storage(s.relation(e)));
        assert!(!copy.holds(e, &[v[0], v[1]]));
        assert!(s.holds(e, &[v[0], v[1]]), "original untouched");
        assert_eq!(s.atom_count(), 6);
        assert_eq!(copy.atom_count(), 5);
    }

    #[test]
    fn restricted_is_the_inverse_of_extended_shared() {
        let (s, v) = triangle();
        let e = s.signature().lookup("e").unwrap();
        let ext_sig = Arc::new(s.signature().extend_with([("reach", 1)]));
        let mut ext = s.extended_shared(&ext_sig);
        let reach = ext.signature().lookup("reach").unwrap();
        ext.insert(reach, &[v[0]]);
        let base = ext.restricted(s.signature());
        assert!(Arc::ptr_eq(base.signature(), s.signature()));
        assert_eq!(base.signature().len(), 1);
        assert_eq!(base.atom_count(), 6);
        assert!(
            base.relation(e).shares_storage(ext.relation(e)),
            "restriction shares the prefix relations copy-on-write"
        );
    }

    #[test]
    #[should_panic(expected = "not a prefix")]
    fn restricted_rejects_non_prefix_signatures() {
        let (s, _) = triangle();
        let other = Arc::new(Signature::from_pairs([("f", 2)]));
        let _ = s.restricted(&other);
    }

    #[test]
    fn indexes_built_through_either_holder_serve_shared_rows() {
        let (s, v) = triangle();
        let e = s.signature().lookup("e").unwrap();
        let (ext, _) = s.extended([("reach", 1)]);
        // Build the index through the extension only: the shared core
        // caches it, so the base structure's probes are warm too.
        let idx = ext.relation(e).index_on(&[1]);
        assert_eq!(s.relation(e).rows_matching(&idx, &[v[1]]).len(), 2);
        assert!(ext.relation(e).shares_storage(s.relation(e)));
    }
}
