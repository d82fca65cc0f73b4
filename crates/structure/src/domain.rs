//! Interned domains: the universe `A = dom(𝒜)` of a finite structure.

use crate::fx::FxHasher;
use crate::structure::RowTable;
use std::fmt::{self, Write};
use std::hash::Hasher;

/// Identifier of a domain element.
///
/// Elements are interned integers; the display name is kept in the
/// [`Domain`] for rendering and parsing only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElemId(pub u32);

impl ElemId {
    /// The index of this element inside its domain.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ElemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A finite domain with named, interned elements.
///
/// # Layout
///
/// The names are stored flat, with no allocation per element:
///
/// * every name lives in one `String` arena, in element order: element
///   `e`'s name is `names[ends[e − 1]..ends[e]]` (with `ends[−1] = 0`), so
///   the offsets cost one `u32` per element;
/// * names are deduplicated by the open-addressing table relations use
///   for their rows: its slots hold element ids (dense, like row ids) and
///   a probe compares the probed name with the arena in place.
///
/// A domain of `n` elements whose names total `b` bytes thus occupies `b`
/// bytes of names, `4n` bytes of offsets and a table of five bytes per
/// slot, of which between 7/16 and 7/8 are used. [`insert`](Self::insert), [`intern`](Self::intern),
/// [`lookup`](Self::lookup) and [`from_names`](Self::from_names) allocate
/// nothing per element (only when an array doubles), and cloning a
/// domain copies its four arrays with one `memcpy` each.
#[derive(Debug, Clone, Default)]
pub struct Domain {
    /// Every name, concatenated in element order.
    names: String,
    /// `ends[e]` is the end of element `e`'s name in `names`.
    ends: Vec<u32>,
    /// The element ids, hashed by name.
    table: RowTable,
}

/// The hash of a name: the workspace [`FxHasher`] over its bytes, with the
/// high half folded into the low half. A name of up to eight bytes is one
/// Fx round, a multiplication, whose low bits depend only on the name's
/// first bytes; the table picks slots by the low bits, so without the fold
/// names like `u17`, `u18`, … would crowd into a few probe chains.
#[inline]
fn hash_name(name: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(name.as_bytes());
    let h = h.finish();
    h ^ (h >> 32)
}

/// The name of element `e` in the arena `names` with end offsets `ends`.
#[inline]
fn name_at<'a>(names: &'a str, ends: &[u32], e: u32) -> &'a str {
    let e = e as usize;
    let start = if e == 0 { 0 } else { ends[e - 1] as usize };
    &names[start..ends[e] as usize]
}

impl Domain {
    /// Creates an empty domain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty domain with room for `elems` elements whose names
    /// total `name_bytes` bytes: filling it to that size reallocates and
    /// rehashes nothing.
    pub fn with_capacity(elems: usize, name_bytes: usize) -> Self {
        Self {
            names: String::with_capacity(name_bytes),
            ends: Vec::with_capacity(elems),
            table: RowTable::with_capacity(elems),
        }
    }

    /// Creates a domain with elements named by the given iterator.
    ///
    /// # Panics
    /// Panics on duplicate names.
    pub fn from_names<I>(names: I) -> Self
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let mut d = Self::new();
        for n in names {
            d.insert(n);
        }
        d
    }

    /// Creates an anonymous domain of `n` elements named `x0..x{n-1}`.
    pub fn anonymous(n: usize) -> Self {
        let mut d = Self::with_capacity(n, 0);
        let mut name = String::new();
        for i in 0..n {
            name.clear();
            write!(name, "x{i}").expect("writing to a String cannot fail");
            d.insert(&name);
        }
        d
    }

    /// Finds `name`, or else appends it as a new element: one probe
    /// either way. Returns the element and whether it is new.
    fn find_or_insert(&mut self, name: &str) -> (ElemId, bool) {
        let (names, ends) = (&self.names, &self.ends);
        let (id, new) = self.table.find_or_insert(
            hash_name(name),
            |e| name_at(names, ends, e) == name,
            |e| hash_name(name_at(names, ends, e)),
            "domain elements",
        );
        if new {
            self.names.push_str(name);
            let end = u32::try_from(self.names.len()).expect("domain names total below 4 GiB");
            self.ends.push(end);
        }
        (ElemId(id), new)
    }

    /// Interns a new element.
    ///
    /// # Panics
    /// Panics if the name is already present.
    pub fn insert(&mut self, name: impl AsRef<str>) -> ElemId {
        let name = name.as_ref();
        let (id, new) = self.find_or_insert(name);
        assert!(new, "domain element `{name}` inserted twice");
        id
    }

    /// Interns `name`, returning the existing id if already present.
    pub fn intern(&mut self, name: impl AsRef<str>) -> ElemId {
        self.find_or_insert(name.as_ref()).0
    }

    /// Looks an element up by name.
    pub fn lookup(&self, name: &str) -> Option<ElemId> {
        self.table
            .find(hash_name(name), |e| self.name(ElemId(e)) == name)
            .map(ElemId)
    }

    /// The display name of an element.
    #[inline]
    pub fn name(&self, elem: ElemId) -> &str {
        name_at(&self.names, &self.ends, elem.0)
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if the domain is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates over all elements in insertion order.
    pub fn elems(&self) -> impl Iterator<Item = ElemId> + '_ {
        (0..self.ends.len() as u32).map(ElemId)
    }

    /// True if `elem` belongs to this domain.
    #[inline]
    pub fn contains(&self, elem: ElemId) -> bool {
        elem.index() < self.ends.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_roundtrip() {
        let mut d = Domain::new();
        let a = d.insert("a");
        let b = d.insert("b");
        assert_eq!(d.lookup("a"), Some(a));
        assert_eq!(d.lookup("b"), Some(b));
        assert_eq!(d.name(a), "a");
        assert_eq!(d.len(), 2);
        assert!(d.contains(a));
        assert!(!d.contains(ElemId(7)));
    }

    #[test]
    fn intern_is_idempotent() {
        let mut d = Domain::new();
        let a1 = d.intern("a");
        let a2 = d.intern("a");
        assert_eq!(a1, a2);
        assert_eq!(d.len(), 1);
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn duplicate_insert_panics() {
        let mut d = Domain::new();
        d.insert("a");
        d.insert("a");
    }

    #[test]
    fn anonymous_domain() {
        let d = Domain::anonymous(3);
        assert_eq!(d.len(), 3);
        assert_eq!(d.name(ElemId(2)), "x2");
        assert_eq!(d.elems().count(), 3);
    }
}
