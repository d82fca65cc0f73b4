//! Relational signatures: named predicate symbols with fixed arities.

use crate::domain::{Domain, ElemId};
use std::fmt;

/// Identifier of a predicate symbol within a [`Signature`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredId(pub u32);

impl PredId {
    /// The index of this predicate inside its signature.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PredId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A relational signature τ = {R₁, …, R_K}: an ordered set of predicate
/// symbols, each with a name and an arity.
///
/// Signatures are append-only; predicates are addressed by [`PredId`].
/// The names live in a [`Domain`], the crate's flat name arena: predicate
/// `p`'s name is element `p` of it, so a signature holds every name once
/// and cloning it allocates nothing per predicate.
#[derive(Debug, Clone, Default)]
pub struct Signature {
    names: Domain,
    arities: Vec<usize>,
}

impl Signature {
    /// Creates an empty signature.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a signature from `(name, arity)` pairs.
    ///
    /// # Panics
    /// Panics if a name is declared twice.
    pub fn from_pairs<I, S>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (S, usize)>,
        S: AsRef<str>,
    {
        let mut sig = Self::new();
        for (name, arity) in pairs {
            sig.declare(name, arity);
        }
        sig
    }

    /// Declares a new predicate symbol, returning its id.
    ///
    /// # Panics
    /// Panics if `name` is already declared (signatures are sets).
    pub fn declare(&mut self, name: impl AsRef<str>, arity: usize) -> PredId {
        let name = name.as_ref();
        let fresh = self.names.len();
        let id = self.names.intern(name);
        assert!(id.index() == fresh, "predicate `{name}` declared twice");
        self.arities.push(arity);
        PredId(id.0)
    }

    /// Looks a predicate up by name.
    pub fn lookup(&self, name: &str) -> Option<PredId> {
        self.names.lookup(name).map(|e| PredId(e.0))
    }

    /// The arity of `pred`.
    #[inline]
    pub fn arity(&self, pred: PredId) -> usize {
        self.arities[pred.index()]
    }

    /// The name of `pred`.
    #[inline]
    pub fn name(&self, pred: PredId) -> &str {
        self.names.name(ElemId(pred.0))
    }

    /// Number of predicate symbols.
    #[inline]
    pub fn len(&self) -> usize {
        self.arities.len()
    }

    /// True if no predicates are declared.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.arities.is_empty()
    }

    /// Iterates over all predicate ids in declaration order.
    pub fn preds(&self) -> impl Iterator<Item = PredId> + '_ {
        (0..self.arities.len() as u32).map(PredId)
    }

    /// The maximum arity over all predicates (0 for an empty signature).
    pub fn max_arity(&self) -> usize {
        self.arities.iter().copied().max().unwrap_or(0)
    }

    /// Returns a new signature extending `self` with the τ_td predicates of
    /// the paper (Section 4): `root/1`, `leaf/1`, `child1/2`, `child2/2` and
    /// `bag/(w+2)` for decomposition width `w`.
    ///
    /// Two auxiliary predicates are added beyond the paper's five:
    /// `branch/1` (the node has two children) and `same/2` (the identity
    /// relation on the domain). Both are derivable in linear time during
    /// encoding; the generic rules of Theorem 4.5 need them as guards to
    /// be *executable* datalog — the proof's rule schemas implicitly
    /// assume the node kind (permutation / replacement / branch) is known,
    /// which plain `child1`/`bag` atoms cannot discriminate.
    pub fn extend_td(&self, width: usize) -> Signature {
        self.extend_with([
            ("root", 1),
            ("leaf", 1),
            ("child1", 2),
            ("child2", 2),
            ("bag", width + 2),
            ("branch", 1),
            ("same", 2),
        ])
    }

    /// Returns a new signature extending `self` with the given
    /// `(name, arity)` pairs (existing predicates keep their ids). Used by
    /// the τ_td encoding and by the stratified datalog evaluator, which
    /// materializes lower strata as fresh extensional predicates.
    ///
    /// # Panics
    /// Panics if a name is already declared (signatures are sets).
    pub fn extend_with<I, S>(&self, pairs: I) -> Signature
    where
        I: IntoIterator<Item = (S, usize)>,
        S: AsRef<str>,
    {
        let mut sig = self.clone();
        for (name, arity) in pairs {
            sig.declare(name, arity);
        }
        sig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_lookup() {
        let mut sig = Signature::new();
        let e = sig.declare("e", 2);
        let v = sig.declare("v", 1);
        assert_eq!(sig.lookup("e"), Some(e));
        assert_eq!(sig.lookup("v"), Some(v));
        assert_eq!(sig.lookup("missing"), None);
        assert_eq!(sig.arity(e), 2);
        assert_eq!(sig.name(v), "v");
        assert_eq!(sig.len(), 2);
        assert_eq!(sig.max_arity(), 2);
    }

    #[test]
    #[should_panic(expected = "declared twice")]
    fn duplicate_declaration_panics() {
        let mut sig = Signature::new();
        sig.declare("e", 2);
        sig.declare("e", 2);
    }

    #[test]
    fn from_pairs_preserves_order() {
        let sig = Signature::from_pairs([("fd", 1), ("att", 1), ("lh", 2), ("rh", 2)]);
        assert_eq!(sig.name(PredId(0)), "fd");
        assert_eq!(sig.name(PredId(3)), "rh");
        assert_eq!(sig.preds().count(), 4);
    }

    #[test]
    fn extend_with_appends_fresh_predicates() {
        let sig = Signature::from_pairs([("e", 2)]);
        let ext = sig.extend_with([("reach", 1), ("pair", 2)]);
        assert_eq!(ext.len(), 3);
        assert_eq!(ext.lookup("e"), sig.lookup("e"));
        assert_eq!(ext.arity(ext.lookup("reach").unwrap()), 1);
        assert_eq!(ext.arity(ext.lookup("pair").unwrap()), 2);
        assert_eq!(sig.len(), 1);
    }

    #[test]
    fn extend_td_adds_td_predicates() {
        let sig = Signature::from_pairs([("e", 2)]);
        let td = sig.extend_td(3);
        assert_eq!(td.len(), 8);
        assert_eq!(td.arity(td.lookup("bag").unwrap()), 5);
        assert_eq!(td.arity(td.lookup("child1").unwrap()), 2);
        assert_eq!(td.arity(td.lookup("branch").unwrap()), 1);
        assert_eq!(td.arity(td.lookup("same").unwrap()), 2);
        // Base predicates keep their ids.
        assert_eq!(td.lookup("e"), sig.lookup("e"));
        // The original signature is untouched.
        assert_eq!(sig.len(), 1);
    }
}
