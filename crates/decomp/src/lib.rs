//! # mdtw-decomp
//!
//! Tree decompositions for the *Monadic Datalog over Finite Structures with
//! Bounded Treewidth* reproduction (Gottlob, Pichler & Wei, PODS 2007).
//!
//! This crate provides the entire decomposition substrate of the paper:
//!
//! * [`tree`] — the one flat layout ([`Tree`]) behind all three forms
//!   below; [`TreeDecomposition`] — rooted decompositions with set bags
//!   (§2.2), with full validation of the three decomposition conditions;
//! * [`heuristics`] — construction by min-degree / min-fill elimination
//!   orders plus an exact exponential treewidth algorithm for small
//!   instances (Bodlaender's linear-time algorithm \[3\] is impractical and
//!   the paper itself generates decompositions directly);
//! * [`TupleTd`] — the normal form of Definition 2.3 (tuple bags;
//!   permutation / element-replacement / branch nodes) with the
//!   Proposition 2.4 normalization pipeline;
//! * [`NiceTd`] — the modified ("nice") normal form of §5 (leaf /
//!   introduce / forget / branch) including the §5.3 refinements;
//! * [`encode_tuple_td`] — the τ_td structure `𝒜_td` of §4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encode;
pub mod heuristics;
pub mod nice;
pub mod tree;
pub mod tuple_normal;
pub mod validate;

pub use encode::{encode_tuple_td, TdEncoding};
pub use heuristics::{
    decompose, decompose_with_order, elimination_order, exact_treewidth, Heuristic, PrimalGraph,
};
pub use nice::{augment_bags, NiceKind, NiceOptions, NiceTd};
pub use tree::{Children, NodeId, Tree, TreeDecomposition};
pub use tuple_normal::{NormalizeError, TupleNodeKind, TupleTd};
pub use validate::TdViolation;
