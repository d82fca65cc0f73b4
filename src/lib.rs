//! # mdtw
//!
//! Facade crate for the *Monadic Datalog over Finite Structures with
//! Bounded Treewidth* reproduction (Gottlob, Pichler & Wei, PODS 2007).
//!
//! Re-exports every layer of the pipeline so downstream users (and the
//! workspace examples) can depend on a single crate:
//!
//! * [`structure`] — finite τ-structures (§2.2);
//! * [`graph`] — graphs, generators and the τ = {e} encoding (§5.1);
//! * [`schema`] — relational schemas, FDs and the τ = {fd, att, lh, rh}
//!   encoding (§2.1–2.2);
//! * [`decomp`] — tree decompositions and their normal forms (§2.2, §5);
//! * [`datalog`] — the stratified / quasi-guarded datalog engine (§2.4, §4),
//!   fronted by the [`Evaluator`](mdtw_datalog::Evaluator) session API,
//!   with plan explanations, evaluation profiles and the `mdtw-explain`
//!   binary that dry-runs `.dl` files ([`datalog::dry_run`]);
//! * [`mso`] — MSO formulas, types, and the Theorem 4.5 compilation (§3–4);
//! * [`fta`] — the classical MSO-to-tree-automata baseline;
//! * [`core`] — the §5 solvers: 3-Colorability (Figure 5), PRIMALITY
//!   (Figure 6), enumeration (§5.3) and the §7 abduction bridge.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mdtw_core as core;
pub use mdtw_datalog as datalog;
pub use mdtw_decomp as decomp;
pub use mdtw_fta as fta;
pub use mdtw_graph as graph;
pub use mdtw_mso as mso;
pub use mdtw_schema as schema;
pub use mdtw_structure as structure;

/// The most common end-to-end entry points, re-exported flat.
///
/// Datalog evaluation goes through the [`Evaluator`](mdtw_datalog::Evaluator)
/// session API — construct once per program, evaluate per structure.
pub mod prelude {
    pub use mdtw_core::{
        enumerate_primes, is_prime_fpt, is_prime_fpt_with_td, prime_attributes_fpt,
        PrimalityContext, ThreeColSolver,
    };
    pub use mdtw_datalog::{
        parse_program, stratify, CancelToken, Engine, EvalError, EvalLimits, EvalOptions,
        EvalProfile, EvalResult, Evaluator, Explanation, LimitKind, MaterializedView, Span,
        Stratification, StratificationError, Update,
    };
    pub use mdtw_decomp::{decompose, Heuristic, NiceOptions, NiceTd, TreeDecomposition, TupleTd};
    pub use mdtw_graph::{encode_graph, Graph};
    pub use mdtw_schema::{encode_schema, Schema};
    pub use mdtw_structure::{Domain, ElemId, Signature, Structure};
}
