//! # mdtw-core
//!
//! The core contribution of *Monadic Datalog over Finite Structures with
//! Bounded Treewidth* (Gottlob, Pichler & Wei, PODS 2007): monadic datalog
//! over τ_td put to work.
//!
//! * [`three_col`] — the 3-Colorability program of Figure 5 (§5.1), as a
//!   direct dynamic program over the nice decomposition (the role the
//!   authors' C++ prototype plays) with witness extraction;
//! * [`primality`] — the PRIMALITY decision program of Figure 6 (§5.2) and
//!   the linear-time enumeration of §5.3 (Theorem 5.4);
//! * [`lowering`] — the succinct program materialized as ground monadic
//!   datalog (the Theorem 5.1 "succinct representation" argument made
//!   executable, and the §6 optimization-(1) ablation);
//! * [`abduction`] — the §7 bridge to propositional abduction over
//!   definite Horn theories (relevance ≈ primality).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abduction;
pub mod lowering;
pub mod primality;
pub mod three_col;

pub use abduction::{instance_from_clauses, AbductionInstance};
pub use lowering::{ground_three_col, GroundThreeCol};
pub use primality::{
    enumerate_primes, is_3nf_fpt, is_prime_fpt, is_prime_fpt_with_td, prime_attributes_fpt,
    third_nf_violations_fpt, PrimState, PrimStats, PrimTables, PrimalityContext,
};
pub use three_col::{is_three_colorable_fpt, three_coloring_fpt, ThreeColSolver};
