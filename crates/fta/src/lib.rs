//! # mdtw-fta
//!
//! Bottom-up finite tree automata for the *Monadic Datalog over Finite
//! Structures with Bounded Treewidth* reproduction: the classical
//! MSO-to-FTA route to Courcelle's Theorem that the paper's monadic
//! datalog approach replaces.
//!
//! * [`automaton`] — nondeterministic bottom-up tree automata with
//!   linear-time on-the-fly runs over a decomposition
//!   [`Tree`](mdtw_decomp::Tree) with one [`Symbol`] per node;
//! * [`determinize`](mod@crate::determinize) — the subset construction over a full alphabet, with
//!   an explicit budget: this is where MONA-style pipelines suffer the
//!   "state explosion" of the paper's §1/§6. Its result is an [`Nfta`]
//!   with one target per transition key;
//! * [`three_col`] — the 3-Colorability automaton: nondeterministic runs
//!   reproduce Figure 5, determinization-first reproduces the baseline's
//!   blow-up.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod automaton;
pub mod determinize;
pub mod three_col;

pub use automaton::{Nfta, State, Symbol};
pub use determinize::{determinize, DetBudget, Exploded};
pub use three_col::{
    encode_three_col, full_alphabet, full_alphabet_len, mona_style_3col, nfta_3col, three_col_nfta,
    BagTooWide, SymbolTable, ThreeColSym,
};
