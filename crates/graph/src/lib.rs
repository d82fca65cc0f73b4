//! # mdtw-graph
//!
//! Graphs for the *Monadic Datalog over Finite Structures with Bounded
//! Treewidth* reproduction: the input domain of the §5.1 3-Colorability
//! algorithm, bounded-treewidth generators (random partial k-trees,
//! decomposition-first as in the paper's §6 workloads), exact exponential
//! 3-coloring baselines, the τ = {e} structure encoding, and the bag-local
//! colourings of Figure 5 that the `mdtw-core` and `mdtw-fta` evaluators
//! share ([`bag_coloring`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bag_coloring;
pub mod coloring;
pub mod encode;
pub mod generators;
#[allow(clippy::module_inception)]
mod graph;

pub use bag_coloring::{BagAdjacency, BagColoring, MAX_TRIANGLE_BAG};
pub use coloring::{
    is_proper_coloring, is_three_colorable_exact, three_color_backtracking, Coloring,
};
pub use encode::{encode_graph, graph_signature};
pub use generators::{complete, cycle, grid, partial_k_tree, path, petersen, wheel};
pub use graph::Graph;
