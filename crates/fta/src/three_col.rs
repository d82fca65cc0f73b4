//! The 3-Colorability tree automaton: the MSO-to-FTA route (paper §1)
//! applied to the §5.1 problem, as a baseline against the monadic datalog
//! solver.
//!
//! Each node of the nice tree decomposition gets a symbol carrying the
//! bag-local information (bag size, edges inside the bag, the
//! introduced/forgotten position); the automaton's states are the bag
//! colorings. Running the *nondeterministic* automaton is exactly the
//! dynamic program of Figure 5; what makes this module a baseline is
//! [`mona_style_3col`], which first **determinizes** over the full
//! alphabet the way MONA-style tools do — the subset construction over
//! `3^|bag|` states is the "state explosion" the paper reports.
//!
//! The states and the transitions' bag-local steps (introduce, forget,
//! properness under a symbol's edge bitmap) are
//! [`mdtw_graph::bag_coloring`]'s, shared with the Figure 5 dynamic
//! program and Horn lowering of `mdtw-core`. A symbol's edge bitmap is a
//! `u64` with one bit per pair of bag positions, so the automaton reads
//! bags of at most [`MAX_TRIANGLE_BAG`] (11) elements.

use crate::automaton::{Nfta, Symbol};
use crate::determinize::{determinize, DetBudget, Exploded};
use mdtw_decomp::{NiceKind, NiceTd};
use mdtw_graph::{BagAdjacency, BagColoring, Graph, MAX_TRIANGLE_BAG};
use mdtw_structure::fx::FxHashMap;

/// A bag-local alphabet symbol for the 3-Colorability automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreeColSym {
    /// Leaf bag: size and internal edge bitmap.
    Leaf {
        /// Bag size.
        n: u8,
        /// Triangular bitmap of edges among bag positions.
        edges: u64,
    },
    /// Introduce node: the new vertex sits at `vpos` of the node bag.
    Intro {
        /// Node bag size (including the introduced vertex).
        n: u8,
        /// Edge bitmap of the node bag.
        edges: u64,
        /// Introduced position.
        vpos: u8,
    },
    /// Forget node: the vertex at `vpos` of the *child* bag disappears.
    Forget {
        /// Child bag size.
        child_n: u8,
        /// Forgotten position (in the child bag).
        vpos: u8,
    },
    /// Branch node over bags of size `n`.
    Branch {
        /// Bag size.
        n: u8,
    },
}

/// A symbol table interning [`ThreeColSym`]s.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Symbol data (index = interned [`Symbol`]).
    pub symbols: Vec<ThreeColSym>,
    index: FxHashMap<ThreeColSym, Symbol>,
}

impl SymbolTable {
    /// Interns a symbol.
    pub fn intern(&mut self, sym: ThreeColSym) -> Symbol {
        if let Some(&i) = self.index.get(&sym) {
            return i;
        }
        let i = self.symbols.len() as Symbol;
        self.index.insert(sym, i);
        self.symbols.push(sym);
        i
    }

    /// The `(symbol, rank)` alphabet.
    pub fn alphabet(&self) -> Vec<(Symbol, u8)> {
        self.symbols
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let rank = match s {
                    ThreeColSym::Leaf { .. } => 0,
                    ThreeColSym::Intro { .. } | ThreeColSym::Forget { .. } => 1,
                    ThreeColSym::Branch { .. } => 2,
                };
                (i as Symbol, rank)
            })
            .collect()
    }
}

/// The *input-independent* alphabet for decompositions of bag size up to
/// `max_bag`: every bag size, every internal edge bitmap, every
/// introduced/forgotten position. This is what a MONA-style pipeline
/// compiles the formula against before any input arrives — the alphabet
/// alone is exponential in the width (see [`full_alphabet_len`]), which is
/// why the paper's direct MSO-to-FTA attempt "led to failure yet before we
/// were able to feed any input data to the program".
///
/// # Panics
/// Panics if `max_bag` exceeds [`MAX_TRIANGLE_BAG`].
pub fn full_alphabet(max_bag: usize) -> SymbolTable {
    assert!(
        max_bag <= MAX_TRIANGLE_BAG,
        "{max_bag}-bags overflow the edge bitmap"
    );
    let mut table = SymbolTable::default();
    for n in 1..=max_bag as u8 {
        let pairs = n * (n - 1) / 2;
        for edges in 0..(1u64 << pairs) {
            table.intern(ThreeColSym::Leaf { n, edges });
            for vpos in 0..n {
                table.intern(ThreeColSym::Intro { n, edges, vpos });
            }
        }
        for vpos in 0..n {
            table.intern(ThreeColSym::Forget { child_n: n, vpos });
        }
        table.intern(ThreeColSym::Branch { n });
    }
    table
}

/// The number of symbols of [`full_alphabet`]`(max_bag)` in closed form,
/// saturating at `usize::MAX`: `Σₙ ((n+1)·2^(n(n−1)/2) + n + 1)` over bag
/// sizes `n ≤ max_bag` — per edge bitmap a leaf and `n` introduce
/// symbols, then `n` forget symbols and a branch symbol.
pub fn full_alphabet_len(max_bag: usize) -> usize {
    (1..=max_bag).fold(0usize, |total, n| {
        let per_n = u32::try_from(n.saturating_mul(n - 1) / 2)
            .ok()
            .and_then(|pairs| 1usize.checked_shl(pairs))
            .and_then(|bitmaps| bitmaps.checked_mul(n + 1))
            .map_or(usize::MAX, |symbols| symbols.saturating_add(n + 1));
        total.saturating_add(per_n)
    })
}

/// A decomposition with a bag wider than the automaton's symbols encode:
/// more than [`MAX_TRIANGLE_BAG`] elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BagTooWide {
    /// The size of the widest bag.
    pub size: usize,
}

impl std::fmt::Display for BagTooWide {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "a bag of {} elements exceeds the automaton's limit of {MAX_TRIANGLE_BAG}",
            self.size
        )
    }
}

impl std::error::Error for BagTooWide {}

/// Encodes the decomposition as one symbol of `table` per node, indexed
/// by [`NodeId::index`](mdtw_decomp::NodeId::index) (linear time; interns
/// any missing symbols). Fails on a bag of more than [`MAX_TRIANGLE_BAG`]
/// elements.
pub fn encode_three_col(
    graph: &Graph,
    td: &NiceTd,
    table: &mut SymbolTable,
) -> Result<Vec<Symbol>, BagTooWide> {
    let size = td.width() + 1;
    if size > MAX_TRIANGLE_BAG {
        return Err(BagTooWide { size });
    }
    let symbols = td.node_ids().map(|id| {
        let bag = td.bag(id);
        let n = bag.len() as u8;
        let edges = || BagAdjacency::of_bag(graph, bag).triangle();
        let sym = match td.kind(id) {
            NiceKind::Leaf => ThreeColSym::Leaf { n, edges: edges() },
            NiceKind::Introduce(v) => ThreeColSym::Intro {
                n,
                edges: edges(),
                vpos: bag.binary_search(&v).expect("introduced in bag") as u8,
            },
            NiceKind::Forget(v) => {
                let child = td.children(id).next().expect("one child");
                let child_bag = td.bag(child);
                ThreeColSym::Forget {
                    child_n: child_bag.len() as u8,
                    vpos: child_bag.binary_search(&v).expect("forgotten in child") as u8,
                }
            }
            NiceKind::Branch => ThreeColSym::Branch { n },
        };
        table.intern(sym)
    });
    Ok(symbols.collect())
}

/// Global state interner: `(bag size, colouring)` ↔ state id.
#[derive(Debug, Default)]
struct StateSpace {
    index: FxHashMap<(u8, BagColoring), u32>,
}

impl StateSpace {
    fn intern(&mut self, n: u8, c: BagColoring) -> u32 {
        let next = self.index.len() as u32;
        *self.index.entry((n, c)).or_insert(next)
    }
}

/// Builds the nondeterministic 3-Colorability automaton over the given
/// alphabet. Accepts a colored decomposition tree iff the underlying
/// graph is 3-colorable.
pub fn three_col_nfta(symbols: &[ThreeColSym]) -> Nfta {
    let mut space = StateSpace::default();
    let mut nfta = Nfta::default();
    for (si, sym) in symbols.iter().enumerate() {
        let si = si as Symbol;
        match *sym {
            ThreeColSym::Leaf { n, edges } => {
                let adj = BagAdjacency::from_triangle(n.into(), edges);
                let states = adj.proper_colorings().map(|c| space.intern(n, c)).collect();
                nfta.leaf.insert(si, states);
            }
            ThreeColSym::Intro { n, edges, vpos } => {
                let adj = BagAdjacency::from_triangle(n.into(), edges);
                for c in BagColoring::all(usize::from(n) - 1) {
                    let child = space.intern(n - 1, c);
                    let outs = c
                        .extensions(vpos.into())
                        .into_iter()
                        .filter(|&e| adj.is_proper(e))
                        .map(|e| space.intern(n, e))
                        .collect();
                    nfta.unary.insert((si, child), outs);
                }
            }
            ThreeColSym::Forget { child_n, vpos } => {
                for c in BagColoring::all(child_n.into()) {
                    let child = space.intern(child_n, c);
                    let target = space.intern(child_n - 1, c.drop(vpos.into()));
                    nfta.unary.insert((si, child), vec![target]);
                }
            }
            ThreeColSym::Branch { n } => {
                for c in BagColoring::all(n.into()) {
                    let q = space.intern(n, c);
                    nfta.binary.insert((si, q, q), vec![q]);
                }
            }
        }
    }
    nfta.n_states = space.index.len() as u32;
    nfta.finals = (0..nfta.n_states).collect();
    nfta
}

/// Linear-time decision via the nondeterministic automaton over the
/// input's own symbols (this *is* the Figure 5 dynamic program in
/// automaton clothing). Fails on a bag of more than [`MAX_TRIANGLE_BAG`]
/// elements.
pub fn nfta_3col(graph: &Graph, td: &NiceTd) -> Result<bool, BagTooWide> {
    let mut table = SymbolTable::default();
    let symbols = encode_three_col(graph, td, &mut table)?;
    Ok(three_col_nfta(&table.symbols).accepts(td, &symbols))
}

/// MONA-style decision: build the automaton over the **full width-w
/// alphabet**, determinize it (input-independently!), then run the
/// deterministic automaton over the input. The preprocessing is
/// exponential in the width — expect [`Exploded`] beyond width 2 with
/// realistic budgets, mirroring the paper's §6 experience.
///
/// A total deterministic automaton needs a transition for every leaf and
/// unary symbol. When [`full_alphabet_len`] says those alone exceed
/// `budget.max_transitions`, or a bag exceeds [`MAX_TRIANGLE_BAG`], this
/// reports [`Exploded`] with `states: 0` and that least transition count,
/// without building the alphabet.
pub fn mona_style_3col(
    graph: &Graph,
    td: &NiceTd,
    budget: DetBudget,
) -> Result<(bool, Nfta), Exploded> {
    let max_bag = td.width() + 1;
    // Every bag size has exactly one (rank-2) branch symbol.
    let transitions = full_alphabet_len(max_bag).saturating_sub(max_bag);
    if max_bag > MAX_TRIANGLE_BAG || transitions > budget.max_transitions {
        return Err(Exploded {
            states: 0,
            transitions,
        });
    }
    let mut table = full_alphabet(max_bag);
    let symbols = encode_three_col(graph, td, &mut table).expect("bag sizes checked above");
    let nfta = three_col_nfta(&table.symbols);
    let dfta = determinize(&nfta, &table.alphabet(), budget)?;
    Ok((dfta.accepts(td, &symbols), dfta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdtw_decomp::{decompose, Heuristic, NiceOptions, TreeDecomposition};
    use mdtw_graph::{complete, cycle, encode_graph, partial_k_tree, petersen, wheel};
    use mdtw_structure::ElemId;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn nice_of(g: &Graph) -> NiceTd {
        let s = encode_graph(g);
        let td = decompose(&s, Heuristic::MinFill);
        NiceTd::from_td(&td, NiceOptions::default())
    }

    #[test]
    fn nfta_matches_known_instances() {
        for (g, expect) in [
            (cycle(5), true),
            (cycle(6), true),
            (complete(4), false),
            (wheel(5), false),
            (wheel(6), true),
            (petersen(), true),
        ] {
            let td = nice_of(&g);
            assert_eq!(nfta_3col(&g, &td), Ok(expect), "{g}");
        }
    }

    #[test]
    fn nfta_matches_backtracking_on_random_inputs() {
        let mut rng = SmallRng::seed_from_u64(5);
        for i in 0..15 {
            let (g, td) = partial_k_tree(&mut rng, 12 + i, 2 + (i % 2), 0.75);
            let nice = NiceTd::from_td(&td, NiceOptions::default());
            assert_eq!(
                nfta_3col(&g, &nice),
                Ok(mdtw_graph::is_three_colorable_exact(&g)),
                "instance {i}"
            );
        }
    }

    #[test]
    fn bags_over_eleven_elements_are_rejected() {
        for (n, expect) in [(11, Ok(false)), (12, Err(BagTooWide { size: 12 }))] {
            let g = complete(n);
            let td = TreeDecomposition::singleton((0..n as u32).map(ElemId).collect());
            let nice = NiceTd::from_td(&td, NiceOptions::default());
            assert_eq!(nfta_3col(&g, &nice), expect, "{g}");
            let mut table = SymbolTable::default();
            assert_eq!(encode_three_col(&g, &nice, &mut table).err(), expect.err());
        }
    }

    #[test]
    fn mona_style_agrees_when_it_fits() {
        // Small width: determinization fits and agrees with the NFTA.
        for g in [cycle(5), cycle(6), complete(3)] {
            let td = nice_of(&g);
            let budget = DetBudget {
                max_states: 20_000,
                max_transitions: 1 << 21,
            };
            let (got, dfta) = mona_style_3col(&g, &td, budget).unwrap();
            assert_eq!(Ok(got), nfta_3col(&g, &td), "{g}");
            assert!(dfta.n_states > 1);
        }
    }

    #[test]
    fn mona_style_explodes_at_moderate_width() {
        // Width 4 (bags of 5): the full alphabet has thousands of symbols
        // and the total transition tables blow past a realistic budget —
        // the paper's "state explosion".
        let mut rng = SmallRng::seed_from_u64(9);
        let (g, td) = partial_k_tree(&mut rng, 16, 4, 1.0);
        let nice = NiceTd::from_td(&td, NiceOptions::default());
        let err = mona_style_3col(
            &g,
            &nice,
            DetBudget {
                max_states: 512,
                max_transitions: 1 << 16,
            },
        )
        .unwrap_err();
        assert!(err.states > 0 || err.transitions > 0);
    }

    #[test]
    fn mona_style_checks_the_budget_before_the_alphabet() {
        // Width 6: the 17 million symbols of `full_alphabet(7)` would take
        // gigabytes; its leaf, introduce and forget symbols alone exceed
        // the default budget of 4.2 million transitions.
        let mut rng = SmallRng::seed_from_u64(6);
        let (g, td) = partial_k_tree(&mut rng, 12, 6, 1.0);
        let nice = NiceTd::from_td(&td, NiceOptions::default());
        assert_eq!(nice.width(), 6);
        let err = mona_style_3col(&g, &nice, DetBudget::default()).unwrap_err();
        assert_eq!(
            err,
            Exploded {
                states: 0,
                transitions: full_alphabet_len(7) - 7
            }
        );
    }

    #[test]
    fn full_alphabet_sizes_grow_exponentially() {
        let lens: Vec<usize> = (1..=7).map(full_alphabet_len).collect();
        assert_eq!(lens, [4, 13, 49, 374, 6_524, 235_907, 17_013_131]);
        for (max_bag, &len) in lens.iter().enumerate().take(5) {
            assert_eq!(full_alphabet(max_bag + 1).symbols.len(), len);
        }
        assert_eq!(full_alphabet_len(12), usize::MAX);
    }

    #[test]
    fn proper_check() {
        // Two positions joined by an edge: same class is improper.
        let edge = BagAdjacency::from_triangle(2, 1);
        let proper = |r, g| edge.is_proper(BagColoring { r, g });
        assert!(!proper(0b11, 0)); // both red
        assert!(proper(0b01, 0b10)); // red/green
        assert!(!proper(0, 0)); // both blue
        let no_edge = BagAdjacency::from_triangle(2, 0);
        assert!(no_edge.is_proper(BagColoring { r: 0b11, g: 0 })); // no edge: both red fine
    }
}
