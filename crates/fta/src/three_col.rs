//! The 3-Colorability tree automaton: the MSO-to-FTA route (paper §1)
//! applied to the §5.1 problem, as a baseline against the monadic datalog
//! solver.
//!
//! The nice tree decomposition is encoded as a colored tree whose symbols
//! carry the bag-local information (bag size, edges inside the bag, the
//! introduced/forgotten position); the automaton's states are the bag
//! colorings. Running the *nondeterministic* automaton is exactly the
//! dynamic program of Figure 5; what makes this module a baseline is
//! [`mona_style_3col`], which first **determinizes** over the full
//! alphabet the way MONA-style tools do — the subset construction over
//! `3^|bag|` states is the "state explosion" the paper reports.

use crate::automaton::Nfta;
use crate::determinize::{determinize, DetBudget, Dfta, Exploded};
use crate::tree::{ColoredTree, Symbol};
use mdtw_decomp::{NiceKind, NiceTd};
use mdtw_graph::Graph;
use mdtw_structure::fx::FxHashMap;

/// A bag-local alphabet symbol for the 3-Colorability automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreeColSym {
    /// Leaf bag: size and internal edge bitmap.
    Leaf {
        /// Bag size.
        n: u8,
        /// Triangular bitmap of edges among bag positions.
        edges: u32,
    },
    /// Introduce node: the new vertex sits at `vpos` of the node bag.
    Intro {
        /// Node bag size (including the introduced vertex).
        n: u8,
        /// Edge bitmap of the node bag.
        edges: u32,
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

/// Triangular pair index for `i < j`.
#[inline]
fn pair_bit(i: usize, j: usize) -> u32 {
    debug_assert!(i < j);
    1u32 << (j * (j - 1) / 2 + i)
}

fn edges_of_bag(graph: &Graph, bag: &[mdtw_structure::ElemId]) -> u32 {
    let mut out = 0u32;
    for j in 1..bag.len() {
        for i in 0..j {
            if graph.has_edge(bag[i].0, bag[j].0) {
                out |= pair_bit(i, j);
            }
        }
    }
    out
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
/// alone is exponential in the width, which is why the paper's direct
/// MSO-to-FTA attempt "led to failure yet before we were able to feed any
/// input data to the program".
pub fn full_alphabet(max_bag: usize) -> SymbolTable {
    let mut table = SymbolTable::default();
    for n in 1..=max_bag {
        let pairs = n * (n - 1) / 2;
        for edges in 0..(1u32 << pairs) {
            table.intern(ThreeColSym::Leaf { n: n as u8, edges });
            for vpos in 0..n {
                table.intern(ThreeColSym::Intro {
                    n: n as u8,
                    edges,
                    vpos: vpos as u8,
                });
            }
        }
        for vpos in 0..n {
            table.intern(ThreeColSym::Forget {
                child_n: n as u8,
                vpos: vpos as u8,
            });
        }
        table.intern(ThreeColSym::Branch { n: n as u8 });
    }
    table
}

/// Encodes the decomposition as a colored tree over `table` (linear
/// time; interns any missing symbols).
pub fn encode_three_col(graph: &Graph, td: &NiceTd, table: &mut SymbolTable) -> ColoredTree {
    ColoredTree::of_nice_td(td, |id| {
        let bag = td.bag(id);
        let sym = match td.kind(id) {
            NiceKind::Leaf => ThreeColSym::Leaf {
                n: bag.len() as u8,
                edges: edges_of_bag(graph, bag),
            },
            NiceKind::Introduce(v) => ThreeColSym::Intro {
                n: bag.len() as u8,
                edges: edges_of_bag(graph, bag),
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
            NiceKind::Branch => ThreeColSym::Branch { n: bag.len() as u8 },
        };
        table.intern(sym)
    })
}

/// Global state interner: `(bag size, red mask, green mask)` ↔ state id.
#[derive(Debug, Default)]
struct StateSpace {
    states: Vec<(u8, u32, u32)>,
    index: FxHashMap<(u8, u32, u32), u32>,
}

impl StateSpace {
    fn intern(&mut self, n: u8, r: u32, g: u32) -> u32 {
        let key = (n, r, g);
        if let Some(&i) = self.index.get(&key) {
            return i;
        }
        let i = self.states.len() as u32;
        self.index.insert(key, i);
        self.states.push(key);
        i
    }

    /// All 3-partitions of `n` positions.
    fn all_states(n: u8) -> Vec<(u32, u32)> {
        let full: u32 = (1u32 << n) - 1;
        let mut out = Vec::new();
        for r in 0..=full {
            let rest = full & !r;
            let mut g = rest;
            loop {
                out.push((r, g));
                if g == 0 {
                    break;
                }
                g = (g - 1) & rest;
            }
            if r == full {
                break;
            }
        }
        out
    }
}

/// Checks all classes of `(r, g, b)` are independent w.r.t. `edges`.
fn proper(n: u8, edges: u32, r: u32, g: u32) -> bool {
    let full = (1u32 << n) - 1;
    let b = full & !(r | g);
    for j in 1..n as usize {
        for i in 0..j {
            if edges & pair_bit(i, j) == 0 {
                continue;
            }
            let (bi, bj) = (1u32 << i, 1u32 << j);
            if (r & bi != 0 && r & bj != 0)
                || (g & bi != 0 && g & bj != 0)
                || (b & bi != 0 && b & bj != 0)
            {
                return false;
            }
        }
    }
    true
}

#[inline]
fn lift(mask: u32, at: u8) -> u32 {
    let low = mask & ((1u32 << at) - 1);
    let high = (mask >> at) << (at + 1);
    low | high
}

#[inline]
fn drop_pos(mask: u32, at: u8) -> u32 {
    let low = mask & ((1u32 << at) - 1);
    let high = (mask >> (at + 1)) << at;
    low | high
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
                let mut states = Vec::new();
                for (r, g) in StateSpace::all_states(n) {
                    if proper(n, edges, r, g) {
                        states.push(space.intern(n, r, g));
                    }
                }
                nfta.leaf.insert(si, states);
            }
            ThreeColSym::Intro { n, edges, vpos } => {
                for (r, g) in StateSpace::all_states(n - 1) {
                    let child = space.intern(n - 1, r, g);
                    let (lr, lg) = (lift(r, vpos), lift(g, vpos));
                    let mut outs = Vec::new();
                    for color in 0..3u8 {
                        let (nr, ng) = match color {
                            0 => (lr | 1 << vpos, lg),
                            1 => (lr, lg | 1 << vpos),
                            _ => (lr, lg),
                        };
                        if proper(n, edges, nr, ng) {
                            outs.push(space.intern(n, nr, ng));
                        }
                    }
                    nfta.unary.insert((si, child), outs);
                }
            }
            ThreeColSym::Forget { child_n, vpos } => {
                for (r, g) in StateSpace::all_states(child_n) {
                    let child = space.intern(child_n, r, g);
                    let target = space.intern(child_n - 1, drop_pos(r, vpos), drop_pos(g, vpos));
                    nfta.unary.insert((si, child), vec![target]);
                }
            }
            ThreeColSym::Branch { n } => {
                for (r, g) in StateSpace::all_states(n) {
                    let q = space.intern(n, r, g);
                    nfta.binary.insert((si, q, q), vec![q]);
                }
            }
        }
    }
    nfta.n_states = space.states.len() as u32;
    nfta.finals = (0..nfta.n_states).collect();
    nfta
}

/// Linear-time decision via the nondeterministic automaton over the
/// input's own symbols (this *is* the Figure 5 dynamic program in
/// automaton clothing).
pub fn nfta_3col(graph: &Graph, td: &NiceTd) -> bool {
    let mut table = SymbolTable::default();
    let tree = encode_three_col(graph, td, &mut table);
    let nfta = three_col_nfta(&table.symbols);
    nfta.accepts(&tree)
}

/// MONA-style decision: build the automaton over the **full width-w
/// alphabet**, determinize it (input-independently!), then run the
/// deterministic automaton over the input. The preprocessing is
/// exponential in the width — expect [`Exploded`] beyond width 2 with
/// realistic budgets, mirroring the paper's §6 experience.
pub fn mona_style_3col(
    graph: &Graph,
    td: &NiceTd,
    budget: DetBudget,
) -> Result<(bool, Dfta), Exploded> {
    let mut table = full_alphabet(td.width() + 1);
    let tree = encode_three_col(graph, td, &mut table);
    let nfta = three_col_nfta(&table.symbols);
    let dfta = determinize(&nfta, &table.alphabet(), budget)?;
    let accepted = dfta.accepts(&tree);
    Ok((accepted, dfta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdtw_decomp::{decompose, Heuristic, NiceOptions};
    use mdtw_graph::{complete, cycle, encode_graph, partial_k_tree, petersen, wheel};
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
            assert_eq!(nfta_3col(&g, &td), expect, "{g}");
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
                mdtw_graph::is_three_colorable_exact(&g),
                "instance {i}"
            );
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
            assert_eq!(got, nfta_3col(&g, &td), "{g}");
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
    fn full_alphabet_sizes_grow_exponentially() {
        let a2 = full_alphabet(2).symbols.len();
        let a3 = full_alphabet(3).symbols.len();
        let a4 = full_alphabet(4).symbols.len();
        let a5 = full_alphabet(5).symbols.len();
        assert!(a3 > a2 && a4 > 2 * a3 && a5 > 4 * a4, "{a2} {a3} {a4} {a5}");
    }

    #[test]
    fn proper_check() {
        // Two positions joined by an edge: same class is improper.
        let edges = pair_bit(0, 1);
        assert!(!proper(2, edges, 0b11, 0)); // both red
        assert!(proper(2, edges, 0b01, 0b10)); // red/green
        assert!(!proper(2, edges, 0, 0)); // both blue
        assert!(proper(2, 0, 0b11, 0)); // no edge: both red fine
    }
}
