//! Nondeterministic bottom-up finite tree automata (NFTA).
//!
//! The FTA layer underlying the classical route to Courcelle's Theorem
//! (Thatcher–Wright / Doner, [29, 6] in the paper): MSO over trees equals
//! tree-automata recognizability. The input tree is a decomposition
//! [`Tree`] of `mdtw-decomp` with one [`Symbol`] per node: the symbol of
//! node `id` is `symbols[id.index()]`, and a node's rank is its number of
//! children. Running an NFTA over an input tree is linear via on-the-fly
//! subset simulation; building a *deterministic* automaton (what MONA does
//! internally) lives in the [`determinize`](mod@crate::determinize) module
//! and is where the state explosion happens.

use mdtw_decomp::Tree;
use mdtw_structure::fx::{FxHashMap, FxHashSet};

/// An interned alphabet symbol.
pub type Symbol = u32;

/// An automaton state.
pub type State = u32;

/// A nondeterministic bottom-up tree automaton. A deterministic one (as
/// [`determinize`](crate::determinize()) builds) has exactly one target
/// per transition key.
#[derive(Debug, Clone, Default)]
pub struct Nfta {
    /// Number of states (states are `0..n_states`).
    pub n_states: u32,
    /// Leaf transitions: symbol → possible states.
    pub leaf: FxHashMap<Symbol, Vec<State>>,
    /// Unary transitions: (symbol, child state) → possible states.
    pub unary: FxHashMap<(Symbol, State), Vec<State>>,
    /// Binary transitions: (symbol, left, right) → possible states.
    pub binary: FxHashMap<(Symbol, State, State), Vec<State>>,
    /// Accepting (final) states.
    pub finals: FxHashSet<State>,
}

impl Nfta {
    /// Runs the automaton over `tree` labelled by `symbols`, returning the
    /// set of states reachable at the root (on-the-fly subset simulation;
    /// linear in `|tree| · |Q|²`). A node of more than two children has no
    /// transition.
    ///
    /// # Panics
    /// Panics unless `symbols` holds one symbol per node of `tree`.
    pub fn run<K: Copy>(&self, tree: &Tree<K>, symbols: &[Symbol]) -> FxHashSet<State> {
        assert_eq!(symbols.len(), tree.len(), "one symbol per tree node");
        let mut state_sets: Vec<FxHashSet<State>> = vec![FxHashSet::default(); tree.len()];
        for id in tree.post_order() {
            let symbol = symbols[id.index()];
            let mut children = tree
                .children(id)
                .map(|c| std::mem::take(&mut state_sets[c.index()]));
            state_sets[id.index()] = match (children.next(), children.next(), children.next()) {
                (None, ..) => self
                    .leaf
                    .get(&symbol)
                    .into_iter()
                    .flatten()
                    .copied()
                    .collect(),
                (Some(child), None, _) => child
                    .iter()
                    .filter_map(|&q| self.unary.get(&(symbol, q)))
                    .flatten()
                    .copied()
                    .collect(),
                (Some(left), Some(right), None) => left
                    .iter()
                    .flat_map(|&q1| right.iter().map(move |&q2| (symbol, q1, q2)))
                    .filter_map(|key| self.binary.get(&key))
                    .flatten()
                    .copied()
                    .collect(),
                _ => FxHashSet::default(),
            };
        }
        std::mem::take(&mut state_sets[tree.root().index()])
    }

    /// True if some accepting state is reachable at the root of `tree`
    /// labelled by `symbols`.
    pub fn accepts<K: Copy>(&self, tree: &Tree<K>, symbols: &[Symbol]) -> bool {
        self.run(tree, symbols)
            .iter()
            .any(|q| self.finals.contains(q))
    }

    /// Total number of transitions (a size measure): the targets summed
    /// over all keys, which for a deterministic automaton is its number of
    /// keys.
    pub fn transition_count(&self) -> usize {
        self.leaf.values().map(Vec::len).sum::<usize>()
            + self.unary.values().map(Vec::len).sum::<usize>()
            + self.binary.values().map(Vec::len).sum::<usize>()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mdtw_decomp::{NodeId, TreeDecomposition};

    /// An automaton over {a/0, f/1, g/2} accepting trees with an even
    /// number of `f` nodes. States: 0 = even, 1 = odd.
    pub(crate) fn parity() -> Nfta {
        let mut a = Nfta {
            n_states: 2,
            ..Default::default()
        };
        a.leaf.insert(0, vec![0]);
        a.unary.insert((1, 0), vec![1]);
        a.unary.insert((1, 1), vec![0]);
        // g combines parities by xor.
        a.binary.insert((2, 0, 0), vec![0]);
        a.binary.insert((2, 0, 1), vec![1]);
        a.binary.insert((2, 1, 0), vec![1]);
        a.binary.insert((2, 1, 1), vec![0]);
        a.finals.insert(0);
        a
    }

    /// A tree of empty bags: the root, then node `i + 1` as the last child
    /// of node `parents[i]`.
    pub(crate) fn tree(parents: &[u32]) -> TreeDecomposition {
        let mut t = TreeDecomposition::singleton(vec![]);
        for &p in parents {
            t.add_child(NodeId(p), vec![]);
        }
        t
    }

    /// f(f(a)): two f's → even.
    pub(crate) fn tree_ffa() -> (TreeDecomposition, Vec<Symbol>) {
        (tree(&[0, 1]), vec![1, 1, 0])
    }

    /// g(f(a), a): one f → odd.
    pub(crate) fn tree_g_fa_a() -> (TreeDecomposition, Vec<Symbol>) {
        (tree(&[0, 1, 0]), vec![2, 1, 0, 0])
    }

    #[test]
    fn parity_automaton_runs() {
        let a = parity();
        let (t, symbols) = tree_ffa();
        assert!(a.accepts(&t, &symbols));
        let (t, symbols) = tree_g_fa_a();
        assert!(!a.accepts(&t, &symbols));
    }

    #[test]
    fn nondeterminism_unions_states() {
        let mut a = Nfta {
            n_states: 2,
            ..Default::default()
        };
        a.leaf.insert(0, vec![0, 1]);
        a.finals.insert(1);
        assert_eq!(a.run(&tree(&[]), &[0]).len(), 2);
        assert!(a.accepts(&tree(&[]), &[0]));
    }

    #[test]
    fn missing_transitions_reject() {
        let a = parity();
        // Unknown leaf symbol 9: no run.
        assert!(a.run(&tree(&[]), &[9]).is_empty());
        assert!(!a.accepts(&tree(&[]), &[9]));
        // No transition has rank 3: g(a, a, a) has no run.
        assert!(a.run(&tree(&[0, 0, 0]), &[2, 0, 0, 0]).is_empty());
    }
}
