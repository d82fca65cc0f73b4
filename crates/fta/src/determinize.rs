//! Determinization — the step where MONA-style pipelines explode.
//!
//! The subset construction makes the automaton *total and deterministic*
//! over a given alphabet: its states are sets of NFTA states, and the
//! transition tables are completed for **every** symbol and every (pair
//! of) reachable subset state(s), with exactly one target each. The
//! paper's §1 and §6 recount how this is precisely the "state explosion"
//! that sinks the MSO-to-FTA approach in practice (\[15, 26\]); the
//! explicit [`DetBudget`] turns that blow-up into a reportable condition
//! instead of an out-of-memory crash.

use crate::automaton::{Nfta, State, Symbol};
use mdtw_structure::fx::FxHashMap;

/// Resource budget for determinization.
#[derive(Debug, Clone, Copy)]
pub struct DetBudget {
    /// Maximum number of subset states.
    pub max_states: usize,
    /// Maximum number of transition-table entries.
    pub max_transitions: usize,
}

impl Default for DetBudget {
    fn default() -> Self {
        Self {
            max_states: 1 << 16,
            max_transitions: 1 << 22,
        }
    }
}

/// Determinization failure: the automaton exceeded the budget (the
/// "out-of-memory" outcome of the paper's MONA experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exploded {
    /// Subset states built before giving up.
    pub states: usize,
    /// Transitions built before giving up, or, when the states were never
    /// built, the least number a total automaton would need.
    pub transitions: usize,
}

impl std::fmt::Display for Exploded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "determinization exploded: {} states, {} transitions",
            self.states, self.transitions
        )
    }
}

impl std::error::Error for Exploded {}

/// Subset construction over `alphabet`, with budget: a deterministic
/// [`Nfta`], total over `alphabet`, whose finals are the subsets holding
/// a final state of `nfta`.
pub fn determinize(
    nfta: &Nfta,
    alphabet: &[(Symbol, u8)],
    budget: DetBudget,
) -> Result<Nfta, Exploded> {
    // Subset states, canonically sorted.
    let mut subsets: Vec<Vec<State>> = Vec::new();
    let mut index: FxHashMap<Vec<State>, State> = FxHashMap::default();
    // Interns the sorted, deduplicated subset `set` as the one target of
    // a transition.
    let mut target = |mut set: Vec<State>, subsets: &mut Vec<Vec<State>>| -> Vec<State> {
        set.sort_unstable();
        set.dedup();
        let next = subsets.len() as State;
        let i = *index.entry(set).or_insert_with_key(|set| {
            subsets.push(set.clone());
            next
        });
        vec![i]
    };
    let mut dfta = Nfta::default();
    // Every key holds one target, so the key count is the transition count.
    let over_budget = |subsets: &Vec<Vec<State>>, dfta: &Nfta| {
        let transitions = dfta.leaf.len() + dfta.unary.len() + dfta.binary.len();
        (subsets.len() > budget.max_states || transitions > budget.max_transitions).then_some(
            Exploded {
                states: subsets.len(),
                transitions,
            },
        )
    };

    // Leaf states.
    for &(sym, rank) in alphabet {
        if rank == 0 {
            let set = nfta.leaf.get(&sym).cloned().unwrap_or_default();
            let t = target(set, &mut subsets);
            dfta.leaf.insert(sym, t);
        }
    }

    // Saturate: totality means every (symbol, state…) combination gets an
    // entry — the cross product that blows up.
    let mut processed = 0usize;
    while processed < subsets.len() {
        if let Some(exploded) = over_budget(&subsets, &dfta) {
            return Err(exploded);
        }
        // Process all symbols against the newly added subset(s).
        let upto = subsets.len();
        for si in 0..upto as State {
            for &(sym, rank) in alphabet {
                match rank {
                    1 => {
                        if dfta.unary.contains_key(&(sym, si)) {
                            continue;
                        }
                        let out = subsets[si as usize]
                            .iter()
                            .filter_map(|&q| nfta.unary.get(&(sym, q)))
                            .flatten()
                            .copied()
                            .collect();
                        let t = target(out, &mut subsets);
                        dfta.unary.insert((sym, si), t);
                    }
                    2 => {
                        for sj in 0..upto as State {
                            for (a, b) in [(si, sj), (sj, si)] {
                                if dfta.binary.contains_key(&(sym, a, b)) {
                                    continue;
                                }
                                let right = &subsets[b as usize];
                                let out = subsets[a as usize]
                                    .iter()
                                    .flat_map(|&q1| right.iter().map(move |&q2| (sym, q1, q2)))
                                    .filter_map(|key| nfta.binary.get(&key))
                                    .flatten()
                                    .copied()
                                    .collect();
                                let t = target(out, &mut subsets);
                                dfta.binary.insert((sym, a, b), t);
                            }
                        }
                    }
                    _ => {}
                }
                if let Some(exploded) = over_budget(&subsets, &dfta) {
                    return Err(exploded);
                }
            }
        }
        processed = upto;
    }

    dfta.n_states = subsets.len() as State;
    dfta.finals = (0..dfta.n_states)
        .filter(|&i| subsets[i as usize].iter().any(|q| nfta.finals.contains(q)))
        .collect();
    Ok(dfta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::tests::{parity, tree, tree_ffa, tree_g_fa_a};

    const ALPHABET: [(Symbol, u8); 3] = [(0, 0), (1, 1), (2, 2)];

    #[test]
    fn determinized_agrees_with_nfta() {
        let nfta = parity();
        let dfta = determinize(&nfta, &ALPHABET, DetBudget::default()).unwrap();
        let trees = [
            (tree(&[]), vec![0]),
            (tree(&[0]), vec![1, 0]),
            tree_ffa(),
            tree_g_fa_a(),
        ];
        for (i, (t, symbols)) in trees.iter().enumerate() {
            assert_eq!(
                dfta.accepts(t, symbols),
                nfta.accepts(t, symbols),
                "tree {i}"
            );
        }
    }

    #[test]
    fn dfta_is_total_over_alphabet() {
        let dfta = determinize(&parity(), &ALPHABET, DetBudget::default()).unwrap();
        // Every (symbol, state) and (symbol, state, state) combination has
        // an entry, and every entry exactly one target.
        assert!(dfta.leaf.contains_key(&0));
        for s in 0..dfta.n_states {
            assert!(dfta.unary.contains_key(&(1, s)));
            for s2 in 0..dfta.n_states {
                assert!(dfta.binary.contains_key(&(2, s, s2)));
            }
        }
        let mut targets = dfta.leaf.values().chain(dfta.unary.values());
        assert!(targets.all(|t| t.len() == 1));
        assert!(dfta.binary.values().all(|t| t.len() == 1));
    }

    #[test]
    fn budget_is_enforced() {
        let err = determinize(
            &parity(),
            &ALPHABET,
            DetBudget {
                max_states: 1,
                max_transitions: 1,
            },
        )
        .unwrap_err();
        assert!(err.states >= 1 || err.transitions >= 1);
    }
}
