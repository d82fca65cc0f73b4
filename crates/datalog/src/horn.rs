//! Linear-time evaluation of ground (propositional) datalog.
//!
//! The paper (§2.4, fact (1)) relies on the classical result that
//! propositional Horn programs are solvable in linear time
//! (Dowling–Gallier \[7\], Minoux's LTUR \[27\]). This module implements the
//! counter-based LTUR algorithm: each rule keeps a count of unsatisfied
//! body atoms; deriving an atom decrements the counters of all rules
//! watching it; a counter hitting zero derives the rule's head. Every rule
//! and every body occurrence is touched O(1) times.
//!
//! The watch lists live in one flat index, in compressed-row form: the
//! rules watching atom `a` are `watch[wstart[a]..wstart[a + 1]]`, one entry
//! per body occurrence (so `h ← a, a` is decremented twice). Counting the
//! occurrences per atom, prefix-summing them into `wstart` and filling
//! `watch` takes a fixed handful of allocations, however many atoms the
//! program has.

/// A ground Horn rule `head ← body` over interned atom ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HornRule {
    /// Head atom id.
    pub head: u32,
    /// Body atom ids (possibly empty: a fact).
    pub body: Vec<u32>,
}

/// A ground Horn program over atoms `0..n_atoms`.
#[derive(Debug, Clone, Default)]
pub struct HornProgram {
    /// Number of distinct atoms.
    pub n_atoms: usize,
    /// The rules.
    pub rules: Vec<HornRule>,
}

impl HornProgram {
    /// Total size (atoms occurring in all rules) — the `|P′|` of the
    /// paper's Theorem 4.4 proof.
    pub fn size(&self) -> usize {
        self.rules.iter().map(|r| 1 + r.body.len()).sum()
    }

    /// Computes the least model in time linear in [`size`](Self::size).
    /// Returns one boolean per atom id.
    ///
    /// # Panics
    /// Panics, before any solving, if a rule's head or body names an atom
    /// id `≥ n_atoms`; the message names the rule and the atom.
    pub fn least_model(&self) -> Vec<bool> {
        let n = self.n_atoms;
        // wstart[a] counts atom a's body occurrences; prefix-summed, it is
        // where a's watch segment ends.
        let mut wstart = vec![0u32; n + 1];
        for (ri, rule) in self.rules.iter().enumerate() {
            for &a in std::iter::once(&rule.head).chain(&rule.body) {
                assert!(
                    (a as usize) < n,
                    "Horn rule {ri} names atom {a}, but the program has only {n} atoms"
                );
            }
            for &a in &rule.body {
                wstart[a as usize] += 1;
            }
        }
        let mut total = 0u32;
        for w in &mut wstart[..n] {
            total = total
                .checked_add(*w)
                .expect("a Horn program has fewer than 2^32 body occurrences");
            *w = total;
        }
        wstart[n] = total;
        // Fill each segment from its end; afterwards wstart[a] is where it
        // starts.
        let mut watch = vec![0u32; total as usize];
        for (ri, rule) in self.rules.iter().enumerate() {
            for &a in &rule.body {
                let w = &mut wstart[a as usize];
                *w -= 1;
                watch[*w as usize] = ri as u32;
            }
        }
        let mut truth = vec![false; n];
        // counter[r]: number of body atoms of rule r not yet derived.
        let mut counter: Vec<u32> = self.rules.iter().map(|r| r.body.len() as u32).collect();
        // Every atom enters the queue at most once.
        let mut queue: Vec<u32> = Vec::with_capacity(n);
        for (ri, rule) in self.rules.iter().enumerate() {
            if counter[ri] == 0 && !truth[rule.head as usize] {
                truth[rule.head as usize] = true;
                queue.push(rule.head);
            }
        }
        while let Some(a) = queue.pop() {
            let a = a as usize;
            for &ri in &watch[wstart[a] as usize..wstart[a + 1] as usize] {
                let ri = ri as usize;
                counter[ri] -= 1;
                if counter[ri] == 0 {
                    let h = self.rules[ri].head;
                    if !truth[h as usize] {
                        truth[h as usize] = true;
                        queue.push(h);
                    }
                }
            }
        }
        truth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(head: u32, body: &[u32]) -> HornRule {
        HornRule {
            head,
            body: body.to_vec(),
        }
    }

    #[test]
    fn chain_of_implications() {
        let p = HornProgram {
            n_atoms: 5,
            rules: vec![
                rule(0, &[]),
                rule(1, &[0]),
                rule(2, &[1]),
                rule(3, &[2]),
                // 4 is not derivable.
                rule(4, &[3, 4]),
            ],
        };
        let m = p.least_model();
        assert_eq!(m, vec![true, true, true, true, false]);
    }

    #[test]
    fn conjunction_requires_all_atoms() {
        let p = HornProgram {
            n_atoms: 4,
            rules: vec![
                rule(0, &[]),
                rule(1, &[]),
                rule(2, &[0, 1]),
                rule(3, &[0, 2]),
            ],
        };
        let m = p.least_model();
        assert!(m.iter().all(|&b| b));
    }

    #[test]
    fn duplicate_body_atoms_count_twice() {
        // head ← a, a: must still fire once a is derived.
        let p = HornProgram {
            n_atoms: 2,
            rules: vec![rule(0, &[]), rule(1, &[0, 0])],
        };
        assert_eq!(p.least_model(), vec![true, true]);
    }

    #[test]
    fn cyclic_rules_do_not_self_support() {
        // a ← b; b ← a: neither derivable.
        let p = HornProgram {
            n_atoms: 2,
            rules: vec![rule(0, &[1]), rule(1, &[0])],
        };
        assert_eq!(p.least_model(), vec![false, false]);
    }

    #[test]
    #[should_panic(expected = "Horn rule 1 names atom 3, but the program has only 3 atoms")]
    fn out_of_range_body_atom_is_named() {
        let p = HornProgram {
            n_atoms: 3,
            rules: vec![rule(0, &[]), rule(1, &[0, 3])],
        };
        p.least_model();
    }

    #[test]
    #[should_panic(expected = "Horn rule 0 names atom 2, but the program has only 2 atoms")]
    fn out_of_range_head_atom_is_named() {
        let p = HornProgram {
            n_atoms: 2,
            rules: vec![rule(2, &[])],
        };
        p.least_model();
    }

    #[test]
    fn empty_program() {
        let p = HornProgram {
            n_atoms: 0,
            rules: vec![],
        };
        assert!(p.least_model().is_empty());
    }

    #[test]
    fn least_model_is_minimal_vs_bruteforce() {
        // Compare against a naive fixpoint on a small random-ish program.
        let p = HornProgram {
            n_atoms: 6,
            rules: vec![
                rule(2, &[0, 1]),
                rule(3, &[2]),
                rule(0, &[]),
                rule(4, &[3, 5]),
                rule(1, &[0]),
                rule(5, &[4]),
            ],
        };
        let fast = p.least_model();
        let mut slow = vec![false; 6];
        loop {
            let mut changed = false;
            for r in &p.rules {
                if r.body.iter().all(|&a| slow[a as usize]) && !slow[r.head as usize] {
                    slow[r.head as usize] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        assert_eq!(fast, slow);
    }
}
