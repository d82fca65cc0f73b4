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
//! The program itself is flat: the rules are three arrays (heads, one end
//! offset per rule, and a single arena holding every body back to back),
//! so a grounder that pushes a million rules makes a handful of
//! allocations, not one per rule. The watch lists live in one flat index
//! of the same compressed-row shape: the rules watching atom `a` are
//! `watch[wstart[a]..wstart[a + 1]]`, one entry per body occurrence (so
//! `h ← a, a` is decremented twice). Both the index and the counters are
//! built in two passes over the body arena — count the occurrences per
//! atom, prefix-sum them into `wstart`, fill `watch` — so solving takes a
//! fixed handful of allocations, however many atoms and rules the program
//! has.

/// A ground Horn program over atoms `0..n_atoms`, in compressed-row form:
/// rule `i` is `heads[i] ← bodies[ends[i - 1]..ends[i]]` (with
/// `ends[-1] = 0`), so every body lives in the one `bodies` arena and
/// adding a rule allocates nothing once the arrays have grown.
#[derive(Debug, Clone, Default)]
pub struct HornProgram {
    /// Number of distinct atoms.
    pub n_atoms: usize,
    /// Head atom id of each rule.
    heads: Vec<u32>,
    /// End offset of each rule's body in `bodies`; non-decreasing.
    ends: Vec<u32>,
    /// All rule bodies, back to back.
    bodies: Vec<u32>,
}

impl HornProgram {
    /// An empty program over atoms `0..n_atoms`.
    pub fn new(n_atoms: usize) -> Self {
        Self {
            n_atoms,
            ..Self::default()
        }
    }

    /// Appends the rule `head ← body` (an empty body makes it a fact).
    /// Atom ids are checked by [`least_model`](Self::least_model), not
    /// here.
    ///
    /// # Panics
    /// Panics if the program's body occurrences reach 2^32.
    pub fn push(&mut self, head: u32, body: impl IntoIterator<Item = u32>) {
        self.bodies.extend(body);
        let end = u32::try_from(self.bodies.len())
            .expect("a Horn program has fewer than 2^32 body occurrences");
        self.heads.push(head);
        self.ends.push(end);
    }

    /// The number of rules.
    pub fn rule_count(&self) -> usize {
        self.heads.len()
    }

    /// The rules as `(head, body)`, in the order they were pushed.
    pub fn rules(&self) -> impl ExactSizeIterator<Item = (u32, &[u32])> + '_ {
        let mut start = 0;
        self.heads.iter().zip(&self.ends).map(move |(&head, &end)| {
            let body = &self.bodies[start as usize..end as usize];
            start = end;
            (head, body)
        })
    }

    /// Total size (atoms occurring in all rules) — the `|P′|` of the
    /// paper's Theorem 4.4 proof.
    pub fn size(&self) -> usize {
        self.heads.len() + self.bodies.len()
    }

    /// Computes the least model in time linear in [`size`](Self::size).
    /// Returns one boolean per atom id.
    ///
    /// # Panics
    /// Panics, before any solving, if a rule's head or body names an atom
    /// id `≥ n_atoms`; the message names the rule and the atom.
    pub fn least_model(&self) -> Vec<bool> {
        let n = self.n_atoms;
        // One flat pass finds the largest id; only a bad one pays for
        // the rule-by-rule search that names it.
        let largest = self.heads.iter().max().max(self.bodies.iter().max());
        if largest.is_some_and(|&a| a as usize >= n) {
            for (ri, (head, body)) in self.rules().enumerate() {
                if let Some(a) = std::iter::once(&head)
                    .chain(body)
                    .find(|&&a| a as usize >= n)
                {
                    panic!("Horn rule {ri} names atom {a}, but the program has only {n} atoms");
                }
            }
        }
        // wstart[a] counts atom a's body occurrences; prefix-summed, it is
        // where a's watch segment ends.
        let mut wstart = vec![0u32; n + 1];
        for &a in &self.bodies {
            wstart[a as usize] += 1;
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
        // starts. counter[r]: number of body atoms of rule r not yet
        // derived.
        let mut watch = vec![0u32; total as usize];
        let mut counter = Vec::with_capacity(self.rule_count());
        for (ri, (_, body)) in self.rules().enumerate() {
            for &a in body {
                let w = &mut wstart[a as usize];
                *w -= 1;
                watch[*w as usize] = ri as u32;
            }
            counter.push(body.len() as u32);
        }
        let mut truth = vec![false; n];
        // Every atom enters the queue at most once.
        let mut queue: Vec<u32> = Vec::with_capacity(n);
        for (&head, &count) in self.heads.iter().zip(&counter) {
            if count == 0 && !truth[head as usize] {
                truth[head as usize] = true;
                queue.push(head);
            }
        }
        while let Some(a) = queue.pop() {
            let a = a as usize;
            for &ri in &watch[wstart[a] as usize..wstart[a + 1] as usize] {
                let ri = ri as usize;
                counter[ri] -= 1;
                if counter[ri] == 0 {
                    let h = self.heads[ri];
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

    fn program(n_atoms: usize, rules: &[(u32, &[u32])]) -> HornProgram {
        let mut p = HornProgram::new(n_atoms);
        for &(head, body) in rules {
            p.push(head, body.iter().copied());
        }
        p
    }

    #[test]
    fn chain_of_implications() {
        let p = program(
            5,
            &[
                (0, &[]),
                (1, &[0]),
                (2, &[1]),
                (3, &[2]),
                // 4 is not derivable.
                (4, &[3, 4]),
            ],
        );
        let m = p.least_model();
        assert_eq!(m, vec![true, true, true, true, false]);
    }

    #[test]
    fn conjunction_requires_all_atoms() {
        let p = program(4, &[(0, &[]), (1, &[]), (2, &[0, 1]), (3, &[0, 2])]);
        let m = p.least_model();
        assert!(m.iter().all(|&b| b));
    }

    #[test]
    fn duplicate_body_atoms_count_twice() {
        // head ← a, a: must still fire once a is derived.
        let p = program(2, &[(0, &[]), (1, &[0, 0])]);
        assert_eq!(p.least_model(), vec![true, true]);
    }

    #[test]
    fn cyclic_rules_do_not_self_support() {
        // a ← b; b ← a: neither derivable.
        let p = program(2, &[(0, &[1]), (1, &[0])]);
        assert_eq!(p.least_model(), vec![false, false]);
    }

    #[test]
    #[should_panic(expected = "Horn rule 1 names atom 3, but the program has only 3 atoms")]
    fn out_of_range_body_atom_is_named() {
        program(3, &[(0, &[]), (1, &[0, 3])]).least_model();
    }

    #[test]
    #[should_panic(expected = "Horn rule 0 names atom 2, but the program has only 2 atoms")]
    fn out_of_range_head_atom_is_named() {
        program(2, &[(2, &[])]).least_model();
    }

    #[test]
    fn empty_program() {
        let p = HornProgram::new(0);
        assert_eq!(p.rule_count(), 0);
        assert_eq!(p.size(), 0);
        assert!(p.least_model().is_empty());
    }

    #[test]
    fn size_counts_heads_and_body_occurrences() {
        let p = program(3, &[(0, &[]), (1, &[0, 0]), (2, &[1])]);
        assert_eq!(p.rule_count(), 3);
        assert_eq!(p.size(), 3 + 3);
    }

    #[test]
    fn least_model_is_minimal_vs_bruteforce() {
        // Compare against a naive fixpoint on a small random-ish program.
        let rules: &[(u32, &[u32])] = &[
            (2, &[0, 1]),
            (3, &[2]),
            (0, &[]),
            (4, &[3, 5]),
            (1, &[0]),
            (5, &[4]),
        ];
        let fast = program(6, rules).least_model();
        let mut slow = vec![false; 6];
        loop {
            let mut changed = false;
            for &(head, body) in rules {
                if body.iter().all(|&a| slow[a as usize]) && !slow[head as usize] {
                    slow[head as usize] = true;
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
