//! Abstract syntax of datalog programs (paper §2.4).
//!
//! Programs are function-free Horn clauses. Predicates are either
//! *extensional* (interpreted by the input structure's relations) or
//! *intensional* (defined by rule heads). Negation may appear in front of
//! any body atom; the core fixpoint engines require the *semipositive*
//! shape — negation only on extensional atoms, exactly what the
//! MSO-to-datalog construction of Theorem 4.5 produces (`¬Rᵢ(…)` body
//! atoms) — while programs negating intensional atoms evaluate through
//! the [`stratify`](mod@crate::stratify) pipeline, which reduces them to a
//! bottom-up sequence of semipositive strata.

use mdtw_structure::fx::FxHashMap;
use mdtw_structure::{ElemId, PredId, Structure};
use std::fmt;

/// A rule-local variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl Var {
    /// Index of this variable in the rule's variable table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An intensional predicate id (index into [`Program::idb_names`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IdbId(pub u32);

impl IdbId {
    /// Index into the program's IDB tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A predicate reference: extensional (structure relation) or intensional.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredRef {
    /// Extensional: interpreted by the input structure.
    Edb(PredId),
    /// Intensional: computed by the program.
    Idb(IdbId),
}

/// A term: a variable or a domain constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Term {
    /// A rule-local variable.
    Var(Var),
    /// A constant resolved against the structure's domain.
    Const(ElemId),
}

/// An atom `p(t₁, …, t_n)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// The predicate.
    pub pred: PredRef,
    /// Argument terms.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Iterates over the variables of the atom (with repetitions).
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.terms.iter().filter_map(|t| match t {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        })
    }
}

/// A body literal: an atom or its negation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Literal {
    /// The underlying atom.
    pub atom: Atom,
    /// `false` for a negated literal.
    pub positive: bool,
}

/// A rule `head ← body`. A rule with an empty body and a ground head is a
/// fact.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rule {
    /// The head atom; its predicate must be intensional.
    pub head: Atom,
    /// Body literals.
    pub body: Vec<Literal>,
    /// Number of distinct variables in the rule (variables are numbered
    /// `0..var_count`).
    pub var_count: u32,
    /// Variable display names (index = variable id), for diagnostics.
    pub var_names: Vec<String>,
}

impl Rule {
    /// True if the rule is *safe*: every head variable and every variable
    /// of a negative literal occurs in some positive body literal.
    pub fn is_safe(&self) -> bool {
        let mut positive = vec![false; self.var_count as usize];
        for lit in &self.body {
            if lit.positive {
                for v in lit.atom.vars() {
                    positive[v.index()] = true;
                }
            }
        }
        let head_ok = self.head.vars().all(|v| positive[v.index()]);
        let neg_ok = self
            .body
            .iter()
            .filter(|l| !l.positive)
            .all(|l| l.atom.vars().all(|v| positive[v.index()]));
        head_ok && neg_ok
    }
}

/// A resolved datalog program: rules plus the IDB name table.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// All rules, in source order.
    pub rules: Vec<Rule>,
    /// Names of intensional predicates (index = [`IdbId`]).
    pub idb_names: Vec<String>,
    /// Arities of intensional predicates.
    pub idb_arities: Vec<usize>,
    pub(crate) idb_by_name: FxHashMap<String, IdbId>,
}

impl Program {
    /// Looks up an intensional predicate by name.
    pub fn idb(&self, name: &str) -> Option<IdbId> {
        self.idb_by_name.get(name).copied()
    }

    /// Registers (or finds) an intensional predicate.
    pub fn intern_idb(&mut self, name: &str, arity: usize) -> Result<IdbId, String> {
        if let Some(&id) = self.idb_by_name.get(name) {
            if self.idb_arities[id.index()] != arity {
                return Err(format!(
                    "predicate `{name}` used with arities {} and {arity}",
                    self.idb_arities[id.index()]
                ));
            }
            return Ok(id);
        }
        let id = IdbId(self.idb_names.len() as u32);
        self.idb_by_name.insert(name.to_owned(), id);
        self.idb_names.push(name.to_owned());
        self.idb_arities.push(arity);
        Ok(id)
    }

    /// Number of intensional predicates.
    pub fn idb_count(&self) -> usize {
        self.idb_names.len()
    }

    /// Checks the program is *semipositive*: negation only on EDB atoms
    /// (plus the per-rule head and safety checks).
    ///
    /// This is the invariant the semipositive engines require of their
    /// whole input and the *stratum-local* invariant of the stratified
    /// pipeline: every sub-program the multi-stratum evaluator (see
    /// [`stratify`](mod@crate::stratify)) hands to the semi-naive
    /// engine — a stratum with lower strata rewritten to materialized
    /// extensional predicates — satisfies it.
    pub fn check_semipositive(&self) -> Result<(), String> {
        for (i, rule) in self.rules.iter().enumerate() {
            for lit in &rule.body {
                if !lit.positive {
                    if let PredRef::Idb(id) = lit.atom.pred {
                        return Err(format!(
                            "rule {i}: negated intensional atom `{}`",
                            self.idb_names[id.index()]
                        ));
                    }
                }
            }
            if let PredRef::Edb(_) = rule.head.pred {
                return Err(format!("rule {i}: extensional predicate in head"));
            }
            if !rule.is_safe() {
                return Err(format!("rule {i}: unsafe rule"));
            }
        }
        Ok(())
    }

    /// A measure of program size `|P|`: total number of atoms.
    pub fn size(&self) -> usize {
        self.rules.iter().map(|r| 1 + r.body.len()).sum()
    }

    /// Renders a rule for diagnostics, using `structure` for EDB names.
    pub fn render_rule(&self, rule: &Rule, structure: &Structure) -> String {
        let term = |t: &Term| match t {
            Term::Var(v) => rule
                .var_names
                .get(v.index())
                .cloned()
                .unwrap_or_else(|| format!("V{}", v.0)),
            Term::Const(c) => structure.domain().name(*c).to_owned(),
        };
        let atom = |a: &Atom| {
            let name = match a.pred {
                PredRef::Edb(p) => structure.signature().name(p).to_owned(),
                PredRef::Idb(i) => self.idb_names[i.index()].clone(),
            };
            if a.terms.is_empty() {
                name
            } else {
                let args: Vec<String> = a.terms.iter().map(term).collect();
                format!("{name}({})", args.join(","))
            }
        };
        let body: Vec<String> = rule
            .body
            .iter()
            .map(|l| {
                if l.positive {
                    atom(&l.atom)
                } else {
                    format!("!{}", atom(&l.atom))
                }
            })
            .collect();
        if body.is_empty() {
            format!("{}.", atom(&rule.head))
        } else {
            format!("{} :- {}.", atom(&rule.head), body.join(", "))
        }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "program: {} rules, {} intensional predicates",
            self.rules.len(),
            self.idb_names.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Term {
        Term::Var(Var(i))
    }

    #[test]
    fn safety_check() {
        let mut p = Program::default();
        let tc = p.intern_idb("tc", 2).unwrap();
        // tc(X, Y) :- tc(X, Z).   -- unsafe: Y never positive.
        let rule = Rule {
            head: Atom {
                pred: PredRef::Idb(tc),
                terms: vec![v(0), v(1)],
            },
            body: vec![Literal {
                atom: Atom {
                    pred: PredRef::Idb(tc),
                    terms: vec![v(0), v(2)],
                },
                positive: true,
            }],
            var_count: 3,
            var_names: vec!["X".into(), "Y".into(), "Z".into()],
        };
        assert!(!rule.is_safe());
    }

    #[test]
    fn intern_idb_checks_arity() {
        let mut p = Program::default();
        p.intern_idb("q", 1).unwrap();
        assert!(p.intern_idb("q", 2).is_err());
        assert!(p.intern_idb("q", 1).is_ok());
        assert_eq!(p.idb_count(), 1);
    }

    #[test]
    fn semipositive_rejects_negated_idb() {
        let mut p = Program::default();
        let q = p.intern_idb("q", 0).unwrap();
        let r = p.intern_idb("r", 0).unwrap();
        p.rules.push(Rule {
            head: Atom {
                pred: PredRef::Idb(q),
                terms: vec![],
            },
            body: vec![Literal {
                atom: Atom {
                    pred: PredRef::Idb(r),
                    terms: vec![],
                },
                positive: false,
            }],
            var_count: 0,
            var_names: vec![],
        });
        assert!(p.check_semipositive().is_err());
    }
}
