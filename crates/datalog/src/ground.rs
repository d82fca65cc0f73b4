//! Quasi-guarded datalog (Definition 4.3) and its linear-time evaluation
//! (Theorem 4.4).
//!
//! A rule is *quasi-guarded* if it contains an extensional body atom `B`
//! such that every rule variable either occurs in `B` or is *functionally
//! dependent* on `B`: its value is uniquely determined by `B`'s in every
//! ground instantiation. Functional dependencies are declared per
//! extensional predicate in an [`FdCatalog`] — e.g. in the τ_td signature
//! the tree-node argument of `bag` determines the whole bag, and `child1`
//! is functional in both directions (a node has at most one first child
//! and at most one parent).
//!
//! Evaluation follows the proof of Theorem 4.4 literally: instantiate each
//! rule once per guard tuple (≤ |𝒜| instantiations), resolve the remaining
//! variables through unique-index lookups, check the residual extensional
//! literals, and hand the resulting ground program `P′` (of size
//! `O(|P|·|𝒜|)`) to the LTUR solver of the [`horn`](mod@crate::horn) module.

use crate::ast::{Literal, PredRef, Program, Rule, Term};
use crate::eval::IdbStore;
use crate::horn::{HornProgram, HornRule};
use crate::limits::Governor;
use mdtw_structure::fx::FxHashMap;
use mdtw_structure::{ElemId, PosIndex, PredId, Structure};
use std::sync::Arc;

/// A declared functional dependency on an extensional predicate: the
/// argument positions in `determinant` uniquely determine the positions in
/// `determined`. Together they must cover the full arity so that a
/// determinant value identifies at most one tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncDep {
    /// Determinant argument positions.
    pub determinant: Vec<usize>,
    /// Determined argument positions.
    pub determined: Vec<usize>,
}

/// A catalog of functional dependencies per extensional predicate.
#[derive(Debug, Clone, Default)]
pub struct FdCatalog {
    deps: FxHashMap<PredId, Vec<FuncDep>>,
}

impl FdCatalog {
    /// An empty catalog (only literal guards are then usable).
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a functional dependency.
    ///
    /// # Panics
    /// Panics if `determinant ∪ determined` does not cover `0..arity` of
    /// intended use (checked lazily during grounding).
    pub fn declare(&mut self, pred: PredId, determinant: Vec<usize>, determined: Vec<usize>) {
        self.deps.entry(pred).or_default().push(FuncDep {
            determinant,
            determined,
        });
    }

    /// The standard catalog for a τ_td signature (paper §4): `child1` and
    /// `child2` are functional in both directions, and the node argument
    /// of `bag` determines the bag contents.
    pub fn for_td_signature(structure: &Structure) -> Self {
        let sig = structure.signature();
        let mut cat = Self::new();
        for name in ["child1", "child2"] {
            if let Some(p) = sig.lookup(name) {
                cat.declare(p, vec![0], vec![1]);
                cat.declare(p, vec![1], vec![0]);
            }
        }
        if let Some(bag) = sig.lookup("bag") {
            let arity = sig.arity(bag);
            cat.declare(bag, vec![0], (1..arity).collect());
        }
        cat
    }

    fn of(&self, pred: PredId) -> &[FuncDep] {
        self.deps.get(&pred).map_or(&[], Vec::as_slice)
    }
}

/// Errors from quasi-guard analysis or grounding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QgError {
    /// A rule has no quasi-guard under the declared dependencies.
    NotQuasiGuarded {
        /// Index of the offending rule.
        rule: usize,
    },
    /// The data violates a declared functional dependency.
    FdViolated {
        /// The predicate whose relation violates the dependency.
        pred: PredId,
    },
    /// The program negates an intensional atom: the quasi-guarded
    /// pipeline evaluates semipositive programs only.
    NotSemipositive {
        /// What the semipositivity check rejected.
        message: String,
    },
}

impl std::fmt::Display for QgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QgError::NotQuasiGuarded { rule } => {
                write!(f, "rule {rule} is not quasi-guarded")
            }
            QgError::FdViolated { pred } => {
                write!(
                    f,
                    "relation {pred} violates a declared functional dependency"
                )
            }
            QgError::NotSemipositive { message } => {
                write!(f, "quasi-guarded pipeline is semipositive-only: {message}")
            }
        }
    }
}

impl std::error::Error for QgError {}

/// Statistics from quasi-guarded evaluation.
#[derive(Debug, Clone, Copy, Default)]
pub struct QgStats {
    /// Number of ground rules produced (`|P′| ≤ |P|·|𝒜|`).
    pub ground_rules: usize,
    /// Number of guard instantiations attempted.
    pub guard_instantiations: usize,
    /// Number of distinct ground atoms.
    pub ground_atoms: usize,
}

/// One step of a rule's variable-resolution plan.
#[derive(Debug, Clone)]
struct PlanStep {
    /// Body literal index supplying the lookup.
    literal: usize,
    /// Functional dependency used.
    fd: FuncDep,
}

/// The grounding plan of one rule.
#[derive(Debug, Clone)]
struct RulePlan {
    /// Guard literal index (`None` for variable-free rules).
    guard: Option<usize>,
    /// Lookup steps executed after binding the guard.
    steps: Vec<PlanStep>,
}

/// Verifies that every rule of `program` is quasi-guarded under `catalog`
/// (structure-independent, so an [`Evaluator`](crate::evaluator::Evaluator)
/// session can validate once at construction).
pub(crate) fn check_quasi_guarded(program: &Program, catalog: &FdCatalog) -> Result<(), QgError> {
    analyze(program, catalog).map(|_| ())
}

/// Verifies that every rule of `program` is quasi-guarded under `catalog`
/// and returns the per-rule plans.
fn analyze(program: &Program, catalog: &FdCatalog) -> Result<Vec<RulePlan>, QgError> {
    let mut plans = Vec::with_capacity(program.rules.len());
    for (ri, rule) in program.rules.iter().enumerate() {
        plans.push(analyze_rule(rule, catalog).ok_or(QgError::NotQuasiGuarded { rule: ri })?);
    }
    Ok(plans)
}

fn analyze_rule(rule: &Rule, catalog: &FdCatalog) -> Option<RulePlan> {
    let nvars = rule.var_count as usize;
    if nvars == 0 {
        return Some(RulePlan {
            guard: None,
            steps: Vec::new(),
        });
    }
    let edb_literals: Vec<usize> = rule
        .body
        .iter()
        .enumerate()
        .filter(|(_, l)| l.positive && matches!(l.atom.pred, PredRef::Edb(_)))
        .map(|(i, _)| i)
        .collect();
    'guards: for &gi in &edb_literals {
        let mut bound = vec![false; nvars];
        for v in rule.body[gi].atom.vars() {
            bound[v.index()] = true;
        }
        let mut steps = Vec::new();
        loop {
            if bound.iter().all(|&b| b) {
                return Some(RulePlan {
                    guard: Some(gi),
                    steps,
                });
            }
            // Find a literal+FD whose determinant is fully bound and which
            // binds at least one new variable.
            let mut progressed = false;
            for &li in &edb_literals {
                let lit = &rule.body[li];
                let pred = match lit.atom.pred {
                    PredRef::Edb(p) => p,
                    PredRef::Idb(_) => unreachable!(),
                };
                for fd in catalog.of(pred) {
                    if fd
                        .determinant
                        .iter()
                        .chain(&fd.determined)
                        .any(|&pos| pos >= lit.atom.terms.len())
                    {
                        continue; // malformed declaration for this arity
                    }
                    let det_bound = fd.determinant.iter().all(|&pos| match lit.atom.terms[pos] {
                        Term::Const(_) => true,
                        Term::Var(v) => bound[v.index()],
                    });
                    if !det_bound {
                        continue;
                    }
                    let mut news = false;
                    for &pos in &fd.determined {
                        if let Term::Var(v) = lit.atom.terms[pos] {
                            if !bound[v.index()] {
                                bound[v.index()] = true;
                                news = true;
                            }
                        }
                    }
                    if news {
                        steps.push(PlanStep {
                            literal: li,
                            fd: fd.clone(),
                        });
                        progressed = true;
                    }
                }
            }
            if !progressed {
                continue 'guards;
            }
        }
    }
    None
}

/// Builds (through the relation's shared index cache) the secondary index
/// on `pred`'s determinant positions and verifies the declared dependency
/// actually holds in the data: a [`PosIndex`] bucket with two rows means
/// two distinct tuples share a determinant value — an FD violation.
///
/// This *is* the unique index of Theorem 4.4's proof; uniqueness makes
/// every bucket a singleton, so lookups are `rows_matching(..).first()`.
fn unique_index(
    structure: &Structure,
    pred: PredId,
    key_positions: &[usize],
) -> Result<Arc<PosIndex>, QgError> {
    let idx = structure.relation(pred).index_on(key_positions);
    if idx.buckets().any(|b| b.len() > 1) {
        return Err(QgError::FdViolated { pred });
    }
    Ok(idx)
}

/// The ground program plus the atom interner used to decode the model.
#[derive(Debug)]
pub struct Grounding {
    /// The propositional Horn program `P′`.
    pub horn: HornProgram,
    /// Ground atom interner: `(IdbId index, args) → atom id`.
    atom_ids: FxHashMap<(u32, Box<[ElemId]>), u32>,
    /// Statistics.
    pub stats: QgStats,
}

impl Grounding {
    /// The atom id of `pred(args)` if it occurs in the grounding.
    pub fn atom_id(&self, pred: crate::ast::IdbId, args: &[ElemId]) -> Option<u32> {
        self.atom_ids.get(&(pred.0, args.into())).copied()
    }
}

/// Grounds a quasi-guarded program over a structure (the construction in
/// the proof of Theorem 4.4).
///
/// # Errors
/// [`QgError::NotSemipositive`] if the program negates an intensional
/// atom, [`QgError::NotQuasiGuarded`] / [`QgError::FdViolated`] from the
/// guard analysis and FD validation.
pub fn ground(
    program: &Program,
    structure: &Structure,
    catalog: &FdCatalog,
) -> Result<Grounding, QgError> {
    ground_governed(program, structure, catalog, &mut Governor::new(None))
}

/// [`ground`] with a resource governor: the guard-instantiation loop is
/// the pipeline's only data-proportional loop, so it carries the work
/// checkpoints (1 fuel unit per guard instantiation). On a trip the
/// grounding is *incomplete* — the caller must not solve it for a model
/// (an incomplete grounding under-constrains nothing but proves nothing).
pub(crate) fn ground_governed(
    program: &Program,
    structure: &Structure,
    catalog: &FdCatalog,
    gov: &mut Governor<'_>,
) -> Result<Grounding, QgError> {
    program
        .check_semipositive()
        .map_err(|message| QgError::NotSemipositive { message })?;
    let plans = analyze(program, catalog)?;

    // Resolve each rule's lookup steps to (predicate, unique index) pairs
    // up front, validating the declared FDs once per distinct index.
    let mut validated: FxHashMap<(PredId, Box<[usize]>), Arc<PosIndex>> = FxHashMap::default();
    let mut step_indexes: Vec<Vec<(PredId, Arc<PosIndex>)>> = Vec::with_capacity(plans.len());
    for (rule, plan) in program.rules.iter().zip(&plans) {
        let mut resolved = Vec::with_capacity(plan.steps.len());
        for step in &plan.steps {
            let pred = match rule.body[step.literal].atom.pred {
                PredRef::Edb(p) => p,
                PredRef::Idb(_) => unreachable!(),
            };
            let key = (pred, step.fd.determinant.clone().into_boxed_slice());
            let idx = match validated.get(&key) {
                Some(idx) => Arc::clone(idx),
                None => {
                    let idx = unique_index(structure, pred, &step.fd.determinant)?;
                    validated.insert(key, Arc::clone(&idx));
                    idx
                }
            };
            resolved.push((pred, idx));
        }
        step_indexes.push(resolved);
    }

    let mut atom_ids: FxHashMap<(u32, Box<[ElemId]>), u32> = FxHashMap::default();
    let mut horn = HornProgram::default();
    let mut stats = QgStats::default();

    let mut intern = |atom_ids: &mut FxHashMap<(u32, Box<[ElemId]>), u32>,
                      pred: u32,
                      args: Box<[ElemId]>|
     -> u32 {
        let next = atom_ids.len() as u32;
        *atom_ids.entry((pred, args)).or_insert(next)
    };

    let mut key_buf: Vec<ElemId> = Vec::new();
    'rules: for ((rule, plan), rule_indexes) in program.rules.iter().zip(&plans).zip(&step_indexes)
    {
        let mut bindings: Vec<Option<ElemId>> = vec![None; rule.var_count as usize];
        match plan.guard {
            None => {
                // Variable-free rule: single instantiation.
                stats.guard_instantiations += 1;
                emit_ground_rule(
                    rule,
                    &bindings,
                    structure,
                    &mut horn,
                    &mut atom_ids,
                    &mut intern,
                    &mut stats,
                );
            }
            Some(gi) => {
                let guard_pred = match rule.body[gi].atom.pred {
                    PredRef::Edb(p) => p,
                    PredRef::Idb(_) => unreachable!(),
                };
                let guard_atom = &rule.body[gi].atom;
                'tuples: for tuple in structure.relation(guard_pred).iter() {
                    stats.guard_instantiations += 1;
                    if gov.work(stats.guard_instantiations, 0) {
                        break 'rules;
                    }
                    bindings.fill(None);
                    // Bind the guard.
                    for (term, &value) in guard_atom.terms.iter().zip(tuple) {
                        match term {
                            Term::Const(c) => {
                                if *c != value {
                                    continue 'tuples;
                                }
                            }
                            Term::Var(v) => match bindings[v.index()] {
                                Some(prev) if prev != value => continue 'tuples,
                                _ => bindings[v.index()] = Some(value),
                            },
                        }
                    }
                    // Execute the lookup plan.
                    for (step, (pred, idx)) in plan.steps.iter().zip(rule_indexes) {
                        let lit = &rule.body[step.literal];
                        key_buf.clear();
                        for &pos in &step.fd.determinant {
                            key_buf.push(match lit.atom.terms[pos] {
                                Term::Const(c) => c,
                                Term::Var(v) => {
                                    bindings[v.index()].expect("determinant bound by plan")
                                }
                            });
                        }
                        let rel = structure.relation(*pred);
                        // FD validation made every bucket a singleton.
                        let Some(&row) = rel.rows_matching(idx, &key_buf).first() else {
                            continue 'tuples; // no matching tuple: rule body unsatisfiable
                        };
                        let found = rel.tuple(row);
                        for (pos, &value) in found.iter().enumerate() {
                            match lit.atom.terms[pos] {
                                Term::Const(c) => {
                                    if c != value {
                                        continue 'tuples;
                                    }
                                }
                                Term::Var(v) => match bindings[v.index()] {
                                    Some(prev) if prev != value => continue 'tuples,
                                    _ => bindings[v.index()] = Some(value),
                                },
                            }
                        }
                    }
                    emit_ground_rule(
                        rule,
                        &bindings,
                        structure,
                        &mut horn,
                        &mut atom_ids,
                        &mut intern,
                        &mut stats,
                    );
                }
            }
        }
    }
    horn.n_atoms = atom_ids.len();
    stats.ground_atoms = atom_ids.len();
    stats.ground_rules = horn.rules.len();
    Ok(Grounding {
        horn,
        atom_ids,
        stats,
    })
}

/// Checks residual extensional literals under full bindings and, if they
/// pass, adds the instantiated rule to the Horn program.
#[allow(clippy::too_many_arguments)]
fn emit_ground_rule(
    rule: &Rule,
    bindings: &[Option<ElemId>],
    structure: &Structure,
    horn: &mut HornProgram,
    atom_ids: &mut FxHashMap<(u32, Box<[ElemId]>), u32>,
    intern: &mut impl FnMut(&mut FxHashMap<(u32, Box<[ElemId]>), u32>, u32, Box<[ElemId]>) -> u32,
    stats: &mut QgStats,
) {
    let value = |t: &Term| -> ElemId {
        match t {
            Term::Const(c) => *c,
            Term::Var(v) => bindings[v.index()].expect("plan bound all variables"),
        }
    };
    let mut body_atoms: Vec<u32> = Vec::new();
    for Literal { atom, positive } in &rule.body {
        let args: Box<[ElemId]> = atom.terms.iter().map(value).collect();
        match atom.pred {
            PredRef::Edb(p) => {
                if structure.holds(p, &args) != *positive {
                    return; // extensional literal fails: drop instantiation
                }
            }
            PredRef::Idb(id) => {
                debug_assert!(*positive, "semipositive program");
                body_atoms.push(intern(atom_ids, id.0, args));
            }
        }
    }
    let head_args: Box<[ElemId]> = rule.head.terms.iter().map(value).collect();
    let head = match rule.head.pred {
        PredRef::Idb(id) => intern(atom_ids, id.0, head_args),
        PredRef::Edb(_) => unreachable!("extensional heads rejected earlier"),
    };
    horn.rules.push(HornRule {
        head,
        body: body_atoms,
    });
    let _ = stats;
}

/// Full quasi-guarded evaluation: ground, run LTUR, decode into an
/// [`IdbStore`]. Runs in `O(|P| · |𝒜|)` (Theorem 4.4). The engine behind
/// [`Evaluator`](crate::evaluator::Evaluator) sessions with an attached
/// [`FdCatalog`]. On a governor trip the grounding is incomplete, so the
/// LTUR solve is *skipped* — a least model of a partial grounding is not a
/// subset of the real one — and an empty store is returned; the caller
/// reads the trip off the governor and reports no partial result.
pub(crate) fn run_quasi_guarded(
    program: &Program,
    structure: &Structure,
    catalog: &FdCatalog,
    gov: &mut Governor<'_>,
) -> Result<(IdbStore, QgStats), QgError> {
    let grounding = ground_governed(program, structure, catalog, gov)?;
    // Stage checkpoint at the grounding → solve boundary: guarantees every
    // governed QG run passes at least one checkpoint, however small the
    // structure (the amortized work checks inside the grounding loop only
    // fire every few thousand guard instantiations).
    gov.round(grounding.stats.guard_instantiations, 0);
    if gov.tripped().is_some() {
        return Ok((IdbStore::new_for(program), grounding.stats));
    }
    let model = grounding.horn.least_model();
    let mut store = IdbStore::new_for(program);
    for ((pred, args), id) in &grounding.atom_ids {
        if model[*id as usize] {
            store.insert_raw(crate::ast::IdbId(*pred), args);
        }
    }
    Ok((store, grounding.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{EvalOptions, Evaluator};
    use crate::parser::parse_program;
    use mdtw_structure::{Domain, Signature};
    use std::sync::Arc;

    /// A chain encoded τ_td-style: next(a,b) functional both ways.
    fn chain_structure(n: usize) -> Structure {
        let sig = Arc::new(Signature::from_pairs([("next", 2), ("first", 1)]));
        let dom = Domain::anonymous(n);
        let mut s = Structure::new(sig, dom);
        let next = s.signature().lookup("next").unwrap();
        let first = s.signature().lookup("first").unwrap();
        s.insert(first, &[ElemId(0)]);
        for i in 0..n - 1 {
            s.insert(next, &[ElemId(i as u32), ElemId(i as u32 + 1)]);
        }
        s
    }

    /// One quasi-guarded evaluation of `p` over `s` by a fresh session.
    fn eval_qg(p: &Program, s: &Structure, cat: &FdCatalog) -> (IdbStore, QgStats) {
        let options = EvalOptions::new().fd_catalog(cat.clone());
        let result = Evaluator::with_options(p.clone(), options)
            .unwrap()
            .evaluate(s)
            .unwrap();
        (
            result.store,
            result.qg.expect("quasi-guarded sessions report QgStats"),
        )
    }

    fn chain_catalog(s: &Structure) -> FdCatalog {
        let mut cat = FdCatalog::new();
        let next = s.signature().lookup("next").unwrap();
        cat.declare(next, vec![0], vec![1]);
        cat.declare(next, vec![1], vec![0]);
        cat
    }

    #[test]
    fn quasi_guarded_chain_reachability() {
        let s = chain_structure(6);
        let cat = chain_catalog(&s);
        let p = parse_program(
            "reach(X) :- first(X).\nreach(Y) :- reach(X), next(X, Y).",
            &s,
        )
        .unwrap();
        let (store, stats) = eval_qg(&p, &s, &cat);
        let reach = p.idb("reach").unwrap();
        assert_eq!(store.unary(reach).len(), 6);
        // Ground rules: one per `first` tuple + one per `next` tuple.
        assert_eq!(stats.ground_rules, 1 + 5);
    }

    #[test]
    fn agrees_with_seminaive() {
        let s = chain_structure(9);
        let cat = chain_catalog(&s);
        let src = "reach(X) :- first(X).\nreach(Y) :- reach(X), next(X, Y).\n\
                   inner(X) :- reach(X), next(X, Y), !first(X).";
        let p = parse_program(src, &s).unwrap();
        let (qg, _) = eval_qg(&p, &s, &cat);
        let sn = Evaluator::new(p.clone())
            .unwrap()
            .evaluate(&s)
            .unwrap()
            .store;
        for name in ["reach", "inner"] {
            let id = p.idb(name).unwrap();
            assert_eq!(qg.tuples(id), sn.tuples(id), "{name}");
        }
    }

    #[test]
    fn rejects_unguarded_rule() {
        let s = chain_structure(4);
        let cat = FdCatalog::new(); // no FDs declared
                                    // Y is not functionally dependent on any single EDB atom's vars.
        let p = parse_program("pair(X, Y) :- first(X), first(Y).", &s).unwrap();
        // first(X) binds X only; first(Y) binds Y only; neither atom alone
        // covers both and no FDs help... but wait: both are EDB candidates
        // and the *other* literal is also extensional. Without FDs the
        // analysis cannot bind the other variable.
        let err = ground(&p, &s, &cat).unwrap_err();
        assert_eq!(err, QgError::NotQuasiGuarded { rule: 0 });
    }

    #[test]
    fn variable_free_rules_are_quasi_guarded() {
        let s = chain_structure(3);
        let cat = chain_catalog(&s);
        let p = parse_program("flag :- next(x0, x1).\nflag2 :- flag.", &s).unwrap();
        let (store, _) = eval_qg(&p, &s, &cat);
        assert!(store.holds(p.idb("flag2").unwrap(), &[]));
    }

    #[test]
    fn failing_lookup_drops_instantiation() {
        let s = chain_structure(3);
        let cat = chain_catalog(&s);
        // The last element has no successor: rule must simply not fire.
        let p = parse_program("succ_of(Y) :- first(X), next(X, Y).", &s).unwrap();
        let (store, _) = eval_qg(&p, &s, &cat);
        assert_eq!(store.unary(p.idb("succ_of").unwrap()), vec![ElemId(1)]);
    }

    #[test]
    fn fd_violation_is_detected() {
        let sig = Arc::new(Signature::from_pairs([("next", 2)]));
        let dom = Domain::anonymous(3);
        let mut s = Structure::new(sig, dom);
        let next = s.signature().lookup("next").unwrap();
        s.insert(next, &[ElemId(0), ElemId(1)]);
        s.insert(next, &[ElemId(0), ElemId(2)]); // violates {0}→{1}
        let mut cat = FdCatalog::new();
        cat.declare(next, vec![0], vec![1]);
        // Guard next(X, X) binds only X; resolving Y requires the (bad)
        // index on next keyed by position 0.
        let p = parse_program("r(Y) :- next(X, X), next(X, Y).", &s).unwrap();
        assert_eq!(
            ground(&p, &s, &cat).unwrap_err(),
            QgError::FdViolated { pred: next }
        );
    }

    #[test]
    fn negative_literals_checked_at_grounding() {
        let s = chain_structure(4);
        let cat = chain_catalog(&s);
        let p = parse_program("mid(Y) :- next(X, Y), !first(X).", &s).unwrap();
        let (store, _) = eval_qg(&p, &s, &cat);
        assert_eq!(
            store.unary(p.idb("mid").unwrap()),
            vec![ElemId(2), ElemId(3)]
        );
    }
}
