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
//! Evaluation follows the proof of Theorem 4.4: instantiate each rule once
//! per guard tuple (≤ |𝒜| instantiations), resolve the remaining variables
//! through unique-index lookups, check the residual extensional literals,
//! and solve the resulting ground program `P′` (of size `O(|P|·|𝒜|)`) with
//! the counter-based LTUR algorithm of the [`horn`](mod@crate::horn)
//! module. [`ground`] expands `P′` into a [`HornProgram`]; an evaluation
//! session solves it without expanding it (see below).
//!
//! # Skeleton groups
//!
//! Everything extensional about an instantiation — binding the guard,
//! the lookups, the residual checks — depends only on the rule's
//! *extensional skeleton*: its variable count plus its ordered list of
//! extensional literals. The Theorem 4.5 construction emits one rule per
//! (type, transition), so its programs have few skeletons and many rules
//! per skeleton (548 rules over 16 skeletons for `has_neighbor` at width
//! 1); the rules differ only in their intensional atoms. `QgPlan`, built
//! once per session, groups the rules by skeleton and analyzes each group
//! once. Grounding then does the extensional work once per (group, guard
//! tuple) and, when it succeeds, instantiates every member rule's
//! intensional atoms under the shared bindings.
//!
//! The `O(|P|·|𝒜|)` bound is unchanged: a group has at most `|𝒜|` guard
//! tuples and emits at most one ground rule per member and guard tuple.
//! But the extensional part now costs `O(#groups·|𝒜|)` instead of
//! `O(|P|·|𝒜|)`; only `P′` itself still scales with the rule count.
//!
//! # Solving instances, not rules
//!
//! A successful (group, guard tuple) pair is an *instance*: its ground
//! rules are the group's members with every intensional atom replaced by
//! the atom id the instance binds it to. Since the members differ only in
//! their intensional atoms, an instance is fully described by its group
//! and the ids of the group's distinct intensional atoms, its *slots*, in
//! the order they first occur in the members. A `has_neighbor` branch
//! instance binds 48 distinct atoms but expands to 128 rules with 256
//! body cells, so grounding records the instance — group id and atom ids
//! — and never writes the expanded rules.
//!
//! LTUR runs over the instances directly. Each group carries a solve
//! template, built once when the session compiles its plan: per slot, the
//! members whose bodies contain it (once per occurrence), and the members
//! with an empty intensional body; each member gives its head slot and
//! intensional body length. The solver keeps one counter per (instance, member),
//! that is one per ground rule, and one watch list per atom of (instance,
//! slot) pairs, at most one per atom cell of the instances. Deriving an
//! atom walks its watchers and, through the template, the members watching
//! that slot: every counter is decremented once per body occurrence,
//! exactly as the expanded program's would be. The work is therefore
//! `O(|P′|)` and the whole evaluation `O(|P|·|𝒜|)`, while the ground
//! program is stored in `O(#instances · #slots)` cells instead of
//! `O(|P′|)`.
//!
//! [`ground`] expands the same instances, member by member, into the
//! [`HornProgram`] `P′` with the atom ids and rule order a rule-by-rule
//! emission would give. It is Theorem 4.4's artifact and the test oracle
//! the instance solver is checked against.

use crate::ast::{Atom, IdbId, Literal, PredRef, Program, Term};
use crate::eval::IdbStore;
use crate::horn::HornProgram;
use crate::limits::Governor;
use mdtw_structure::fx::FxHashMap;
use mdtw_structure::{ElemId, PosIndex, PredId, Relation, Structure};
use std::collections::hash_map::Entry;
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

impl FuncDep {
    /// True if the guard analysis may use this dependency on a predicate
    /// of `arity`: the determinant is non-empty, every position is in
    /// range, and `determinant ∪ determined` covers `0..arity`.
    fn usable(&self, arity: usize) -> bool {
        let mut covered = vec![false; arity];
        for &pos in self.determinant.iter().chain(&self.determined) {
            match covered.get_mut(pos) {
                Some(c) => *c = true,
                None => return false,
            }
        }
        !self.determinant.is_empty() && covered.iter().all(|&c| c)
    }
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
    /// Every declaration is accepted, but the guard analysis uses only
    /// those that can serve as a unique index: a non-empty determinant,
    /// every position within the predicate's arity, and
    /// `determinant ∪ determined` covering the whole arity. Any other
    /// declaration is ignored, so a rule that would need it is rejected
    /// with [`QgError::NotQuasiGuarded`] when the session is built.
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QgStats {
    /// Number of ground rules produced (`|P′| ≤ |P|·|𝒜|`).
    pub ground_rules: usize,
    /// Number of (skeleton group, guard tuple) pairs visited — one per
    /// group for a variable-free group. Each pair is one unit of governed
    /// work, so the fuel a governed evaluation charges follows this count.
    pub guard_instantiations: usize,
    /// Number of distinct ground atoms.
    pub ground_atoms: usize,
}

/// One step of a skeleton's variable-resolution plan: fetch the tuple of
/// extensional literal `literal` through the unique index on
/// `determinant`, binding the variables it determines.
#[derive(Debug)]
struct Lookup {
    /// Index into [`Skeleton::edb`].
    literal: usize,
    /// The literal's predicate.
    pred: PredId,
    /// Determinant positions of the dependency used.
    determinant: Vec<usize>,
    /// Index into [`QgPlan::unique_keys`]: the index this step probes.
    key: usize,
}

/// An intensional atom of a member rule.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct IdbAtom {
    pred: IdbId,
    terms: Box<[Term]>,
}

/// The intensional part of one rule of a skeleton group, as indexes into
/// [`Skeleton::atoms`].
#[derive(Debug)]
struct Member {
    head: u32,
    body: Box<[u32]>,
}

/// The index LTUR needs, besides the members themselves, to solve a
/// skeleton group's members over one instance without expanding them (see
/// the [module docs](self)). Slots and members are indexes into
/// [`Skeleton::atoms`] and [`Skeleton::members`].
#[derive(Debug, Default)]
struct Template {
    /// The members watching slot `s` are
    /// `watchers[watch_start[s]..watch_start[s + 1]]`.
    watch_start: Vec<u32>,
    /// Members by body slot, once per occurrence (so `h ← a, a` watches
    /// `a` twice).
    watchers: Vec<u32>,
    /// The members with an empty intensional body: one fact per instance.
    facts: Vec<u32>,
}

impl Template {
    fn new(slots: usize, members: &[Member]) -> Self {
        let mut watch_start = vec![0u32; slots + 1];
        for &slot in members.iter().flat_map(|m| m.body.iter()) {
            watch_start[slot as usize + 1] += 1;
        }
        for s in 0..slots {
            watch_start[s + 1] += watch_start[s];
        }
        let mut fill = watch_start.clone();
        let mut watchers = vec![0u32; watch_start[slots] as usize];
        for (mi, member) in members.iter().enumerate() {
            for &slot in &member.body {
                let at = &mut fill[slot as usize];
                watchers[*at as usize] = mi as u32;
                *at += 1;
            }
        }
        Self {
            watch_start,
            watchers,
            facts: (0..members.len() as u32)
                .filter(|&mi| members[mi as usize].body.is_empty())
                .collect(),
        }
    }

    /// The members watching `slot`.
    #[inline]
    fn watchers(&self, slot: usize) -> &[u32] {
        &self.watchers[self.watch_start[slot] as usize..self.watch_start[slot + 1] as usize]
    }
}

/// Rules sharing one extensional skeleton, with the skeleton's grounding
/// plan.
#[derive(Debug)]
struct Skeleton {
    var_count: usize,
    /// The shared extensional literals, in body order.
    edb: Vec<Literal>,
    /// Guard literal (index into `edb`); `None` for variable-free rules.
    guard: Option<usize>,
    /// Lookup steps executed after binding the guard.
    lookups: Vec<Lookup>,
    /// The extensional literals neither the guard nor a lookup verifies.
    residual: Vec<usize>,
    /// The distinct intensional atoms of the members: each is interned at
    /// most once per guard tuple, however many members share it.
    atoms: Vec<IdbAtom>,
    members: Vec<Member>,
    template: Template,
}

/// The compiled quasi-guarded grounding plan of a program: its rules
/// grouped by extensional skeleton (see the [module docs](self)), each
/// group analyzed once. Structure-independent, so an
/// [`Evaluator`](crate::evaluator::Evaluator) session builds it once at
/// construction and every evaluation reuses it.
#[derive(Debug)]
pub(crate) struct QgPlan {
    groups: Vec<Skeleton>,
    /// The distinct `(predicate, determinant)` unique indexes the lookups
    /// probe; each is validated once per grounding.
    unique_keys: Vec<(PredId, Vec<usize>)>,
    idb_arities: Vec<usize>,
}

fn edb_pred(literal: &Literal) -> PredId {
    match literal.atom.pred {
        PredRef::Edb(p) => p,
        PredRef::Idb(_) => unreachable!("skeletons hold extensional literals only"),
    }
}

impl QgPlan {
    /// Compiles the grounding plan of a semipositive program.
    ///
    /// # Errors
    /// [`QgError::NotSemipositive`] if the program negates an intensional
    /// atom, [`QgError::NotQuasiGuarded`] naming the first rule without a
    /// quasi-guard under `catalog`.
    pub(crate) fn compile(program: &Program, catalog: &FdCatalog) -> Result<Self, QgError> {
        program
            .check_semipositive()
            .map_err(|message| QgError::NotSemipositive { message })?;
        Self::analyze(program, catalog)
    }

    /// Groups the rules by skeleton and finds each group's quasi-guard.
    fn analyze(program: &Program, catalog: &FdCatalog) -> Result<Self, QgError> {
        let mut plan = Self {
            groups: Vec::new(),
            unique_keys: Vec::new(),
            idb_arities: program.idb_arities.clone(),
        };
        let mut by_skeleton: FxHashMap<(u32, Vec<Literal>), usize> = FxHashMap::default();
        let mut atom_index: FxHashMap<(usize, IdbAtom), u32> = FxHashMap::default();
        for (ri, rule) in program.rules.iter().enumerate() {
            let edb: Vec<Literal> = rule
                .body
                .iter()
                .filter(|l| matches!(l.atom.pred, PredRef::Edb(_)))
                .cloned()
                .collect();
            let group = match by_skeleton.entry((rule.var_count, edb)) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let skeleton = plan
                        .skeleton(rule.var_count as usize, e.key().1.clone(), catalog)
                        .ok_or(QgError::NotQuasiGuarded { rule: ri })?;
                    plan.groups.push(skeleton);
                    *e.insert(plan.groups.len() - 1)
                }
            };
            let skeleton = &mut plan.groups[group];
            let mut index = |atom: &Atom| -> Option<u32> {
                let PredRef::Idb(pred) = atom.pred else {
                    return None;
                };
                let atom = IdbAtom {
                    pred,
                    terms: atom.terms.as_slice().into(),
                };
                Some(
                    *atom_index
                        .entry((group, atom))
                        .or_insert_with_key(|(_, atom)| {
                            skeleton.atoms.push(atom.clone());
                            skeleton.atoms.len() as u32 - 1
                        }),
                )
            };
            let member = Member {
                head: index(&rule.head).expect("extensional heads rejected earlier"),
                body: rule.body.iter().filter_map(|l| index(&l.atom)).collect(),
            };
            skeleton.members.push(member);
        }
        for group in &mut plan.groups {
            group.template = Template::new(group.atoms.len(), &group.members);
        }
        Ok(plan)
    }

    /// Finds a quasi-guard for the skeleton `(var_count, edb)` and its
    /// lookup plan, or `None` if no positive extensional literal is one.
    fn skeleton(
        &mut self,
        var_count: usize,
        edb: Vec<Literal>,
        catalog: &FdCatalog,
    ) -> Option<Skeleton> {
        let (guard, mut lookups) = if var_count == 0 {
            (None, Vec::new())
        } else {
            let (gi, lookups) = find_guard(var_count, &edb, catalog)?;
            (Some(gi), lookups)
        };
        for step in &mut lookups {
            let key = (step.pred, step.determinant.clone());
            step.key = match self.unique_keys.iter().position(|k| *k == key) {
                Some(k) => k,
                None => {
                    self.unique_keys.push(key);
                    self.unique_keys.len() - 1
                }
            };
        }
        let residual = (0..edb.len())
            .filter(|&i| guard != Some(i) && lookups.iter().all(|l| l.literal != i))
            .collect();
        Some(Skeleton {
            var_count,
            edb,
            guard,
            lookups,
            residual,
            atoms: Vec::new(),
            members: Vec::new(),
            template: Template::default(),
        })
    }

    /// Grounds the program over `structure` (the construction in the proof
    /// of Theorem 4.4, one skeleton group at a time) into instances. The
    /// guard loop is the pipeline's only data-proportional loop, so it
    /// carries the work checkpoints (one unit per group and guard tuple).
    /// On a trip the grounding is *incomplete* — the caller must not solve
    /// it for a model (an incomplete grounding under-constrains nothing but
    /// proves nothing).
    ///
    /// # Errors
    /// [`QgError::FdViolated`] if the data violates a dependency a lookup
    /// relies on.
    fn instantiate(
        &self,
        structure: &Structure,
        gov: &mut Governor<'_>,
    ) -> Result<Instances, QgError> {
        let indexes = self
            .unique_keys
            .iter()
            .map(|(pred, determinant)| unique_index(structure, *pred, determinant))
            .collect::<Result<Vec<_>, _>>()?;
        let mut out = Instances {
            atoms: AtomTable::new(&self.idb_arities),
            instances: Vec::new(),
            cells: Vec::new(),
            stats: QgStats::default(),
        };
        let mut bindings: Vec<Option<ElemId>> = Vec::new();
        let mut args: Vec<ElemId> = Vec::new();
        'groups: for (gid, group) in self.groups.iter().enumerate() {
            bindings.clear();
            bindings.resize(group.var_count, None);
            let Some(gi) = group.guard else {
                out.stats.guard_instantiations += 1;
                if group.residual_holds(structure, &bindings, &mut args) {
                    out.record(gid, group, &bindings, &mut args);
                }
                continue;
            };
            let guard = &group.edb[gi].atom.terms;
            for tuple in structure.relation(edb_pred(&group.edb[gi])).iter() {
                out.stats.guard_instantiations += 1;
                if gov.work(out.stats.guard_instantiations, 0) {
                    break 'groups;
                }
                bindings.fill(None);
                if bind(guard, tuple, &mut bindings)
                    && group.resolve(structure, &indexes, &mut bindings, &mut args)
                    && group.residual_holds(structure, &bindings, &mut args)
                {
                    out.record(gid, group, &bindings, &mut args);
                }
            }
        }
        out.stats.ground_atoms = out.atoms.len as usize;
        Ok(out)
    }

    /// Full quasi-guarded evaluation: ground into instances, solve them
    /// with LTUR, decode into an [`IdbStore`] shaped for `program` (the
    /// program this plan was compiled from). Runs in `O(|P| · |𝒜|)`
    /// (Theorem 4.4). On a governor trip the grounding is incomplete, so
    /// the solve is *skipped* — a least model of a partial grounding is not
    /// a subset of the real one — and an empty store is returned; the
    /// caller reads the trip off the governor and reports no partial
    /// result.
    pub(crate) fn evaluate(
        &self,
        program: &Program,
        structure: &Structure,
        gov: &mut Governor<'_>,
    ) -> Result<(IdbStore, QgStats), QgError> {
        let instances = self.instantiate(structure, gov)?;
        // Stage checkpoint at the grounding → solve boundary: guarantees
        // every governed QG run passes at least one checkpoint, however
        // small the structure (the amortized work checks inside the
        // grounding loop only fire every few thousand guard
        // instantiations).
        gov.round(instances.stats.guard_instantiations, 0);
        let mut store = IdbStore::new_for(program);
        if gov.tripped().is_some() {
            return Ok((store, instances.stats));
        }
        let model = instances.least_model(&self.groups);
        let atoms = &instances.atoms;
        for (p, (rel, ids)) in atoms.rels.iter().zip(&atoms.ids).enumerate() {
            for (tuple, &id) in rel.iter().zip(ids) {
                if model[id as usize] {
                    store.insert_raw(IdbId(p as u32), tuple);
                }
            }
        }
        Ok((store, instances.stats))
    }
}

/// Searches the positive literals of `edb` for a quasi-guard: returns its
/// index and the lookups that bind the remaining variables, in execution
/// order (their [`Lookup::key`]s are not assigned yet).
fn find_guard(
    var_count: usize,
    edb: &[Literal],
    catalog: &FdCatalog,
) -> Option<(usize, Vec<Lookup>)> {
    let positive: Vec<usize> = (0..edb.len()).filter(|&i| edb[i].positive).collect();
    'guards: for &gi in &positive {
        let mut bound = vec![false; var_count];
        for v in edb[gi].atom.vars() {
            bound[v.index()] = true;
        }
        let mut steps = Vec::new();
        loop {
            if bound.iter().all(|&b| b) {
                return Some((gi, steps));
            }
            // Find a literal+FD whose determinant is fully bound and which
            // binds at least one new variable.
            let mut progressed = false;
            for &li in &positive {
                let terms = &edb[li].atom.terms;
                let pred = edb_pred(&edb[li]);
                for fd in catalog.of(pred) {
                    if !fd.usable(terms.len()) {
                        continue;
                    }
                    let det_bound = fd.determinant.iter().all(|&pos| match terms[pos] {
                        Term::Const(_) => true,
                        Term::Var(v) => bound[v.index()],
                    });
                    if !det_bound {
                        continue;
                    }
                    let mut news = false;
                    for &pos in &fd.determined {
                        if let Term::Var(v) = terms[pos] {
                            news |= !std::mem::replace(&mut bound[v.index()], true);
                        }
                    }
                    if news {
                        steps.push(Lookup {
                            literal: li,
                            pred,
                            determinant: fd.determinant.clone(),
                            key: 0,
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

/// The value of `term` under `bindings`.
#[inline]
fn value(term: &Term, bindings: &[Option<ElemId>]) -> ElemId {
    match *term {
        Term::Const(c) => c,
        Term::Var(v) => bindings[v.index()].expect("plan bound the variable"),
    }
}

/// Unifies `terms` with `tuple`, extending `bindings`; false on a clash
/// with a constant or an earlier binding.
#[inline]
fn bind(terms: &[Term], tuple: &[ElemId], bindings: &mut [Option<ElemId>]) -> bool {
    terms.iter().zip(tuple).all(|(term, &value)| match *term {
        Term::Const(c) => c == value,
        Term::Var(v) => *bindings[v.index()].get_or_insert(value) == value,
    })
}

impl Skeleton {
    /// Runs the lookup steps after the guard is bound; false if a lookup
    /// finds no tuple or its tuple clashes with the bindings.
    fn resolve(
        &self,
        structure: &Structure,
        indexes: &[Arc<PosIndex>],
        bindings: &mut [Option<ElemId>],
        key: &mut Vec<ElemId>,
    ) -> bool {
        self.lookups.iter().all(|step| {
            let terms = &self.edb[step.literal].atom.terms;
            key.clear();
            key.extend(
                step.determinant
                    .iter()
                    .map(|&pos| value(&terms[pos], bindings)),
            );
            let rel = structure.relation(step.pred);
            // FD validation made every bucket a singleton.
            match rel.rows_matching(&indexes[step.key], key).first() {
                Some(&row) => bind(terms, rel.tuple(row), bindings),
                None => false,
            }
        })
    }

    /// Checks the residual extensional literals under full bindings.
    fn residual_holds(
        &self,
        structure: &Structure,
        bindings: &[Option<ElemId>],
        args: &mut Vec<ElemId>,
    ) -> bool {
        self.residual.iter().all(|&i| {
            let Literal { atom, positive } = &self.edb[i];
            args.clear();
            args.extend(atom.terms.iter().map(|t| value(t, bindings)));
            structure.holds(edb_pred(&self.edb[i]), args) == *positive
        })
    }
}

/// One successful (group, guard tuple) pair: its ground rules are the
/// group's members over the atom ids in `cells[cells..cells + #slots]`.
#[derive(Debug, Clone, Copy)]
struct Instance {
    /// Index into [`QgPlan::groups`].
    group: u32,
    /// Where the instance's atom ids start in [`Instances::cells`].
    cells: u32,
    /// Where the instance's member counters start: the number of ground
    /// rules of the instances before it.
    counters: u32,
}

/// The ground program `P′` in instance form (see the [module
/// docs](self)): the atom interner, the successful instances in grounding
/// order, and every instance's atom ids back to back in slot order.
#[derive(Debug)]
struct Instances {
    atoms: AtomTable,
    instances: Vec<Instance>,
    cells: Vec<u32>,
    stats: QgStats,
}

impl Instances {
    /// Records the instance of `group` (number `gid`) under `bindings`:
    /// interns the group's atoms in slot order (`args` is scratch space).
    fn record(
        &mut self,
        gid: usize,
        group: &Skeleton,
        bindings: &[Option<ElemId>],
        args: &mut Vec<ElemId>,
    ) {
        let (cells, counters) = (self.cells.len(), self.stats.ground_rules);
        for atom in &group.atoms {
            let id = self.atoms.intern(atom, bindings, args);
            self.cells.push(id);
        }
        self.stats.ground_rules += group.members.len();
        let end = self.cells.len().max(self.stats.ground_rules);
        assert!(
            u32::try_from(end).is_ok(),
            "a grounding has fewer than 2^32 atom cells and ground rules"
        );
        self.instances.push(Instance {
            group: gid as u32,
            cells: cells as u32,
            counters: counters as u32,
        });
    }

    /// The instances of `groups` (the plan's groups) with their cells.
    fn iter<'a>(
        &'a self,
        groups: &'a [Skeleton],
    ) -> impl Iterator<Item = (&'a Skeleton, &'a [u32])> + 'a {
        self.instances.iter().map(move |inst| {
            let group = &groups[inst.group as usize];
            let start = inst.cells as usize;
            (group, &self.cells[start..start + group.atoms.len()])
        })
    }

    /// Expands every instance, member by member, into the Horn program
    /// `P′`: the rules a rule-by-rule grounding would push, in the same
    /// order and over the same atom ids.
    fn expand(&self, groups: &[Skeleton]) -> HornProgram {
        let mut horn = HornProgram::new(self.atoms.len as usize);
        for (group, cells) in self.iter(groups) {
            for member in &group.members {
                horn.push(
                    cells[member.head as usize],
                    member.body.iter().map(|&slot| cells[slot as usize]),
                );
            }
        }
        horn
    }

    /// The least model of `P′` by LTUR over the instances, one boolean per
    /// atom id. Agrees with `self.expand(groups).least_model()` in
    /// `O(|P′|)` time without building the expanded program.
    fn least_model(&self, groups: &[Skeleton]) -> Vec<bool> {
        let n = self.atoms.len as usize;
        // One counter per (instance, member): the unsatisfied body atoms.
        let mut counter = Vec::with_capacity(self.stats.ground_rules);
        // wstart[a] counts the watched cells holding atom a; prefix-summed,
        // it is where a's watch segment ends.
        let mut wstart = vec![0u32; n + 1];
        for (group, cells) in self.iter(groups) {
            counter.extend(group.members.iter().map(|m| m.body.len() as u32));
            for (slot, &a) in cells.iter().enumerate() {
                if !group.template.watchers(slot).is_empty() {
                    wstart[a as usize] += 1;
                }
            }
        }
        let mut total = 0u32;
        for w in &mut wstart[..n] {
            total += *w;
            *w = total;
        }
        wstart[n] = total;
        // Fill each segment from its end with (instance, slot) pairs;
        // afterwards wstart[a] is where a's segment starts.
        let mut watch = vec![(0u32, 0u32); total as usize];
        for (i, (group, cells)) in self.iter(groups).enumerate() {
            for (slot, &a) in cells.iter().enumerate() {
                if !group.template.watchers(slot).is_empty() {
                    let w = &mut wstart[a as usize];
                    *w -= 1;
                    watch[*w as usize] = (i as u32, slot as u32);
                }
            }
        }
        let mut truth = vec![false; n];
        // Every atom enters the queue at most once.
        let mut queue: Vec<u32> = Vec::with_capacity(n);
        let derive = |a: u32, truth: &mut [bool], queue: &mut Vec<u32>| {
            if !std::mem::replace(&mut truth[a as usize], true) {
                queue.push(a);
            }
        };
        for (group, cells) in self.iter(groups) {
            for &m in &group.template.facts {
                let head = group.members[m as usize].head;
                derive(cells[head as usize], &mut truth, &mut queue);
            }
        }
        while let Some(a) = queue.pop() {
            let a = a as usize;
            for &(i, slot) in &watch[wstart[a] as usize..wstart[a + 1] as usize] {
                let inst = self.instances[i as usize];
                let group = &groups[inst.group as usize];
                for &m in group.template.watchers(slot as usize) {
                    let c = &mut counter[(inst.counters + m) as usize];
                    *c -= 1;
                    if *c == 0 {
                        let head = group.members[m as usize].head;
                        derive(
                            self.cells[(inst.cells + head) as usize],
                            &mut truth,
                            &mut queue,
                        );
                    }
                }
            }
        }
        truth
    }
}

/// The ground-atom interner: one relation per intensional predicate holds
/// the interned tuples, and `ids[pred][row]` is the atom id of that row.
/// Interning a seen atom is a hash probe into the relation's arena; nothing
/// is allocated per lookup.
#[derive(Debug)]
struct AtomTable {
    rels: Vec<Relation>,
    ids: Vec<Vec<u32>>,
    len: u32,
}

impl AtomTable {
    fn new(arities: &[usize]) -> Self {
        Self {
            rels: arities.iter().map(|&a| Relation::new(a)).collect(),
            ids: vec![Vec::new(); arities.len()],
            len: 0,
        }
    }

    /// The atom id of `atom` under `bindings`, interning it if new
    /// (`args` is scratch space).
    fn intern(
        &mut self,
        atom: &IdbAtom,
        bindings: &[Option<ElemId>],
        args: &mut Vec<ElemId>,
    ) -> u32 {
        args.clear();
        args.extend(atom.terms.iter().map(|t| value(t, bindings)));
        let p = atom.pred.index();
        let (row, new) = self.rels[p].insert_row(args);
        if new {
            self.ids[p].push(self.len);
            self.len += 1;
        }
        self.ids[p][row as usize]
    }
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

/// The expanded ground program `P′` of Theorem 4.4 plus the atom
/// interner used to decode its model.
///
/// This is the artifact the theorem's proof builds, and the oracle the
/// evaluation session is tested against: a session grounds into the same
/// instances but solves them without expanding them (see the [module
/// docs](self)), and its store is the decoded least model of
/// [`horn`](Self::horn).
#[derive(Debug)]
pub struct Grounding {
    /// The propositional Horn program `P′`, one rule per member and
    /// successful guard instantiation, in grounding order, stored flat:
    /// the heads, the body end offsets and one arena of every body's atom
    /// ids.
    pub horn: HornProgram,
    /// Ground atom interner.
    atoms: AtomTable,
    /// Statistics.
    pub stats: QgStats,
}

impl Grounding {
    /// The atom id of `pred(args)` if it occurs in the grounding.
    pub fn atom_id(&self, pred: IdbId, args: &[ElemId]) -> Option<u32> {
        let rel = self.atoms.rels.get(pred.index())?;
        if rel.arity() != args.len() {
            return None;
        }
        rel.row_of(args)
            .map(|row| self.atoms.ids[pred.index()][row as usize])
    }
}

/// Grounds a quasi-guarded program over a structure and expands the
/// result into the Horn program `P′` (the construction in the proof of
/// Theorem 4.4). A one-shot entry point: it compiles the plan an
/// [`Evaluator`](crate::evaluator::Evaluator) session would build once,
/// grounds with it into the same instances the session solves, and
/// expands them member by member. The session never builds this
/// program; it is the theorem's artifact and the oracle the session's
/// instance solver is tested against.
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
    let plan = QgPlan::compile(program, catalog)?;
    let instances = plan.instantiate(structure, &mut Governor::new(None))?;
    Ok(Grounding {
        horn: instances.expand(&plan.groups),
        stats: instances.stats,
        atoms: instances.atoms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{EvalError, EvalOptions, Evaluator};
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
    fn rules_sharing_a_skeleton_share_guard_work() {
        let s = chain_structure(6);
        let cat = chain_catalog(&s);
        // Two skeletons: `first(X)` (rules 0, 1) and `next(X, Y)` (rules
        // 2, 3); the intensional atoms differ per rule.
        let p = parse_program(
            "a(X) :- first(X).\nb(X) :- first(X).\n\
             reach(Y) :- a(X), next(X, Y).\nreach(Y) :- reach(X), next(X, Y).",
            &s,
        )
        .unwrap();
        let grounding = ground(&p, &s, &cat).unwrap();
        let stats = grounding.stats;
        assert_eq!(stats.guard_instantiations, 1 + 5, "one pass per skeleton");
        assert_eq!(stats.ground_rules, 2 + 2 * 5, "one rule per member");
        // a(0..5) (as heads and bodies), b(0) and reach(0..6), each
        // interned once.
        assert_eq!(stats.ground_atoms, 5 + 1 + 6);
        let reach = p.idb("reach").unwrap();
        assert!(grounding.atom_id(reach, &[ElemId(5)]).is_some());
        assert_eq!(grounding.atom_id(reach, &[ElemId(0), ElemId(1)]), None);
        assert_eq!(grounding.atom_id(IdbId(99), &[ElemId(0)]), None);
        let (store, _) = eval_qg(&p, &s, &cat);
        assert_eq!(store.unary(reach).len(), 5);
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
                                    // first(X) binds X only and first(Y) binds Y only: without FDs
                                    // neither literal can bind the other's variable.
        let p = parse_program("pair(X, Y) :- first(X), first(Y).", &s).unwrap();
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
    fn unusable_dependencies_are_ignored_by_the_analysis() {
        // t(n, a, b) and t(n, a, c) satisfy {0}→{1}, but that dependency
        // does not cover position 2, so it cannot serve as a unique index:
        // using it would report a spurious FdViolated at evaluation.
        let sig = Arc::new(Signature::from_pairs([("u", 2), ("t", 3)]));
        let mut s = Structure::new(sig, Domain::from_names(["n", "a", "b", "c", "w"]));
        let (u, t) = (
            s.signature().lookup("u").unwrap(),
            s.signature().lookup("t").unwrap(),
        );
        let e = |name| s.domain().lookup(name).unwrap();
        let (n, a, b, c, w) = (e("n"), e("a"), e("b"), e("c"), e("w"));
        s.insert(t, &[n, a, b]);
        s.insert(t, &[n, a, c]);
        s.insert(u, &[n, w]);
        // Y is reachable from the guard u(X, W) only through {0}→{1}.
        let p = parse_program("r(Y, W) :- u(X, W), t(X, Y, c).", &s).unwrap();
        let malformed = [
            (vec![0], vec![1]),       // does not cover position 2
            (vec![0], vec![1, 2, 3]), // position 3 out of range
            (vec![], vec![0, 1, 2]),  // empty determinant
        ];
        for (determinant, determined) in malformed {
            let mut cat = FdCatalog::new();
            cat.declare(t, determinant.clone(), determined);
            let err =
                Evaluator::with_options(p.clone(), EvalOptions::new().fd_catalog(cat)).unwrap_err();
            assert_eq!(
                err,
                EvalError::QuasiGuarded(QgError::NotQuasiGuarded { rule: 0 }),
                "determinant {determinant:?}"
            );
        }
        // A covering dependency the data satisfies is usable: Y resolves
        // through {0, 2}→{1}.
        let mut cat = FdCatalog::new();
        cat.declare(t, vec![0, 2], vec![1]);
        let (store, _) = eval_qg(&p, &s, &cat);
        assert!(store.holds(p.idb("r").unwrap(), &[a, w]));
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
