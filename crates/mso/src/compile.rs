//! The generic MSO-to-monadic-datalog transformation of Theorem 4.5.
//!
//! Given a unary MSO query `ϕ(x)` of quantifier depth `k` over
//! τ-structures of treewidth `w`, the construction enumerates the rank-k
//! types of pointed structures `(𝒜, s)` whose decompositions grow
//! bottom-up (Θ↑, rooted at `s`) or top-down (Θ↓, with `s` a leaf),
//! maintaining one *witness* structure per type, and emits one
//! quasi-guarded monadic datalog rule per type transition. Element
//! selection (part 3 of the proof) glues an up-witness to a down-witness
//! and model-checks `ϕ` on the result.
//!
//! Evaluation costs `O(|P|·|𝒜|)` (Theorem 4.4), so the compiler avoids
//! two kinds of redundant rules. Θ↑ branch saturation glues each
//! unordered pair of types once (the glued type is symmetric in the
//! pair). Element selection is emitted as a *cover* of the table of
//! selecting (up, down) pairs: a whole up type (row) or down type
//! (column) whose every glue-compatible partner selects position `i` gets
//! one rule `phi(x_i) ← up_ϑ(v), bag(v, x̄)` resp. `down_ϑ(v)`, and only
//! the selecting pairs no row or column covers keep the per-pair rule
//! `phi(x_i) ← up_ϑ₁(v), down_ϑ₂(v), bag(v, x̄)`. A column is dropped when
//! rows already cover all its selecting pairs: it would only derive again
//! the `phi` facts those rows derive. The row and column rules are sound
//! only when saturation was exhaustive ([`CompiledQuery::exhaustive`]);
//! the argument is written at the selection step of
//! [`compile_unary_filtered`]. For `has_neighbor` at width 1 this takes
//! the program from 812 to 548 rules.
//!
//! As the paper stresses, this construction is inherently exponential in
//! `|ϕ|` and `w` ("inevitably leads to programs of exponential size") —
//! the hand-crafted §5 programs exist precisely because of this. The
//! implementation therefore takes explicit [`CompileLimits`] and reports
//! blow-ups instead of thrashing; it is meant to be *run* at toy
//! parameters (e.g. τ = {e}, w = 1, k = 1) and cross-checked against the
//! naive evaluator, which the test suite and the `mso_pipeline` example
//! do.

use crate::ast::{IndVar, Mso};
use crate::eval::{eval_unary, Budget, BudgetExhausted};
use crate::types::{TypeId, TypeInterner};
use mdtw_datalog::{Atom, IdbId, Literal, PredRef, Program, Rule, Term, Var};
use mdtw_structure::fx::FxHashMap;
use mdtw_structure::{Domain, ElemId, Signature, Structure};
use std::sync::Arc;

/// Caps on the type enumeration.
#[derive(Debug, Clone, Copy)]
pub struct CompileLimits {
    /// Maximum number of types in Θ↑ plus Θ↓.
    pub max_types: usize,
    /// Maximum witness structure size (domain elements). Saturation skips
    /// an element replacement from a witness of this size and a branch
    /// gluing whose result would exceed it. Each skip can leave a
    /// transition without a rule, so the compiled program may then miss
    /// answers on some inputs (it never gains wrong ones); such a compile
    /// reports [`CompiledQuery::exhaustive`] as `false`.
    pub max_witness: usize,
    /// Step budget for each model check during element selection.
    pub check_budget: u64,
}

impl Default for CompileLimits {
    fn default() -> Self {
        Self {
            max_types: 4000,
            max_witness: 10,
            check_budget: 10_000_000,
        }
    }
}

/// Mode-aware type computation: FO types when the query is first-order.
fn type_of(
    ti: &mut TypeInterner,
    s: &Structure,
    bag: &[ElemId],
    k: usize,
    fo_only: bool,
) -> TypeId {
    if fo_only {
        ti.fo_type_of(s, bag, k)
    } else {
        ti.type_of(s, bag, k)
    }
}

/// Compilation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The type enumeration exceeded [`CompileLimits::max_types`] — the
    /// state explosion the paper predicts for the generic construction.
    TypeExplosion {
        /// Number of types reached when the limit was hit.
        reached: usize,
    },
    /// A model check during element selection ran out of budget.
    CheckBudget,
    /// The base-case enumeration alone is too large (`2^atoms` ground
    /// EDBs over one bag).
    BaseTooLarge {
        /// Number of candidate atoms over one bag.
        atoms: usize,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::TypeExplosion { reached } => {
                write!(f, "type enumeration exploded ({reached} types)")
            }
            CompileError::CheckBudget => write!(f, "model-check budget exhausted"),
            CompileError::BaseTooLarge { atoms } => {
                write!(f, "base case needs 2^{atoms} structures")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// The compiled query: a quasi-guarded monadic datalog program over τ_td
/// with distinguished unary predicate `phi`.
#[derive(Debug)]
pub struct CompiledQuery {
    /// The program. Evaluate it with an [`mdtw_datalog::Evaluator`]
    /// session carrying the τ_td functional dependencies —
    /// `Evaluator::with_options(program, EvalOptions::new()
    /// .fd_catalog(FdCatalog::for_td_signature(&enc.structure)))` — over
    /// `encode_tuple_td` structures whose base signature matches; one
    /// session serves every decomposition encoding of the query.
    pub program: Program,
    /// The `phi` predicate.
    pub phi: IdbId,
    /// Number of bottom-up types.
    pub up_types: usize,
    /// Number of top-down types.
    pub down_types: usize,
    /// True if saturation applied every transition of every type: no
    /// element replacement or branch gluing was skipped for
    /// [`CompileLimits::max_witness`]. Then every node of an in-class
    /// τ_td input derives exactly one up type and one down type, `phi`
    /// is exactly `ϕ`'s answer set, and element selection is emitted as
    /// row and column rules plus the per-pair rules they leave over. When
    /// `false`, the program may miss transitions, `phi` is a subset of the
    /// answer set, and selection keeps only per-pair rules.
    pub exhaustive: bool,
}

/// A witness `(𝒜, ā)`: a structure with a distinguished bag tuple.
#[derive(Debug, Clone)]
struct Witness {
    s: Structure,
    bag: Vec<ElemId>,
}

/// Compiles `ϕ(x)` (free variable `x`) over `base_sig`-structures of
/// treewidth `w` into monadic datalog over τ_td (Theorem 4.5).
pub fn compile_unary(
    phi: &Mso,
    x: IndVar,
    base_sig: &Arc<Signature>,
    w: usize,
    limits: CompileLimits,
) -> Result<CompiledQuery, CompileError> {
    compile_unary_filtered(phi, x, base_sig, w, limits, &|_| true)
}

/// Like [`compile_unary`] but enumerating only witness structures inside
/// a *structure class* given by `class` (e.g. symmetric irreflexive edge
/// relations for undirected graphs). Rules for out-of-class structures
/// can never fire on in-class data, so skipping them is sound as long as
/// the class is closed under induced substructures and unions glued on a
/// common bag — this is the "problem-specific optimization" lever of the
/// paper's §6 applied to the generic construction, and it is what makes
/// the construction runnable beyond toy signatures.
pub fn compile_unary_filtered(
    phi: &Mso,
    x: IndVar,
    base_sig: &Arc<Signature>,
    w: usize,
    limits: CompileLimits,
    class: &dyn Fn(&Structure) -> bool,
) -> Result<CompiledQuery, CompileError> {
    let k = phi.quantifier_depth();
    let fo_only = !phi.uses_sets();
    let mut ti = TypeInterner::new();
    let mut program = Program::default();
    let phi_pred = program.intern_idb("phi", 1).expect("fresh");

    // --- Base cases -------------------------------------------------------
    let bag_atoms = enumerate_bag_atoms(base_sig, w);
    if bag_atoms.len() > 16 {
        return Err(CompileError::BaseTooLarge {
            atoms: bag_atoms.len(),
        });
    }

    // Θ↑ and Θ↓ share base structures but carry distinct rule shapes.
    let mut up = TypeTable::default();
    let mut down = TypeTable::default();
    for mask in 0u32..(1u32 << bag_atoms.len()) {
        let witness = base_witness(base_sig, w, &bag_atoms, mask);
        if !class(&witness.s) {
            continue;
        }
        let ty = type_of(&mut ti, &witness.s, &witness.bag, k, fo_only);
        up.insert(ty, witness.clone());
        // One rule per enumerated structure ("in any case, we add the
        // following rule"), even when the type was seen before — distinct
        // EDB masks match different data.
        emit_base_rule(
            &mut program,
            base_sig,
            w,
            &bag_atoms,
            mask,
            up.name(ty),
            true,
        );
        down.insert(ty, witness);
        emit_base_rule(
            &mut program,
            base_sig,
            w,
            &bag_atoms,
            mask,
            down.name(ty),
            false,
        );
    }

    // --- Saturate Θ↑ -------------------------------------------------------
    let up_exhaustive = saturate(
        &mut up,
        None,
        &mut ti,
        &mut program,
        base_sig,
        w,
        k,
        &bag_atoms,
        &limits,
        Direction::Up,
        fo_only,
        class,
    )?;
    // --- Saturate Θ↓ (branch steps may consult Θ↑) --------------------------
    let up_snapshot = up.clone();
    let down_exhaustive = saturate(
        &mut down,
        Some(&up_snapshot),
        &mut ti,
        &mut program,
        base_sig,
        w,
        k,
        &bag_atoms,
        &limits,
        Direction::Down,
        fo_only,
        class,
    )?;
    let exhaustive = up_exhaustive && down_exhaustive;

    // --- Element selection (part 3) -----------------------------------------
    // `sel[u][d]` is the set of bag positions (bit i = position i) that the
    // glued pair (Θ↑ type u, Θ↓ type d) selects, `None` if the two bags
    // disagree on their EDB and cannot be glued.
    let mut sel: Vec<Vec<Option<u64>>> = vec![vec![None; down.types.len()]; up.types.len()];
    for (iu, row) in sel.iter_mut().enumerate() {
        for (id, cell) in row.iter_mut().enumerate() {
            let Some(glued) = merge_witnesses(&up.witnesses[iu], &down.witnesses[id]) else {
                continue;
            };
            let mut selected = 0u64;
            for (i, &ai) in glued.bag.iter().enumerate() {
                let mut budget = Budget::new(limits.check_budget);
                match eval_unary(phi, x, &glued.s, ai, &mut budget) {
                    Ok(true) => selected |= 1 << i,
                    Ok(false) => {}
                    Err(BudgetExhausted) => return Err(CompileError::CheckBudget),
                }
            }
            *cell = Some(selected);
        }
    }
    // Soundness of the cover. Every emitted transition rule is sound: the
    // type it derives at a node is the rank-k type of the node's real
    // up (resp. down) structure, because types compose. When saturation
    // is exhaustive every transition has its rule, so each node `v` of an
    // in-class τ_td input derives exactly one up type `u*` and exactly one
    // down type `d*`: the transition rules are deterministic in the child
    // types and the bag's EDB. The pair (u*, d*) is glue-compatible,
    // because both witness bags carry the EDB of `v`'s own bag, and `ϕ`
    // holds at `x_i` iff `sel[u*][d*]` has bit `i`. Hence
    // `phi(x_i) ← up_u(v), bag(v, x̄)` is sound when every compatible `d`
    // selects `i` (it fires only where `u = u*`, and `d*` is one of them),
    // likewise a column rule for `d`, and every selecting pair is emitted
    // unless its row or column already covers it. A column is kept only if
    // some pair it covers has no row: a column whose every selecting pair
    // lies in a row derives only `phi` facts those rows derive too, and
    // dropping it leaves those pairs covered by their rows. Without
    // exhaustiveness a node may derive no type at all, `d*` need not be in
    // the table, and only the per-pair rules are sound.
    let sig_td = base_sig.extend_td(w);
    for i in 0..=w {
        let selects = |cell: Option<u64>| cell.is_some_and(|m| m >> i & 1 == 1);
        let rows: Vec<bool> = sel
            .iter()
            .map(|row| exhaustive && selects_throughout(row.iter().copied(), i))
            .collect();
        let cols: Vec<bool> = (0..down.types.len())
            .map(|id| {
                exhaustive
                    && selects_throughout(sel.iter().map(|row| row[id]), i)
                    && sel
                        .iter()
                        .zip(&rows)
                        .any(|(row, &r)| !r && selects(row[id]))
            })
            .collect();
        for iu in (0..up.types.len()).filter(|&iu| rows[iu]) {
            let body = [format!("up_{}", up.names[iu])];
            emit_selection_rule(&mut program, &sig_td, w, &body, i);
        }
        for id in (0..down.types.len()).filter(|&id| cols[id]) {
            let body = [format!("down_{}", down.names[id])];
            emit_selection_rule(&mut program, &sig_td, w, &body, i);
        }
        for (iu, row) in sel.iter().enumerate() {
            for (id, cell) in row.iter().enumerate() {
                if selects(*cell) && !rows[iu] && !cols[id] {
                    let body = [
                        format!("up_{}", up.names[iu]),
                        format!("down_{}", down.names[id]),
                    ];
                    emit_selection_rule(&mut program, &sig_td, w, &body, i);
                }
            }
        }
    }

    program
        .check_semipositive()
        .expect("generated program is semipositive by construction");
    Ok(CompiledQuery {
        program,
        phi: phi_pred,
        up_types: up.types.len(),
        down_types: down.types.len(),
        exhaustive,
    })
}

/// True if `cells` has a glue-compatible entry and every glue-compatible
/// entry selects bag position `i`.
fn selects_throughout(cells: impl IntoIterator<Item = Option<u64>>, i: usize) -> bool {
    let mut compatible = cells.into_iter().flatten().peekable();
    compatible.peek().is_some() && compatible.all(|selected| selected >> i & 1 == 1)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Up,
    Down,
}

/// A set of types with one witness and one IDB name each.
#[derive(Debug, Clone, Default)]
struct TypeTable {
    types: Vec<TypeId>,
    witnesses: Vec<Witness>,
    names: Vec<String>,
    index: FxHashMap<TypeId, usize>,
}

impl TypeTable {
    /// Inserts a type with its witness; returns true if it was new.
    fn insert(&mut self, ty: TypeId, witness: Witness) -> bool {
        if self.index.contains_key(&ty) {
            return false;
        }
        self.index.insert(ty, self.types.len());
        self.names.push(format!("t{}", ty.0));
        self.types.push(ty);
        self.witnesses.push(witness);
        true
    }

    fn name(&self, ty: TypeId) -> &str {
        &self.names[self.index[&ty]]
    }
}

/// All candidate ground atoms over a bag of `w+1` elements: `(pred,
/// index-pattern)` pairs.
fn enumerate_bag_atoms(sig: &Signature, w: usize) -> Vec<(u32, Vec<usize>)> {
    let mut out = Vec::new();
    for p in sig.preds() {
        let arity = sig.arity(p);
        let mut pattern = vec![0usize; arity];
        loop {
            out.push((p.0, pattern.clone()));
            let mut carry = 0;
            loop {
                if carry == arity {
                    break;
                }
                pattern[carry] += 1;
                if pattern[carry] <= w {
                    break;
                }
                pattern[carry] = 0;
                carry += 1;
            }
            if carry == arity {
                break;
            }
        }
    }
    out
}

/// Builds the base witness on `w+1` fresh elements with the EDB selected
/// by `mask`.
fn base_witness(
    sig: &Arc<Signature>,
    w: usize,
    bag_atoms: &[(u32, Vec<usize>)],
    mask: u32,
) -> Witness {
    let dom = Domain::from_names((0..=w).map(|i| format!("b{i}")));
    let mut s = Structure::new(Arc::clone(sig), dom);
    let bag: Vec<ElemId> = (0..=w as u32).map(ElemId).collect();
    for (i, (p, pattern)) in bag_atoms.iter().enumerate() {
        if mask >> i & 1 == 1 {
            let tuple: Vec<ElemId> = pattern.iter().map(|&j| bag[j]).collect();
            s.insert(mdtw_structure::PredId(*p), &tuple);
        }
    }
    Witness { s, bag }
}

// --- rule emission -----------------------------------------------------------

/// Variable layout of emitted rules: `Var(0) = v` (node), `Var(1..=w+1)` =
/// bag elements `x0..xw`, further variables as needed.
fn bag_atom(sig_td: &Signature, v: Var, w: usize, perm: Option<&[usize]>) -> Atom {
    let bag = sig_td.lookup("bag").expect("bag in τ_td");
    let mut terms = vec![Term::Var(v)];
    for i in 0..=w {
        let j = perm.map_or(i, |p| p[i]);
        terms.push(Term::Var(Var(1 + j as u32)));
    }
    Atom {
        pred: PredRef::Edb(bag),
        terms,
    }
}

fn edb_literals_for_mask(
    sig_td: &Signature,
    base_sig: &Signature,
    bag_atoms: &[(u32, Vec<usize>)],
    mask: u32,
) -> Vec<Literal> {
    let mut out = Vec::new();
    for (i, (p, pattern)) in bag_atoms.iter().enumerate() {
        let name = base_sig.name(mdtw_structure::PredId(*p));
        let pred = sig_td.lookup(name).expect("base pred in τ_td");
        let atom = Atom {
            pred: PredRef::Edb(pred),
            terms: pattern
                .iter()
                .map(|&j| Term::Var(Var(1 + j as u32)))
                .collect(),
        };
        out.push(Literal {
            atom,
            positive: mask >> i & 1 == 1,
        });
    }
    out
}

fn var_names(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            if i == 0 {
                "V".into()
            } else {
                format!("X{}", i - 1)
            }
        })
        .collect()
}

/// `ϑ(v) ← bag(v, x0..xw), leaf(v)|root(v), ±R(..) …`
fn emit_base_rule(
    program: &mut Program,
    base_sig: &Arc<Signature>,
    w: usize,
    bag_atoms: &[(u32, Vec<usize>)],
    mask: u32,
    ty_name: &str,
    is_up: bool,
) {
    let sig_td = base_sig.extend_td(w);
    let anchor = if is_up { "leaf" } else { "root" };
    let head_pred = program
        .intern_idb(
            &format!("{}_{}", if is_up { "up" } else { "down" }, ty_name),
            1,
        )
        .expect("arity 1");
    let v = Var(0);
    let mut body = vec![
        Literal {
            atom: bag_atom(&sig_td, v, w, None),
            positive: true,
        },
        Literal {
            atom: Atom {
                pred: PredRef::Edb(sig_td.lookup(anchor).expect("anchor")),
                terms: vec![Term::Var(v)],
            },
            positive: true,
        },
    ];
    body.extend(edb_literals_for_mask(&sig_td, base_sig, bag_atoms, mask));
    program.rules.push(Rule {
        head: Atom {
            pred: PredRef::Idb(head_pred),
            terms: vec![Term::Var(v)],
        },
        body,
        var_count: (w + 2) as u32,
        var_names: var_names(w + 2),
    });
}

/// The saturation loop: applies permutation, element-replacement and
/// branch constructions until no new types appear. Returns whether it was
/// exhaustive: `false` if [`CompileLimits::max_witness`] made it skip an
/// element replacement or a branch gluing.
#[allow(clippy::too_many_arguments)]
fn saturate(
    table: &mut TypeTable,
    up_for_branch: Option<&TypeTable>,
    ti: &mut TypeInterner,
    program: &mut Program,
    base_sig: &Arc<Signature>,
    w: usize,
    k: usize,
    bag_atoms: &[(u32, Vec<usize>)],
    limits: &CompileLimits,
    dir: Direction,
    fo_only: bool,
    class: &dyn Fn(&Structure) -> bool,
) -> Result<bool, CompileError> {
    let sig_td = base_sig.extend_td(w);
    let perms = permutations_of(w + 1);
    let mut exhaustive = true;
    let mut cursor = 0;
    while cursor < table.types.len() {
        if table.types.len() > limits.max_types {
            return Err(CompileError::TypeExplosion {
                reached: table.types.len(),
            });
        }
        let witness = table.witnesses[cursor].clone();
        let src_name = table.names[cursor].clone();

        // (a) permutation nodes.
        for perm in &perms {
            let new_bag: Vec<ElemId> = perm.iter().map(|&i| witness.bag[i]).collect();
            let ty = type_of(ti, &witness.s, &new_bag, k, fo_only);
            table.insert(
                ty,
                Witness {
                    s: witness.s.clone(),
                    bag: new_bag,
                },
            );
            emit_unary_rule(
                program,
                &sig_td,
                w,
                &src_name,
                table.name(ty),
                Some(perm),
                None,
                bag_atoms,
                dir,
            );
        }

        // (b) element replacement nodes: replace position 0 by a fresh
        // element with every possible set of new atoms involving it.
        if witness.s.domain().len() < limits.max_witness {
            let pos0_atoms: Vec<usize> = bag_atoms
                .iter()
                .enumerate()
                .filter(|(_, (_, pattern))| pattern.contains(&0))
                .map(|(i, _)| i)
                .collect();
            for sel in 0u32..(1u32 << pos0_atoms.len()) {
                let (new_s, new_bag) =
                    replace_element(&witness, base_sig, bag_atoms, &pos0_atoms, sel);
                if !class(&new_s) {
                    continue;
                }
                let ty = type_of(ti, &new_s, &new_bag, k, fo_only);
                table.insert(
                    ty,
                    Witness {
                        s: new_s,
                        bag: new_bag,
                    },
                );
                // Mask over all bag atoms: selected pos-0 atoms, plus the
                // old-bag atoms not involving position 0 are inherited and
                // unconstrained in the rule (per the construction, only
                // atoms with x0 are tested).
                let mut mask = 0u32;
                for (j, &ai) in pos0_atoms.iter().enumerate() {
                    if sel >> j & 1 == 1 {
                        mask |= 1 << ai;
                    }
                }
                emit_unary_rule(
                    program,
                    &sig_td,
                    w,
                    &src_name,
                    table.name(ty),
                    None,
                    Some((mask, &pos0_atoms)),
                    bag_atoms,
                    dir,
                );
            }
        } else {
            exhaustive = false;
        }

        // (c) branch nodes. Θ↑ glues each unordered pair once, when the
        // later of its two types is at the cursor: gluing is symmetric up
        // to the order of the children, which `emit_branch_rules` covers.
        let (partner_table, partner_count): (&TypeTable, usize) = match dir {
            Direction::Up => (table, cursor + 1),
            Direction::Down => {
                let up = up_for_branch.expect("down saturation gets Θ↑");
                (up, up.types.len())
            }
        };
        let mut branch_results: Vec<(TypeId, Witness, String)> = Vec::new();
        for pi in 0..partner_count {
            let partner = &partner_table.witnesses[pi];
            if witness.s.domain().len() + partner.s.domain().len() > limits.max_witness + w + 1 {
                exhaustive = false;
                continue;
            }
            let Some(glued) = merge_witnesses(&witness, partner) else {
                continue;
            };
            let ty = type_of(ti, &glued.s, &glued.bag, k, fo_only);
            branch_results.push((ty, glued, partner_table.names[pi].clone()));
        }
        for (ty, glued, partner_name) in branch_results {
            table.insert(ty, glued);
            emit_branch_rules(
                program,
                &sig_td,
                w,
                &src_name,
                &partner_name,
                table.name(ty),
                dir,
            );
        }
        cursor += 1;
    }
    Ok(exhaustive)
}

/// Builds the element-replacement successor witness: the bag's position-0
/// element is replaced by a fresh element carrying the selected atoms.
fn replace_element(
    witness: &Witness,
    base_sig: &Arc<Signature>,
    bag_atoms: &[(u32, Vec<usize>)],
    pos0_atoms: &[usize],
    sel: u32,
) -> (Structure, Vec<ElemId>) {
    let mut dom = witness.s.domain().clone();
    let fresh = dom.insert(format!("w{}", dom.len()));
    let mut s = Structure::new(Arc::clone(base_sig), dom);
    for p in witness.s.signature().preds() {
        for t in witness.s.relation(p).iter() {
            s.insert(p, t);
        }
    }
    let mut new_bag = witness.bag.clone();
    new_bag[0] = fresh;
    for (j, &ai) in pos0_atoms.iter().enumerate() {
        if sel >> j & 1 == 1 {
            let (p, pattern) = &bag_atoms[ai];
            let tuple: Vec<ElemId> = pattern.iter().map(|&idx| new_bag[idx]).collect();
            s.insert(mdtw_structure::PredId(*p), &tuple);
        }
    }
    (s, new_bag)
}

/// Glues two witnesses by identifying their bags (the renaming δ of the
/// proof); `None` if the bag EDBs disagree.
fn merge_witnesses(w1: &Witness, w2: &Witness) -> Option<Witness> {
    if !w1.s.bags_equivalent(&w1.bag, &w2.s, &w2.bag) {
        return None;
    }
    let mut dom = Domain::new();
    for e in w1.s.domain().elems() {
        dom.insert(format!("l{}", e.0));
    }
    let mut map2: FxHashMap<ElemId, ElemId> = FxHashMap::default();
    for (i, &b) in w2.bag.iter().enumerate() {
        map2.insert(b, w1.bag[i]);
    }
    for e in w2.s.domain().elems() {
        map2.entry(e).or_insert_with(|| {
            let id = dom.insert(format!("r{}", e.0));
            id
        });
    }
    let mut s = Structure::new(Arc::clone(w1.s.signature()), dom);
    for p in w1.s.signature().preds() {
        for t in w1.s.relation(p).iter() {
            s.insert(p, t);
        }
        for t in w2.s.relation(p).iter() {
            let mapped: Vec<ElemId> = t.iter().map(|e| map2[e]).collect();
            s.insert(p, &mapped);
        }
    }
    Some(Witness {
        s,
        bag: w1.bag.clone(),
    })
}

/// Emits a permutation or element-replacement rule.
#[allow(clippy::too_many_arguments)]
fn emit_unary_rule(
    program: &mut Program,
    sig_td: &Signature,
    w: usize,
    src: &str,
    dst: &str,
    perm: Option<&[usize]>,
    replacement: Option<(u32, &[usize])>,
    bag_atoms: &[(u32, Vec<usize>)],
    dir: Direction,
) {
    let prefix = match dir {
        Direction::Up => "up",
        Direction::Down => "down",
    };
    let head_pred = program
        .intern_idb(&format!("{prefix}_{dst}"), 1)
        .expect("arity 1");
    let src_pred = program
        .intern_idb(&format!("{prefix}_{src}"), 1)
        .expect("arity 1");
    let v = Var(0);
    let vp = Var((w + 2) as u32);
    // child1 direction: up rules walk child→parent (child1(v', v));
    // down rules walk parent→child (child1(v, v')).
    let child1 = sig_td.lookup("child1").expect("child1");
    let child_lit = |a: Var, b: Var| Literal {
        atom: Atom {
            pred: PredRef::Edb(child1),
            terms: vec![Term::Var(a), Term::Var(b)],
        },
        positive: true,
    };
    let mut var_count = (w + 3) as u32;
    let mut names = var_names(w + 2);
    names.push("Vc".into());

    // The node whose children matter: for up rules the head node `v`
    // derives its type from its only child, for down rules the parent
    // `v'` spawns the new leaf. Either way that node must not be a branch
    // node (branch transitions have their own rules).
    let single_node = match dir {
        Direction::Up => v,
        Direction::Down => vp,
    };
    let not_branch = Literal {
        atom: Atom {
            pred: PredRef::Edb(sig_td.lookup("branch").expect("branch")),
            terms: vec![Term::Var(single_node)],
        },
        positive: false,
    };

    let mut body: Vec<Literal> = Vec::new();
    match (perm, replacement) {
        (Some(p), None) => {
            // New bag is a permutation of the old: bag(v, xπ(0)…xπ(w)).
            body.push(Literal {
                atom: bag_atom(sig_td, v, w, Some(p)),
                positive: true,
            });
            match dir {
                Direction::Up => body.push(child_lit(vp, v)),
                Direction::Down => body.push(child_lit(v, vp)),
            }
            body.push(Literal {
                atom: Atom {
                    pred: PredRef::Idb(src_pred),
                    terms: vec![Term::Var(vp)],
                },
                positive: true,
            });
            // Old bag: bag(v', x0…xw).
            let mut terms = vec![Term::Var(vp)];
            for i in 0..=w {
                terms.push(Term::Var(Var(1 + i as u32)));
            }
            body.push(Literal {
                atom: Atom {
                    pred: PredRef::Edb(sig_td.lookup("bag").expect("bag")),
                    terms,
                },
                positive: true,
            });
            body.push(not_branch);
        }
        (None, Some((mask, pos0_atoms))) => {
            // bag(v, x0, x1…xw), old bag bag(v', x0', x1…xw), ± atoms on x0.
            let x0_old = Var(var_count);
            var_count += 1;
            names.push("X0old".into());
            body.push(Literal {
                atom: bag_atom(sig_td, v, w, None),
                positive: true,
            });
            match dir {
                Direction::Up => body.push(child_lit(vp, v)),
                Direction::Down => body.push(child_lit(v, vp)),
            }
            body.push(Literal {
                atom: Atom {
                    pred: PredRef::Idb(src_pred),
                    terms: vec![Term::Var(vp)],
                },
                positive: true,
            });
            let mut terms = vec![Term::Var(vp), Term::Var(x0_old)];
            for i in 1..=w {
                terms.push(Term::Var(Var(1 + i as u32)));
            }
            body.push(Literal {
                atom: Atom {
                    pred: PredRef::Edb(sig_td.lookup("bag").expect("bag")),
                    terms,
                },
                positive: true,
            });
            body.push(not_branch);
            // The replaced element is genuinely fresh: x0 ≠ x0'.
            body.push(Literal {
                atom: Atom {
                    pred: PredRef::Edb(sig_td.lookup("same").expect("same")),
                    terms: vec![Term::Var(Var(1)), Term::Var(x0_old)],
                },
                positive: false,
            });
            for &ai in pos0_atoms {
                let (p, pattern) = &bag_atoms[ai];
                // Base predicate ids are preserved by `extend_td`.
                let pred = mdtw_structure::PredId(*p);
                let atom = Atom {
                    pred: PredRef::Edb(pred),
                    terms: pattern
                        .iter()
                        .map(|&j| Term::Var(Var(1 + j as u32)))
                        .collect(),
                };
                body.push(Literal {
                    atom,
                    positive: mask >> ai & 1 == 1,
                });
            }
        }
        _ => unreachable!("exactly one of perm/replacement"),
    }
    program.rules.push(Rule {
        head: Atom {
            pred: PredRef::Idb(head_pred),
            terms: vec![Term::Var(v)],
        },
        body,
        var_count,
        var_names: names,
    });
}

/// Emits the branch rule(s): in Θ↑ one per child order of the pair (one
/// when both children have the same type), in Θ↓ one per side of the new
/// child.
fn emit_branch_rules(
    program: &mut Program,
    sig_td: &Signature,
    w: usize,
    src: &str,
    partner: &str,
    dst: &str,
    dir: Direction,
) {
    let bag = sig_td.lookup("bag").expect("bag");
    let child1 = sig_td.lookup("child1").expect("child1");
    let child2 = sig_td.lookup("child2").expect("child2");
    let v = Var(0);
    let v1 = Var((w + 2) as u32);
    let v2 = Var((w + 3) as u32);
    let mut names = var_names(w + 2);
    names.push("V1".into());
    names.push("V2".into());
    let bag_of = |node: Var| -> Atom {
        let mut terms = vec![Term::Var(node)];
        for i in 0..=w {
            terms.push(Term::Var(Var(1 + i as u32)));
        }
        Atom {
            pred: PredRef::Edb(bag),
            terms,
        }
    };
    let lit = |atom: Atom| Literal {
        atom,
        positive: true,
    };
    let idb = |program: &mut Program, name: String, node: Var| -> Atom {
        let p = program.intern_idb(&name, 1).expect("arity 1");
        Atom {
            pred: PredRef::Idb(p),
            terms: vec![Term::Var(node)],
        }
    };
    match dir {
        Direction::Up => {
            // ϑ(v) ← bag(v,…), child1(v1,v), ϑ1(v1), child2(v2,v), ϑ2(v2),
            //          bag(v1,…), bag(v2,…).   (both child orders)
            let orders = [(src, partner), (partner, src)];
            for &(first, second) in &orders[..if src == partner { 1 } else { 2 }] {
                let head = idb(program, format!("up_{dst}"), v);
                let a1 = idb(program, format!("up_{first}"), v1);
                let a2 = idb(program, format!("up_{second}"), v2);
                program.rules.push(Rule {
                    head,
                    body: vec![
                        lit(bag_of(v)),
                        lit(Atom {
                            pred: PredRef::Edb(child1),
                            terms: vec![Term::Var(v1), Term::Var(v)],
                        }),
                        lit(a1),
                        lit(Atom {
                            pred: PredRef::Edb(child2),
                            terms: vec![Term::Var(v2), Term::Var(v)],
                        }),
                        lit(a2),
                        lit(bag_of(v1)),
                        lit(bag_of(v2)),
                    ],
                    var_count: (w + 4) as u32,
                    var_names: names.clone(),
                });
            }
        }
        Direction::Down => {
            // ϑ1(v1) ← bag(v1,…), child1(v1,v), child2(v2,v), ϑ(v), ϑ2(v2),
            //            bag(v,…), bag(v2,…).   (plus the mirrored rule)
            for (self_child, sibling_child) in [(child1, child2), (child2, child1)] {
                let head = idb(program, format!("down_{dst}"), v1);
                let parent = idb(program, format!("down_{src}"), v);
                let sib = idb(program, format!("up_{partner}"), v2);
                program.rules.push(Rule {
                    head,
                    body: vec![
                        lit(bag_of(v1)),
                        lit(Atom {
                            pred: PredRef::Edb(self_child),
                            terms: vec![Term::Var(v1), Term::Var(v)],
                        }),
                        lit(Atom {
                            pred: PredRef::Edb(sibling_child),
                            terms: vec![Term::Var(v2), Term::Var(v)],
                        }),
                        lit(parent),
                        lit(sib),
                        lit(bag_of(v)),
                        lit(bag_of(v2)),
                    ],
                    var_count: (w + 4) as u32,
                    var_names: names.clone(),
                });
            }
        }
    }
}

/// `phi(xi) ← body…(v), bag(v, x0…xw).`, where `body` names the unary
/// IDBs on the node: a row (`up_ϑ`), a column (`down_ϑ`) or a pair.
fn emit_selection_rule(
    program: &mut Program,
    sig_td: &Signature,
    w: usize,
    body: &[String],
    i: usize,
) {
    let v = Var(0);
    let phi = program.intern_idb("phi", 1).expect("a1");
    let mut literals: Vec<Literal> = body
        .iter()
        .map(|name| Literal {
            atom: Atom {
                pred: PredRef::Idb(program.intern_idb(name, 1).expect("a1")),
                terms: vec![Term::Var(v)],
            },
            positive: true,
        })
        .collect();
    literals.push(Literal {
        atom: bag_atom(sig_td, v, w, None),
        positive: true,
    });
    program.rules.push(Rule {
        head: Atom {
            pred: PredRef::Idb(phi),
            terms: vec![Term::Var(Var(1 + i as u32))],
        },
        body: literals,
        var_count: (w + 2) as u32,
        var_names: var_names(w + 2),
    });
}

fn permutations_of(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut buf: Vec<usize> = (0..n).collect();
    fn rec(buf: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
        if k == buf.len() {
            out.push(buf.clone());
            return;
        }
        for i in k..buf.len() {
            buf.swap(k, i);
            rec(buf, k + 1, out);
            buf.swap(k, i);
        }
    }
    rec(&mut buf, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Budget;
    use crate::library::{has_neighbor, isolated};
    use mdtw_datalog::{EvalOptions, Evaluator, FdCatalog};
    use mdtw_decomp::{decompose, encode_tuple_td, Heuristic, TupleTd};
    use mdtw_graph::{encode_graph, Graph};

    /// Undirected loop-free graphs: the class of `encode_graph` outputs.
    fn undirected(s: &Structure) -> bool {
        let e = s.signature().lookup("e").expect("e");
        s.relation(e)
            .iter()
            .all(|t| t[0] != t[1] && s.holds(e, &[t[1], t[0]]))
    }

    fn compile_width_1(phi: &Mso, limits: CompileLimits) -> CompiledQuery {
        let sig = Arc::new(mdtw_graph::graph_signature());
        compile_unary_filtered(phi, IndVar(0), &sig, 1, limits, &undirected)
            .expect("compilation at toy parameters succeeds")
    }

    fn compile_has_neighbor() -> CompiledQuery {
        compile_width_1(&has_neighbor(), CompileLimits::default())
    }

    /// Width-1 inputs: forests of several shapes.
    fn forests() -> [Graph; 4] {
        [
            Graph::from_edges(4, &[(0, 1), (1, 2)]),
            Graph::from_edges(5, &[(0, 1), (2, 3)]),
            Graph::from_edges(3, &[]),
            Graph::from_edges(6, &[(0, 1), (1, 2), (1, 3), (3, 4)]),
        ]
    }

    /// `(phi holds, ϕ holds)` for every vertex of every graph, in order.
    fn phi_against_mso(q: &CompiledQuery, phi: &Mso, graphs: &[Graph]) -> Vec<(bool, bool)> {
        // One program, many τ_td structures: a single Evaluator session
        // carries the compiled query across every encoding (the τ_td
        // signature — and hence the FdCatalog's predicate ids — is the
        // same for all of them).
        let mut session: Option<Evaluator> = None;
        let mut out = Vec::new();
        for g in graphs {
            let s = encode_graph(g);
            let td = decompose(&s, Heuristic::MinDegree);
            let tuple_td = TupleTd::from_td_with_width(&td, s.domain().len(), 1).unwrap();
            let enc = encode_tuple_td(&s, &tuple_td);
            let session = session.get_or_insert_with(|| {
                let catalog = FdCatalog::for_td_signature(&enc.structure);
                Evaluator::with_options(q.program.clone(), EvalOptions::new().fd_catalog(catalog))
                    .expect("compiled program is quasi-guarded")
            });
            let store = session
                .evaluate(&enc.structure)
                .expect("quasi-guarded")
                .store;
            for e in s.domain().elems() {
                let expected =
                    crate::eval::eval_unary(phi, IndVar(0), &s, e, &mut Budget::unlimited())
                        .unwrap();
                out.push((store.holds(q.phi, &[e]), expected));
            }
        }
        out
    }

    #[test]
    fn compiles_has_neighbor_at_width_1() {
        let q = compile_has_neighbor();
        assert!(q.up_types > 0);
        assert!(q.down_types > 0);
        assert!(!q.program.rules.is_empty());
        q.program.check_semipositive().unwrap();
    }

    #[test]
    fn width_1_compiles_are_exhaustive() {
        for phi in [has_neighbor(), isolated()] {
            assert!(compile_width_1(&phi, CompileLimits::default()).exhaustive);
        }
    }

    #[test]
    fn compiled_program_matches_naive_evaluation() {
        let q = compile_has_neighbor();
        for (n, (got, expected)) in phi_against_mso(&q, &has_neighbor(), &forests())
            .into_iter()
            .enumerate()
        {
            assert_eq!(got, expected, "vertex {n} of the concatenated forests");
        }
    }

    /// A `max_witness` that skips replacements: the compile says it is
    /// not exhaustive, keeps only per-pair selection rules (each reads an
    /// up and a down type), and `phi` stays a subset of the answers.
    #[test]
    fn skipping_compile_is_reported_and_stays_sound() {
        let limits = CompileLimits {
            max_witness: 3,
            ..CompileLimits::default()
        };
        let q = compile_width_1(&has_neighbor(), limits);
        assert!(!q.exhaustive);
        let selection: Vec<&Rule> = q
            .program
            .rules
            .iter()
            .filter(|r| r.head.pred == PredRef::Idb(q.phi))
            .collect();
        assert!(!selection.is_empty());
        for rule in selection {
            let idbs: Vec<&str> = rule
                .body
                .iter()
                .filter_map(|l| match l.atom.pred {
                    PredRef::Idb(p) => Some(q.program.idb_names[p.index()].as_str()),
                    PredRef::Edb(_) => None,
                })
                .collect();
            let per_pair = matches!(idbs[..], [up, down]
                if up.starts_with("up_") && down.starts_with("down_"));
            assert!(per_pair, "{idbs:?}");
        }
        let answers = phi_against_mso(&q, &has_neighbor(), &forests());
        assert!(answers.iter().all(|&(got, expected)| !got || expected));
    }

    #[test]
    fn tight_limits_report_explosion() {
        let sig = Arc::new(mdtw_graph::graph_signature());
        let err = compile_unary(
            &has_neighbor(),
            IndVar(0),
            &sig,
            1,
            CompileLimits {
                max_types: 2,
                max_witness: 6,
                check_budget: 1_000_000,
            },
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::TypeExplosion { .. }));
    }

    #[test]
    fn wide_signature_base_case_is_rejected() {
        // τ with a ternary predicate at width 2: 27 candidate atoms > 16.
        let sig = Arc::new(Signature::from_pairs([("r", 3)]));
        let err = compile_unary(
            &Mso::exists(
                IndVar(1),
                Mso::pred("r", vec![IndVar(0), IndVar(1), IndVar(1)]),
            ),
            IndVar(0),
            &sig,
            2,
            CompileLimits::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::BaseTooLarge { .. }));
    }
}
