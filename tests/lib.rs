//! Test support shared by the integration tests in `tests/` and by the
//! unit tests of `mdtw-datalog`: the naive least-model oracle, the
//! rescanning reference for the §5.3 leaf coverage of nice
//! decompositions and the hash-interning reference grounder of the
//! Figure 5 Horn program.
//!
//! `mdtw-datalog` dev-depends on this crate, so its unit tests link a
//! second build of the engine through this one. Their programs are
//! parsed again with the re-exported [`mdtw_datalog`] before they reach
//! [`naive_model`].

pub use mdtw_datalog;

use mdtw_datalog::{Atom, HornProgram, PredRef, Program, Rule, Term};
use mdtw_decomp::{NiceKind, NiceTd, NodeId};
use mdtw_graph::Graph;
use mdtw_structure::fx::FxHashMap;
use mdtw_structure::{ElemId, Structure};
use std::cmp::Reverse;
use std::collections::BTreeSet;

/// The least model of a semipositive program, computed by
/// [`naive_model`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaiveModel {
    /// The sorted tuples of each intensional predicate, indexed by
    /// [`IdbId`](mdtw_datalog::IdbId).
    pub relations: Vec<Vec<Vec<ElemId>>>,
    /// The number of rule instantiations whose body the model satisfies.
    pub instantiations: usize,
}

/// The minimal-model semantics executed literally (paper §2.4): every
/// rule, every round, body literals matched by nested loops over whole
/// relations, until a round derives nothing new. No indexes, no delta,
/// no resource governance.
///
/// # Panics
/// Panics if the program is not semipositive.
pub fn naive_model(program: &Program, structure: &Structure) -> NaiveModel {
    program
        .check_semipositive()
        .expect("the oracle evaluates semipositive programs only");
    let mut model = vec![BTreeSet::new(); program.idb_count()];
    loop {
        let mut heads = Vec::new();
        for rule in &program.rules {
            let mut bindings = vec![None; rule.var_count as usize];
            satisfy(rule, 0, structure, &model, &mut bindings, &mut heads);
        }
        let instantiations = heads.len();
        let mut changed = false;
        for (pred, tuple) in heads {
            changed |= model[pred].insert(tuple);
        }
        if !changed {
            let relations = model.into_iter().map(|r| r.into_iter().collect()).collect();
            return NaiveModel {
                relations,
                instantiations,
            };
        }
    }
}

/// Extends `bindings` over the positive body literals from `next` on;
/// once all are matched, checks the negated ones and records the head.
fn satisfy(
    rule: &Rule,
    next: usize,
    structure: &Structure,
    model: &[BTreeSet<Vec<ElemId>>],
    bindings: &mut Vec<Option<ElemId>>,
    heads: &mut Vec<(usize, Vec<ElemId>)>,
) {
    let ground = |atom: &Atom, bindings: &[Option<ElemId>]| -> Vec<ElemId> {
        let value = |t: &Term| match *t {
            Term::Const(c) => c,
            Term::Var(v) => bindings[v.index()].expect("safe rule: atom fully bound"),
        };
        atom.terms.iter().map(value).collect()
    };
    let Some(lit) = rule.body.get(next) else {
        let negatives_hold = rule.body.iter().filter(|l| !l.positive).all(|l| {
            let PredRef::Edb(p) = l.atom.pred else {
                unreachable!("semipositive programs negate extensional atoms only")
            };
            !structure.holds(p, &ground(&l.atom, bindings))
        });
        if negatives_hold {
            let PredRef::Idb(head) = rule.head.pred else {
                unreachable!("rule heads are intensional")
            };
            heads.push((head.index(), ground(&rule.head, bindings)));
        }
        return;
    };
    if !lit.positive {
        return satisfy(rule, next + 1, structure, model, bindings, heads);
    }
    let tuples: Vec<&[ElemId]> = match lit.atom.pred {
        PredRef::Edb(p) => structure.relation(p).iter().collect(),
        PredRef::Idb(id) => model[id.index()].iter().map(Vec::as_slice).collect(),
    };
    let saved = bindings.clone();
    for tuple in tuples {
        let unifies = lit
            .atom
            .terms
            .iter()
            .zip(tuple)
            .all(|(term, &value)| match *term {
                Term::Const(c) => c == value,
                Term::Var(v) => *bindings[v.index()].get_or_insert(value) == value,
            });
        if unifies {
            satisfy(rule, next + 1, structure, model, bindings, heads);
        }
        bindings.clone_from(&saved);
    }
}

/// One node of a nice decomposition as [`leaf_coverage_reference`] keeps
/// it: owned bag and child list, so splicing is plain vector surgery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefNode {
    /// The bag as a sorted set.
    pub bag: Vec<ElemId>,
    /// Children (at most two).
    pub children: Vec<NodeId>,
    /// Parent link; `None` for the root.
    pub parent: Option<NodeId>,
    /// The node kind.
    pub kind: NiceKind,
}

/// §5.3 leaf coverage done by rescanning: for every element, in ascending
/// order, that occurs in no leaf bag of the current tree, splice
/// `branch(bag(t)) -> [t, leaf(bag(t))]` above the node `t` with the
/// largest bag containing it, the first in node order among equal sizes.
/// Every element rescans all nodes twice, so the cost is quadratic;
/// `NiceTd::from_td` with `every_elem_in_leaf` must build the same nodes,
/// node for node.
///
/// `nice` is the decomposition built without leaf coverage. Returns the
/// covered nodes and root.
pub fn leaf_coverage_reference(nice: &NiceTd) -> (Vec<RefNode>, NodeId) {
    let mut nodes: Vec<RefNode> = nice
        .node_ids()
        .map(|id| RefNode {
            bag: nice.bag(id).to_vec(),
            children: nice.children(id).collect(),
            parent: nice.parent(id),
            kind: nice.kind(id),
        })
        .collect();
    let mut root = nice.root();
    let is_leaf = |n: &RefNode| n.children.is_empty();
    let mut in_leaf = BTreeSet::new();
    let mut everywhere = BTreeSet::new();
    for n in &nodes {
        everywhere.extend(n.bag.iter().copied());
        if is_leaf(n) {
            in_leaf.extend(n.bag.iter().copied());
        }
    }
    for e in everywhere.difference(&in_leaf) {
        if nodes.iter().any(|n| is_leaf(n) && n.bag.contains(e)) {
            continue;
        }
        let (t, _) = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.bag.contains(e))
            .max_by_key(|&(i, n)| (n.bag.len(), Reverse(i)))
            .expect("element occurs somewhere");
        let bag = nodes[t].bag.clone();
        let parent = nodes[t].parent;
        let leaf = NodeId(nodes.len() as u32);
        let branch = NodeId(leaf.0 + 1);
        nodes.push(RefNode {
            bag: bag.clone(),
            children: Vec::new(),
            parent: Some(branch),
            kind: NiceKind::Leaf,
        });
        nodes.push(RefNode {
            bag,
            children: vec![NodeId(t as u32), leaf],
            parent,
            kind: NiceKind::Branch,
        });
        nodes[t].parent = Some(branch);
        match parent {
            Some(p) => {
                for c in &mut nodes[p.index()].children {
                    if c.index() == t {
                        *c = branch;
                    }
                }
            }
            None => root = branch,
        }
    }
    (nodes, root)
}

/// All `(r, g)` partitions of an `n`-element bag, by subset enumeration.
fn all_states(n: usize) -> Vec<(u64, u64)> {
    let full: u64 = (1u64 << n) - 1;
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

/// No two elements of colour class `class` are adjacent.
fn proper_class(graph: &Graph, bag: &[ElemId], class: u64) -> bool {
    let mut bits = class;
    while bits != 0 {
        let i = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        let mut rest = bits;
        while rest != 0 {
            let j = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if graph.has_edge(bag[i].0, bag[j].0) {
                return false;
            }
        }
    }
    true
}

/// The colouring `(r, g, rest blue)` of `bag` is proper.
fn allowed(graph: &Graph, bag: &[ElemId], n: usize, r: u64, g: u64) -> bool {
    let full = (1u64 << n) - 1;
    let b = full & !(r | g);
    proper_class(graph, bag, r) && proper_class(graph, bag, g) && proper_class(graph, bag, b)
}

/// Opens a zero bit at position `at` of `mask`.
fn lift(mask: u64, at: usize) -> u64 {
    let low = mask & ((1u64 << at) - 1);
    let high = (mask >> at) << (at + 1);
    low | high
}

/// The Figure 5 ground Horn program of `mdtw_core::ground_three_col`,
/// built the straightforward way: every atom `solve⟨r,g⟩(s)` is interned
/// in a hash map keyed by `(node, r, g)` on first reference, in rule
/// order. Atom 0 is `success`.
///
/// The production grounder computes dense atom ids instead; it must
/// produce the same numbers of atoms and rules, and least models with the
/// same number of true atoms and the same `success`.
pub fn ground_three_col_reference(graph: &Graph, td: &NiceTd) -> HornProgram {
    let mut atoms: FxHashMap<(u32, u64, u64), u32> = FxHashMap::default();
    let mut horn = HornProgram::default();
    let intern = |atoms: &mut FxHashMap<(u32, u64, u64), u32>, node: NodeId, r: u64, g: u64| {
        let next = atoms.len() as u32 + 1;
        *atoms.entry((node.0, r, g)).or_insert(next)
    };

    for node in td.post_order() {
        let bag = td.bag(node);
        let n = bag.len();
        match td.kind(node) {
            NiceKind::Leaf => {
                for (r, g) in all_states(n) {
                    if allowed(graph, bag, n, r, g) {
                        let head = intern(&mut atoms, node, r, g);
                        horn.push(head, []);
                    }
                }
            }
            NiceKind::Introduce(v) => {
                let child = td.children(node).next().expect("one child");
                let vpos = bag.binary_search(&v).expect("introduced in bag");
                for (r, g) in all_states(n - 1) {
                    let body_atom = intern(&mut atoms, child, r, g);
                    let (lr, lg) = (lift(r, vpos), lift(g, vpos));
                    for color in 0..3u8 {
                        let (nr, ng) = match color {
                            0 => (lr | 1 << vpos, lg),
                            1 => (lr, lg | 1 << vpos),
                            _ => (lr, lg),
                        };
                        if allowed(graph, bag, n, nr, ng) {
                            let head = intern(&mut atoms, node, nr, ng);
                            horn.push(head, [body_atom]);
                        }
                    }
                }
            }
            NiceKind::Forget(v) => {
                let child = td.children(node).next().expect("one child");
                let vpos = td.bag(child).binary_search(&v).expect("forgotten in child");
                let drop = |mask: u64| -> u64 {
                    let low = mask & ((1u64 << vpos) - 1);
                    let high = (mask >> (vpos + 1)) << vpos;
                    low | high
                };
                for (r, g) in all_states(n + 1) {
                    let body_atom = intern(&mut atoms, child, r, g);
                    let head = intern(&mut atoms, node, drop(r), drop(g));
                    horn.push(head, [body_atom]);
                }
            }
            NiceKind::Branch => {
                let mut children = td.children(node);
                let (Some(c1), Some(c2)) = (children.next(), children.next()) else {
                    unreachable!("a branch node has two children")
                };
                for (r, g) in all_states(n) {
                    let b1 = intern(&mut atoms, c1, r, g);
                    let b2 = intern(&mut atoms, c2, r, g);
                    let head = intern(&mut atoms, node, r, g);
                    horn.push(head, [b1, b2]);
                }
            }
        }
    }
    // success ← solve(root, R, G, B) for every root state.
    let root = td.root();
    for (r, g) in all_states(td.bag(root).len()) {
        let body_atom = intern(&mut atoms, root, r, g);
        horn.push(0, [body_atom]);
    }
    horn.n_atoms = atoms.len() + 1;
    horn
}
