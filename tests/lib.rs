//! Test support shared by the integration tests in `tests/` and by the
//! unit tests of `mdtw-datalog`: the naive least-model oracle and the
//! rescanning reference for the §5.3 leaf coverage of nice
//! decompositions.
//!
//! `mdtw-datalog` dev-depends on this crate, so its unit tests link a
//! second build of the engine through this one. Their programs are
//! parsed again with the re-exported [`mdtw_datalog`] before they reach
//! [`naive_model`].

pub use mdtw_datalog;

use mdtw_datalog::{Atom, PredRef, Program, Rule, Term};
use mdtw_decomp::{NiceKind, NiceNode, NiceTd, NodeId};
use mdtw_structure::{ElemId, Structure};
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

/// §5.3 leaf coverage done by rescanning: for every element, in ascending
/// order, that occurs in no leaf bag of the current tree, splice
/// `branch(bag(t)) -> [t, leaf(bag(t))]` above the first node `t` whose bag
/// contains it. Every element rescans all nodes twice, so the cost is
/// quadratic; `NiceTd::from_td` with `every_elem_in_leaf` must build the
/// same nodes, node for node.
///
/// `nice` is the decomposition built without leaf coverage. Returns the
/// covered nodes and root.
pub fn leaf_coverage_reference(nice: &NiceTd) -> (Vec<NiceNode>, NodeId) {
    let mut nodes: Vec<NiceNode> = nice.node_ids().map(|id| nice.node(id).clone()).collect();
    let mut root = nice.root();
    let is_leaf = |n: &NiceNode| n.children.is_empty();
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
        let t = nodes
            .iter()
            .position(|n| n.bag.contains(e))
            .expect("element occurs somewhere");
        let bag = nodes[t].bag.clone();
        let parent = nodes[t].parent;
        let leaf = NodeId(nodes.len() as u32);
        let branch = NodeId(leaf.0 + 1);
        nodes.push(NiceNode {
            bag: bag.clone(),
            children: Vec::new(),
            parent: Some(branch),
            kind: NiceKind::Leaf,
        });
        nodes.push(NiceNode {
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
