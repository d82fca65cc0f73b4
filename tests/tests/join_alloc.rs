//! Allocation guards, read from a counting global allocator instead of a
//! clock:
//!
//! - The indexed join allocates nothing per candidate tuple: a warm
//!   evaluation of a single non-recursive pass that enumerates tens of
//!   thousands of candidates but derives only a handful of facts makes a
//!   number of heap allocations bounded by its passes and relations, far
//!   below one per hundred tuples considered.
//! - An indexed delta pass allocates nothing: a warm evaluation of the
//!   Theorem 4.5 program on a 1500-vertex τ_td forest, tens of thousands
//!   of passes, makes fewer allocations than one per hundred candidates.
//! - DRed allocates nothing per overdeleted fact: a warm `apply` that
//!   overdeletes over 20 000 facts makes fewer than one allocation per
//!   ten of them.
//! - A warm session's linear-TC evaluation allocates nothing per fact:
//!   the store is presized from the previous evaluation and the round
//!   buffers are recycled, so segmented chains with four times the facts
//!   (and as many rounds) make exactly as many allocations.
//! - LTUR allocates nothing per atom: `HornProgram::least_model` on a
//!   grounded Figure 5 program of over 100 000 atoms makes a constant
//!   number of allocations.
//! - Grounding allocates nothing per ground rule: the Figure 5 lowering
//!   of that program keeps its rules in one flat arena, and a warm
//!   quasi-guarded evaluation of the Theorem 4.5 program on a τ_td forest
//!   keeps its instances, their atom ids, counters and watch lists in a
//!   few flat arrays, so both make a number of allocations bounded by
//!   their arrays, not their rules.
//! - The PRIMALITY passes allocate nothing per node: `run_up` and
//!   `enumerate_primes` on a block-tree schema with over 10 000 nice nodes
//!   each make fewer allocations than one per hundred nodes.
//! - The pipeline front end allocates nothing per node or element:
//!   `NiceTd::from_td_with_rank` on the augmented block-tree decomposition
//!   with 1000 FDs makes fewer allocations than one per hundred nice
//!   nodes, with and without leaf coverage, and `encode_schema` on its
//!   schema fewer than one per hundred domain elements.
//! - Every decomposition keeps its bags in one arena and its links in one
//!   vector: cloning that block-tree decomposition makes fewer
//!   allocations than one per hundred nodes, `PrimalityContext::for_decision`
//!   on it at most 24 (the nice conversion presizes its arrays), and
//!   `TupleTd::from_td_with_width` on the decomposition of the τ_td forest
//!   fewer than one per hundred nodes. `encode_tuple_td` on that
//!   forest makes a constant number (at most 66), none per node.

use mdtw_core::{enumerate_primes, ground_three_col, PrimalityContext};
use mdtw_datalog::{parse_program, Engine, EvalOptions, Evaluator, FdCatalog, Update};
use mdtw_decomp::{
    augment_bags, decompose, encode_tuple_td, Heuristic, NiceOptions, NiceTd, TreeDecomposition,
    TupleTd,
};
use mdtw_graph::{encode_graph, graph_signature, partial_k_tree, Graph};
use mdtw_mso::compile::compile_unary_filtered;
use mdtw_mso::{has_neighbor, CompileLimits, IndVar};
use mdtw_schema::{block_tree_instance, encode_schema};
use mdtw_structure::{Domain, ElemId, Signature, Structure};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// The system allocator, counting the allocations of threads that
/// switched counting on.
struct Counting;

thread_local! {
    /// This thread's allocations since it switched counting on, or `None`
    /// while it does not count. Per thread, so tests running in parallel
    /// do not see each other's allocations.
    static ALLOCATIONS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Counts one allocation if this thread counts. The counter is a
/// const-initialized `Cell` without a destructor, so touching it never
/// allocates.
fn note() {
    ALLOCATIONS.with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a plain
// statistic and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator, i.e. by `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCATIONS.with(|c| c.set(Some(0)));
    let out = f();
    let n = ALLOCATIONS.with(Cell::take).expect("counting was on");
    (out, n)
}

/// The complete bipartite digraph between `0..side` and `side..2·side`
/// (edges both ways, so no triangle), plus one directed triangle on
/// three further vertices.
fn bipartite_plus_triangle(side: u32) -> Structure {
    let sig = Arc::new(Signature::from_pairs([("e", 2)]));
    let mut s = Structure::new(sig, Domain::anonymous(2 * side as usize + 3));
    let e = s.signature().lookup("e").unwrap();
    for a in 0..side {
        for b in side..2 * side {
            s.insert(e, &[ElemId(a), ElemId(b)]);
            s.insert(e, &[ElemId(b), ElemId(a)]);
        }
    }
    let t = 2 * side;
    for (x, y) in [(t, t + 1), (t + 1, t + 2), (t + 2, t)] {
        s.insert(e, &[ElemId(x), ElemId(y)]);
    }
    s
}

#[test]
fn warm_triangle_join_allocates_nothing_per_candidate() {
    let s = bipartite_plus_triangle(30);
    let p = parse_program("tri(X) :- e(X, Y), e(Y, Z), e(Z, X).", &s).unwrap();
    let tri = p.idb("tri").unwrap();
    let mut session =
        Evaluator::with_options(p, EvalOptions::new().engine(Engine::SemiNaiveIndexed)).unwrap();
    // The first evaluation builds the probe indexes and plans the rule.
    session.evaluate(&s).unwrap();
    let (result, allocs) = allocations(|| session.evaluate(&s).unwrap());
    assert_eq!(result.store.unary(tri).len(), 3);
    let considered = result.stats.tuples_considered;
    assert!(considered > 50_000, "{considered} candidates");
    assert!(
        allocs < considered / 100,
        "{allocs} allocations for {considered} candidate tuples"
    );
}

/// The Figure 5 program's input: a 700-vertex partial 3-tree, whose
/// grounding has over 100 000 atoms.
fn figure_5_input() -> (Graph, NiceTd) {
    let mut rng = SmallRng::seed_from_u64(7);
    let (g, td) = partial_k_tree(&mut rng, 700, 3, 0.8);
    (g, NiceTd::from_td(&td, NiceOptions::default()))
}

#[test]
fn figure_5_grounding_allocates_nothing_per_rule() {
    let (g, nice) = figure_5_input();
    let (ground, allocs) = allocations(|| ground_three_col(&g, &nice));
    let rules = ground.rule_count();
    assert!(rules > 50_000, "{rules} rules");
    assert!(
        allocs <= 128,
        "{allocs} allocations to ground {rules} rules"
    );
}

#[test]
fn least_model_allocates_a_constant_number_of_times() {
    let (g, nice) = figure_5_input();
    let ground = ground_three_col(&g, &nice);
    let atoms = ground.atom_count();
    assert!(atoms > 100_000, "{atoms} atoms");
    let (model, allocs) = allocations(|| ground.horn.least_model());
    assert_eq!(model.len(), atoms);
    assert!(
        allocs <= 8,
        "{allocs} allocations to solve {atoms} atoms and {} rules",
        ground.rule_count()
    );
}

/// A random forest on `n` vertices (treewidth ≤ 1).
fn random_forest(rng: &mut SmallRng, n: usize) -> Graph {
    let mut g = Graph::new(n);
    for v in 1..n as u32 {
        if rng.random::<f64>() < 0.7 {
            let parent = rng.random_range(0..v);
            g.add_edge(parent, v);
        }
    }
    g
}

/// The Theorem 4.5 `has_neighbor` program compiled at width 1, and the
/// τ_td encoding of a seeded 1500-vertex random forest.
fn tau_td_forest_1500() -> (mdtw_datalog::Program, Structure) {
    let sig = Arc::new(graph_signature());
    let undirected = |s: &Structure| {
        let e = s.signature().lookup("e").expect("e");
        s.relation(e)
            .iter()
            .all(|t| t[0] != t[1] && s.holds(e, &[t[1], t[0]]))
    };
    let compiled = compile_unary_filtered(
        &has_neighbor(),
        IndVar(0),
        &sig,
        1,
        CompileLimits::default(),
        &undirected,
    )
    .expect("width-1 compilation fits the limits");
    let (s, td) = forest_1500();
    let tuple_td = TupleTd::from_td_with_width(&td, s.domain().len(), 1).unwrap();
    (compiled.program, encode_tuple_td(&s, &tuple_td).structure)
}

/// A seeded 1500-vertex random forest and its min-degree decomposition.
fn forest_1500() -> (Structure, TreeDecomposition) {
    let g = random_forest(&mut SmallRng::seed_from_u64(23), 1500);
    let s = encode_graph(&g);
    let td = decompose(&s, Heuristic::MinDegree);
    (s, td)
}

/// The Theorem 4.5 front end allocates nothing per node: on the forest
/// of the τ_td guards, `TupleTd::from_td_with_width` makes fewer
/// allocations than one per hundred tuple nodes, because the normal form
/// writes its bags into one arena and records each node's kind as it
/// builds it. `encode_tuple_td` makes at most 66 allocations for over
/// 4000 nodes: it presizes every relation and reuses one tuple buffer, so
/// what remains is a constant per relation and for the predicate names
/// (66 allocations: four per relation, 15 to extend the signature, whose
/// names share one arena, the rest to clone and grow the domain).
#[test]
fn tuple_normal_form_and_encoding_allocate_nothing_per_node() {
    let (s, td) = forest_1500();
    let (tuple_td, allocs) =
        allocations(|| TupleTd::from_td_with_width(&td, s.domain().len(), 1).unwrap());
    let nodes = tuple_td.len();
    assert!(nodes > 4_000, "{nodes} tuple nodes");
    assert!(
        allocs < nodes / 100,
        "{allocs} allocations to normalize into {nodes} tuple nodes"
    );
    let (enc, allocs) = allocations(|| encode_tuple_td(&s, &tuple_td));
    assert_eq!(enc.node_elem.len(), nodes);
    assert!(
        allocs <= 66,
        "{allocs} allocations to encode {nodes} tuple nodes"
    );
}

#[test]
fn warm_quasi_guarded_evaluation_allocates_nothing_per_ground_rule() {
    let (program, s) = tau_td_forest_1500();
    let catalog = FdCatalog::for_td_signature(&s);
    let mut session =
        Evaluator::with_options(program, EvalOptions::new().fd_catalog(catalog)).unwrap();
    // The first evaluation builds the structure's unique indexes.
    session.evaluate(&s).unwrap();
    let (result, allocs) = allocations(|| session.evaluate(&s).unwrap());
    let rules = result.qg.expect("a quasi-guarded run").ground_rules;
    assert!(rules > 500_000, "{rules} ground rules");
    assert!(
        allocs < rules / 100,
        "{allocs} allocations for {rules} ground rules"
    );
}

/// A warm indexed evaluation of the same program and forest: no delta
/// pass allocates, because each takes its bindings and step buffer from
/// the session's scratch and its extensional index handles from a table
/// resolved once per evaluation.
#[test]
fn warm_indexed_evaluation_allocates_nothing_per_pass() {
    let (program, s) = tau_td_forest_1500();
    let mut session =
        Evaluator::with_options(program, EvalOptions::new().engine(Engine::SemiNaiveIndexed))
            .unwrap();
    session.evaluate(&s).unwrap();
    let (result, allocs) = allocations(|| session.evaluate(&s).unwrap());
    let considered = result.stats.tuples_considered;
    assert!(considered > 500_000, "{considered} candidate tuples");
    assert!(
        allocs < considered / 100,
        "{allocs} allocations for {considered} candidate tuples"
    );
}

/// `segments` disjoint chains of `len` vertices each: linear TC runs the
/// same number of rounds whatever the number of segments.
fn segmented_chains(segments: u32, len: u32) -> Structure {
    let sig = Arc::new(Signature::from_pairs([("e", 2)]));
    let mut s = Structure::new(sig, Domain::anonymous((segments * len) as usize));
    let e = s.signature().lookup("e").unwrap();
    for seg in 0..segments {
        for off in 0..len - 1 {
            let v = seg * len + off;
            s.insert(e, &[ElemId(v), ElemId(v + 1)]);
        }
    }
    s
}

#[test]
fn warm_linear_tc_allocations_do_not_grow_with_the_facts() {
    let warm_allocations = |segments: u32| {
        let s = segmented_chains(segments, 20);
        let p = parse_program(
            "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).",
            &s,
        )
        .unwrap();
        let mut session = Evaluator::new(p).unwrap();
        session.evaluate(&s).unwrap();
        let (result, allocs) = allocations(|| session.evaluate(&s).unwrap());
        assert_eq!(result.stats.facts, segments as usize * 20 * 19 / 2);
        allocs
    };
    let (small, large) = (warm_allocations(25), warm_allocations(100));
    assert_eq!(
        small, large,
        "a warm evaluation of 4× the facts makes {large} allocations instead of {small}"
    );
}

/// One warm `apply` that overdeletes tens of thousands of facts allocates
/// nothing per fact: re-derivation resolves each rule's head-bound plan
/// once for all overdeleted facts of its head predicate, so the batch
/// makes a number of allocations bounded by its relations and strata.
#[test]
fn warm_apply_allocates_nothing_per_overdeleted_fact() {
    let (segments, len) = (24u32, 70u32);
    let s = segmented_chains(segments, len);
    let e = s.signature().lookup("e").unwrap();
    let p = parse_program(
        "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).",
        &s,
    )
    .unwrap();
    let mut view = Evaluator::new(p).unwrap().materialize(&s).unwrap();
    // Cutting a chain in the middle overdeletes every path across the cut.
    let (mut cut, mut heal) = (Update::new(), Update::new());
    for seg in 0..segments {
        let v = seg * len + len / 2;
        cut.push_retract(e, &[ElemId(v), ElemId(v + 1)]);
        heal.push_insert(e, &[ElemId(v), ElemId(v + 1)]);
    }
    view.apply(&cut);
    view.apply(&heal);
    let (profile, allocs) = allocations(|| view.apply(&cut));
    let overdeleted = profile.overdeleted;
    assert!(overdeleted >= 20_000, "{overdeleted} overdeleted facts");
    assert_eq!(profile.deleted, overdeleted);
    assert!(
        allocs < overdeleted / 10,
        "{allocs} allocations for {overdeleted} overdeleted facts"
    );
}

/// The PRIMALITY passes allocate nothing per node: on the Table 1
/// block-tree schema with 1000 FDs, `run_up` and `enumerate_primes` (both
/// sweeps and the §5.3 acceptance) each make fewer allocations than one
/// per hundred nice nodes, because a pass keeps its tables in one arena
/// and derives every table in one reused scratch buffer.
#[test]
fn warm_primality_passes_allocate_nothing_per_node() {
    let inst = block_tree_instance(1000);
    let ctx = PrimalityContext::from_parts(inst.encoding, inst.td);
    let nodes = ctx.nice.len();
    assert!(nodes > 10_000, "{nodes} nice nodes");
    let (up, allocs) = allocations(|| ctx.run_up());
    let up_facts = up.facts();
    assert!(up_facts > 100_000, "{up_facts} up facts");
    assert!(
        allocs < nodes / 100,
        "{allocs} allocations for run_up over {nodes} nodes"
    );
    let ((primes, stats), allocs) = allocations(|| enumerate_primes(&ctx));
    let primes: Vec<_> = primes
        .iter()
        .map(|&e| ctx.encoding.attr_of_elem(e).expect("attribute element"))
        .collect();
    assert_eq!(primes, inst.expected_primes);
    assert_eq!(stats.up_facts, up_facts);
    assert!(
        allocs < nodes / 100,
        "{allocs} allocations for enumerate_primes over {nodes} nodes"
    );
}

/// Preparing a PRIMALITY decision allocates nothing per node: on the
/// block-tree schema with 1000 FDs, cloning the decomposition makes fewer
/// allocations than one per hundred nodes, because every tree keeps its
/// bags in one arena and its links in one vector, and
/// `PrimalityContext::for_decision` (reroot, augment, nice conversion,
/// bag compilation) makes at most 24 whatever the size (22 measured),
/// because the nice conversion counts its nodes and bag cells before it
/// builds them.
#[test]
fn primality_decision_setup_allocates_nothing_per_node() {
    let inst = block_tree_instance(1000);
    let (td, allocs) = allocations(|| inst.td.clone());
    let nodes = td.len();
    assert!(nodes > 2_000, "{nodes} decomposition nodes");
    assert!(
        allocs < nodes / 100,
        "{allocs} allocations to clone {nodes} decomposition nodes"
    );
    let target = inst.expected_primes[0];
    let (ctx, allocs) = allocations(|| PrimalityContext::for_decision(inst.encoding, td, target));
    let nodes = ctx.nice.len();
    assert!(nodes > 8_000, "{nodes} nice nodes");
    assert!(
        allocs <= 24,
        "{allocs} allocations for for_decision over {nodes} nice nodes"
    );
}

/// The augmented, ranked block-tree decomposition the PRIMALITY context
/// turns into nice form, for the Table 1 schema with `blocks` FDs.
fn augmented_block_tree(blocks: usize) -> (TreeDecomposition, Vec<Option<ElemId>>) {
    let inst = block_tree_instance(blocks);
    let s = &inst.encoding.structure;
    let mut rhs: Vec<Option<ElemId>> = vec![None; s.domain().len()];
    for t in s.relation(s.signature().lookup("rh").expect("rh")).iter() {
        rhs[t[1].index()] = Some(t[0]);
    }
    let mut td = inst.td;
    augment_bags(&mut td, |e| rhs[e.index()]);
    (td, rhs)
}

/// Building a nice decomposition allocates nothing per node: on the
/// augmented, ranked block-tree decomposition with 1000 FDs,
/// `NiceTd::from_td_with_rank` makes fewer allocations than one per
/// hundred nice nodes, with and without §5.3 leaf coverage, because all
/// bags share one arena and every morph chain is built in reused scratch
/// buffers.
#[test]
fn nice_conversion_allocates_nothing_per_node() {
    let (td, rhs) = augmented_block_tree(1000);
    let rank = |e: ElemId| u8::from(rhs[e.index()].is_some());
    for every_elem_in_leaf in [false, true] {
        let options = NiceOptions { every_elem_in_leaf };
        let (nice, allocs) = allocations(|| NiceTd::from_td_with_rank(&td, options, &rank));
        let nodes = nice.len();
        assert!(nodes > 8_000, "{nodes} nice nodes");
        assert!(
            allocs < nodes / 100,
            "{allocs} allocations for {nodes} nice nodes ({options:?})"
        );
    }
}

/// Encoding a schema allocates nothing per element: `encode_schema` on
/// the block-tree schema with 1000 FDs makes fewer allocations than one
/// per hundred domain elements, because the domain keeps every name in
/// one string arena.
#[test]
fn schema_encoding_allocates_nothing_per_element() {
    let inst = block_tree_instance(1000);
    let (enc, allocs) = allocations(|| encode_schema(&inst.schema));
    let elements = enc.structure.domain().len();
    assert!(elements >= 4000, "{elements} elements");
    assert!(
        allocs < elements / 100,
        "{allocs} allocations for {elements} elements"
    );
}
