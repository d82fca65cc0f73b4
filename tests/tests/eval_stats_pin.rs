//! Exact [`EvalStats`] of the semi-naive engine on five fixed workloads.
//!
//! The counters are the engine's observable work: how many rule
//! instantiations fired, how many facts and duplicates they produced, and
//! how many candidate tuples, index probes, scans and negation checks the
//! joins cost. A change to the fixpoint's storage (how a round's delta is
//! read, where derived heads are deduplicated) must leave every one of
//! them as it is; a change to the join order or the rule split shows up
//! here first. Every derived head is either a new fact or a duplicate, so
//! `interned_hits + facts == firings` on each workload.
//!
//! The workloads: linear and nonlinear transitive closure on chains, the
//! Theorem 4.5 `has_neighbor` program over the τ_td encoding of one
//! seeded random forest, single-source reachability on a layered diamond
//! DAG, where every vertex past the first layer is derived once per
//! predecessor in the same round, and a rule whose delta literal carries
//! a constant, so its delta is read through an index probe.
//!
//! Maintenance is pinned the same way: for fixed `apply` sequences on
//! linear TC over segmented chains, reachability on a layered diamond
//! (where re-derivation restores most overdeleted facts) and a
//! three-stratum negation program, each batch's overdeleted, rederived,
//! inserted and deleted counts, in total and per stratum, and a hash of
//! every store relation in row order.

use mdtw_datalog::{
    ground, parse_program, Engine, EvalOptions, EvalStats, Evaluator, FdCatalog, IdbId, IdbStore,
    MaterializedView, Program, Update,
};
use mdtw_decomp::{decompose, encode_tuple_td, Heuristic, TupleTd};
use mdtw_graph::{encode_graph, graph_signature, Graph};
use mdtw_mso::{compile::compile_unary_filtered, has_neighbor, CompileLimits, IndVar};
use mdtw_structure::{Domain, ElemId, Signature, Structure};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The pinned counters, in the order `firings, facts, interned_hits,
/// rounds, tuples_considered, index_probes, full_scans, negative_checks`.
type Pinned = [usize; 8];

fn pinned(stats: &EvalStats) -> Pinned {
    [
        stats.firings,
        stats.facts,
        stats.interned_hits,
        stats.rounds,
        stats.tuples_considered,
        stats.index_probes,
        stats.full_scans,
        stats.negative_checks,
    ]
}

/// Evaluates `program` over `s` in a fresh session with `options` and
/// checks the counters against `expected`.
fn assert_stats(program: Program, options: EvalOptions, s: &Structure, expected: Pinned) {
    let stats = Evaluator::with_options(program, options)
        .unwrap()
        .evaluate(s)
        .unwrap()
        .stats;
    assert_eq!(
        stats.interned_hits + stats.facts,
        stats.firings,
        "every derived head is a new fact or a duplicate"
    );
    assert_eq!(
        pinned(&stats),
        expected,
        "[firings, facts, interned_hits, rounds, tuples_considered, \
         index_probes, full_scans, negative_checks]"
    );
}

fn chain(n: usize) -> Structure {
    let sig = Arc::new(Signature::from_pairs([("e", 2)]));
    let mut s = Structure::new(sig, Domain::anonymous(n));
    let e = s.signature().lookup("e").unwrap();
    for i in 0..n as u32 - 1 {
        s.insert(e, &[ElemId(i), ElemId(i + 1)]);
    }
    s
}

#[test]
fn linear_tc_on_chain_60() {
    let s = chain(60);
    let p = parse_program(
        "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).",
        &s,
    )
    .unwrap();
    assert_stats(
        p,
        EvalOptions::new(),
        &s,
        [1770, 1770, 0, 60, 3540, 1770, 2, 0],
    );
}

#[test]
fn nonlinear_tc_on_chain_30() {
    let s = chain(30);
    let p = parse_program(
        "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), path(Y, Z).",
        &s,
    )
    .unwrap();
    assert_stats(
        p,
        EvalOptions::new(),
        &s,
        [4089, 435, 3654, 7, 4959, 870, 2, 0],
    );
}

/// A delta literal with a constant: `from0`'s delta pass reads `path`'s
/// frontier through an index probe keyed by `x0`, so it cuts a bucket at
/// the round boundary instead of scanning the delta rows.
#[test]
fn delta_probe_with_a_constant_on_chain_40() {
    let s = chain(40);
    let p = parse_program(
        "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).\n\
         from0(Y) :- path(x0, Y).",
        &s,
    )
    .unwrap();
    assert_stats(
        p,
        EvalOptions::new(),
        &s,
        [819, 819, 0, 41, 1599, 820, 2, 0],
    );
}

/// The symmetric irreflexive edge relations `has_neighbor` is compiled for.
fn undirected(s: &Structure) -> bool {
    let e = s.signature().lookup("e").expect("graph signature has e");
    s.relation(e)
        .iter()
        .all(|t| t[0] != t[1] && s.holds(e, &[t[1], t[0]]))
}

/// The Theorem 4.5 `has_neighbor` program compiled at width 1.
fn has_neighbor_program() -> Program {
    compile_unary_filtered(
        &has_neighbor(),
        IndVar(0),
        &Arc::new(graph_signature()),
        1,
        CompileLimits::default(),
        &undirected,
    )
    .expect("width-1 compilation fits the limits")
    .program
}

/// The τ_td encoding (width 1, min-degree decomposition) of a random
/// forest on `n` vertices drawn from `rng`: each vertex after the first
/// gets a parent with probability 0.7.
fn tau_td_forest(rng: &mut SmallRng, n: usize) -> Structure {
    let mut g = Graph::new(n);
    for v in 1..n as u32 {
        if rng.random::<f64>() < 0.7 {
            g.add_edge(rng.random_range(0..v), v);
        }
    }
    let graph = encode_graph(&g);
    let td = decompose(&graph, Heuristic::MinDegree);
    let tuple_td = TupleTd::from_td_with_width(&td, n, 1).expect("forests have width 1");
    encode_tuple_td(&graph, &tuple_td).structure
}

/// The compiled program is the subject here, so this row moves with the
/// compiler. Before element selection was emitted as row and column rules
/// and each Θ↑ branch pair glued once (812 rules), it read
/// `[1321, 742, 579, 74, 60000, 57851, 812, 4124]`: the same 742 facts.
/// Row and column rules can both fire on one node, hence the extra
/// firings and interned hits.
#[test]
fn has_neighbor_on_a_seeded_tau_td_forest() {
    let s = tau_td_forest(&mut SmallRng::seed_from_u64(2107), 120);
    let options = EvalOptions::new().engine(Engine::SemiNaiveIndexed);
    assert_stats(
        has_neighbor_program(),
        options,
        &s,
        [1262, 742, 520, 73, 42758, 40668, 548, 4124],
    );
}

/// FNV-1a over a sequence of words.
fn fnv(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// The words of every relation of `store`, in predicate and row order,
/// each relation prefixed by its length.
fn store_words(store: &IdbStore, idb_count: usize) -> Vec<u32> {
    let mut words = Vec::new();
    for i in 0..idb_count {
        let rel = store.relation(IdbId(i as u32));
        words.push(rel.len() as u32);
        words.extend(rel.iter().flatten().map(|e| e.0));
    }
    words
}

/// One pinned quasi-guarded evaluation: `[ground_rules,
/// guard_instantiations, ground_atoms, facts]`, the hash of the store
/// (every intensional relation in row order) and the hash of the expanded
/// ground program (every rule's head, body length and body atom ids, in
/// rule order).
type PinnedQg = ([usize; 4], u64, u64);

/// The quasi-guarded engine on the `has_neighbor` width-1 program over the
/// τ_td encodings of five seeded random forests of 100 to 300 vertices
/// (the benchmark's forest sizes). The session's counters, facts and
/// store, and the ground program `ground` expands, rule order and atom
/// ids included, must stay as they are whatever the solver's internal
/// form of `P′`.
#[test]
fn quasi_guarded_has_neighbor_on_seeded_tau_td_forests() {
    let program = has_neighbor_program();
    let mut rng = SmallRng::seed_from_u64(3301);
    let forests: Vec<Structure> = [100, 150, 200, 250, 300]
        .into_iter()
        .map(|n| tau_td_forest(&mut rng, n))
        .collect();
    let catalog = FdCatalog::for_td_signature(&forests[0]);
    let mut session = Evaluator::with_options(
        program.clone(),
        EvalOptions::new().fd_catalog(catalog.clone()),
    )
    .unwrap();
    let observed: Vec<PinnedQg> = forests
        .iter()
        .map(|s| {
            let result = session.evaluate(s).unwrap();
            let qg = result.qg.expect("a quasi-guarded run");
            let counts = [
                qg.ground_rules,
                qg.guard_instantiations,
                qg.ground_atoms,
                result.stats.facts,
            ];
            let store = fnv(store_words(&result.store, program.idb_count()));
            let grounding = ground(&program, s, &catalog).unwrap();
            assert_eq!(grounding.stats, qg, "ground() and the session agree");
            let rules = fnv(grounding.horn.rules().flat_map(|(head, body)| {
                [head, body.len() as u32]
                    .into_iter()
                    .chain(body.iter().copied())
            }));
            (counts, store, rules)
        })
        .collect();
    let expected: &[PinnedQg] = &[
        (
            [34070, 4352, 8399, 627],
            0x5e8c_913d_8e4b_1a9d,
            0x129c_6757_d16e_f20e,
        ),
        (
            [53044, 6688, 12889, 958],
            0x2e1f_9e11_86e4_d924,
            0x695d_4147_80e6_b4b8,
        ),
        (
            [70800, 8880, 17105, 1271],
            0x9262_12c7_5e8f_bc38,
            0x623f_59dc_f9b5_28bc,
        ),
        (
            [87658, 11008, 21205, 1575],
            0x530a_b5b2_5453_9b13,
            0xad4b_f3fd_742c_2ba1,
        ),
        (
            [108493, 13408, 25792, 1916],
            0xb7c8_eb0b_2fa5_2dbc,
            0x9c41_df66_4eb6_630b,
        ),
    ];
    assert!(
        observed.as_slice() == expected,
        "[ground_rules, guard_instantiations, ground_atoms, facts], store hash, rules hash:\n{}",
        observed
            .iter()
            .map(|(c, s, r)| format!("({c:?}, {s:#018x}, {r:#018x}),"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// `layers` layers of `width` vertices after a single source, with an
/// edge from every vertex of a layer to every vertex of the next.
fn layered_diamond(layers: u32, width: u32) -> Structure {
    let sig = Arc::new(Signature::from_pairs([("e", 2), ("src", 1)]));
    let mut s = Structure::new(sig, Domain::anonymous((1 + layers * width) as usize));
    let e = s.signature().lookup("e").unwrap();
    let src = s.signature().lookup("src").unwrap();
    s.insert(src, &[ElemId(0)]);
    let layer = |l: u32| (0..width).map(move |i| ElemId(1 + l * width + i));
    for v in layer(0) {
        s.insert(e, &[ElemId(0), v]);
    }
    for l in 1..layers {
        for u in layer(l - 1) {
            for v in layer(l) {
                s.insert(e, &[u, v]);
            }
        }
    }
    s
}

#[test]
fn reach_on_a_layered_diamond_dag() {
    let s = layered_diamond(6, 4);
    let p = parse_program("reach(X) :- src(X).\nreach(Y) :- reach(X), e(X, Y).", &s).unwrap();
    assert_stats(p, EvalOptions::new(), &s, [85, 25, 60, 8, 110, 25, 2, 0]);
}

// ---------------------------------------------------------------------------
// Maintenance pins
// ---------------------------------------------------------------------------

/// One maintained batch: the totals `[overdeleted, rederived, inserted,
/// deleted]` of its [`UpdateProfile`](mdtw_datalog::UpdateProfile), the
/// same four per stratum, bottom-up, and a hash of every store relation in
/// row order (so a change to the order in which maintenance re-adds facts
/// shows up too).
type PinnedBatch = ([usize; 4], &'static [[usize; 4]], u64);

/// FNV-1a over every store relation of `view`, in predicate and row order.
fn store_hash(view: &MaterializedView) -> u64 {
    fnv(store_words(view.store(), view.program().idb_count()))
}

/// Materializes `src` over `s`, applies `batches` in turn and checks each
/// batch's counters and store hash against `expected`. A mismatch prints
/// the whole observed table.
fn assert_maintenance(src: &str, s: &Structure, batches: &[Update], expected: &[PinnedBatch]) {
    let program = parse_program(src, s).unwrap();
    let mut view = Evaluator::new(program).unwrap().materialize(s).unwrap();
    let observed: Vec<([usize; 4], Vec<[usize; 4]>, u64)> = batches
        .iter()
        .map(|batch| {
            let p = view.apply(batch);
            assert_eq!(p.fell_back, None, "an ungoverned view maintains");
            let strata = p
                .strata
                .iter()
                .map(|sp| [sp.overdeleted, sp.rederived, sp.inserted, sp.deleted])
                .collect();
            let totals = [p.overdeleted, p.rederived, p.inserted, p.deleted];
            (totals, strata, store_hash(&view))
        })
        .collect();
    let matches = observed.len() == expected.len()
        && observed
            .iter()
            .zip(expected)
            .all(|((t, s, h), (et, es, eh))| t == et && s.as_slice() == *es && h == eh);
    assert!(
        matches,
        "[overdeleted, rederived, inserted, deleted], per stratum, store hash:\n{}",
        observed
            .iter()
            .map(|(t, s, h)| format!("({t:?}, &{s:?}, {h:#018x}),"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Linear TC over 40 chains of 15 vertices. Each batch retracts three
/// chain edges, re-inserts the edges the previous batch retracted and adds
/// two shortcuts `i → i+2`, so later retracts leave some paths a second
/// derivation.
#[test]
fn maintained_linear_tc_on_segmented_chains() {
    let (segments, len) = (40u32, 15u32);
    let sig = Arc::new(Signature::from_pairs([("e", 2)]));
    let mut s = Structure::new(sig, Domain::anonymous((segments * len) as usize));
    let e = s.signature().lookup("e").unwrap();
    for seg in 0..segments {
        for off in 0..len - 1 {
            let v = seg * len + off;
            s.insert(e, &[ElemId(v), ElemId(v + 1)]);
        }
    }
    let mut rng = SmallRng::seed_from_u64(2401);
    let chain_edge = |rng: &mut SmallRng, hop: u32| {
        let seg = rng.random_range(0..segments);
        let off = rng.random_range(0..len - hop);
        let v = seg * len + off;
        [ElemId(v), ElemId(v + hop)]
    };
    let mut retracted: Vec<[ElemId; 2]> = Vec::new();
    let batches: Vec<Update> = (0..6)
        .map(|_| {
            let mut batch = Update::new();
            for t in retracted.drain(..) {
                batch.push_insert(e, &t);
            }
            for _ in 0..2 {
                batch.push_insert(e, &chain_edge(&mut rng, 2));
            }
            for _ in 0..3 {
                let t = chain_edge(&mut rng, 1);
                batch.push_retract(e, &t);
                retracted.push(t);
            }
            batch
        })
        .collect();
    assert_maintenance(
        "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).",
        &s,
        &batches,
        &[
            ([146, 0, 0, 146], &[[146, 0, 0, 146]], 0x463c_e102_f2a0_43c3),
            ([78, 0, 146, 78], &[[78, 0, 146, 78]], 0x947f_c7e4_a3cb_a50c),
            (
                [126, 0, 44, 126],
                &[[126, 0, 44, 126]],
                0xae17_5b76_fe64_2c50,
            ),
            (
                [124, 0, 160, 124],
                &[[124, 0, 160, 124]],
                0xa84a_3707_9ad1_8898,
            ),
            (
                [142, 0, 124, 142],
                &[[142, 0, 124, 142]],
                0x50a3_64a6_be51_0b81,
            ),
            (
                [94, 53, 142, 41],
                &[[94, 53, 142, 41]],
                0xe431_8500_cf92_cd5b,
            ),
        ],
    );
}

/// Reachability on a layered diamond: every vertex past the first layer
/// has four predecessors, so retracting one of its in-edges overdeletes it
/// and everything after it, and re-derivation restores almost all of it.
#[test]
fn maintained_reach_on_a_layered_diamond() {
    let s = layered_diamond(6, 4);
    let e = s.signature().lookup("e").unwrap();
    let v = |l: u32, i: u32| ElemId(1 + l * 4 + i);
    let batches = [
        Update::new().retract(e, &[v(0, 0), v(1, 0)]),
        Update::new()
            .retract(e, &[v(1, 1), v(2, 2)])
            .retract(e, &[v(2, 3), v(3, 1)])
            .retract(e, &[v(3, 0), v(4, 0)]),
        Update::new().retract(e, &[ElemId(0), v(0, 1)]),
        Update::new()
            .insert(e, &[v(0, 0), v(1, 0)])
            .retract(e, &[ElemId(0), v(0, 2)])
            .retract(e, &[v(4, 3), v(5, 3)]),
        Update::new()
            .retract(e, &[ElemId(0), v(0, 0)])
            .retract(e, &[ElemId(0), v(0, 3)]),
        Update::new().insert(e, &[ElemId(0), v(0, 3)]),
    ];
    assert_maintenance(
        "reach(X) :- src(X).\nreach(Y) :- reach(X), e(X, Y).",
        &s,
        &batches,
        &[
            ([17, 17, 0, 0], &[[17, 17, 0, 0]], 0x373e_700a_f8e7_b4b4),
            ([13, 13, 0, 0], &[[13, 13, 0, 0]], 0x2ea3_7bed_75b3_22b4),
            ([21, 20, 0, 1], &[[21, 20, 0, 1]], 0x0ac1_4540_c661_e2c7),
            ([21, 20, 0, 1], &[[21, 20, 0, 1]], 0x8c07_9aaf_b37e_edbb),
            ([22, 0, 0, 22], &[[22, 0, 0, 22]], 0x89cd_3129_1d2a_efa4),
            ([0, 0, 21, 0], &[[0, 0, 21, 0]], 0x4bd4_2085_32b7_d40b),
        ],
    );
}

/// Three strata over a seeded random digraph with marks: reachability from
/// the marks, edges into unreached vertices, and marks without such an
/// edge. Mixed batches of edges and marks cross both negations.
#[test]
fn maintained_stratified_negation() {
    let n = 30u32;
    let sig = Arc::new(Signature::from_pairs([("e", 2), ("m", 1)]));
    let mut s = Structure::new(sig, Domain::anonymous(n as usize));
    let e = s.signature().lookup("e").unwrap();
    let m = s.signature().lookup("m").unwrap();
    let mut rng = SmallRng::seed_from_u64(2402);
    let edge = |rng: &mut SmallRng| {
        [
            ElemId(rng.random_range(0..n)),
            ElemId(rng.random_range(0..n)),
        ]
    };
    for _ in 0..45 {
        let t = edge(&mut rng);
        s.insert(e, &t);
    }
    for x in [0, 7, 19] {
        s.insert(m, &[ElemId(x)]);
    }
    let batches: Vec<Update> = (0..6)
        .map(|b| {
            let mut batch = Update::new();
            for _ in 0..4 {
                batch.push_insert(e, &edge(&mut rng));
                batch.push_retract(e, &edge(&mut rng));
            }
            let mark = [ElemId(rng.random_range(0..n))];
            if b % 2 == 0 {
                batch.push_insert(m, &mark);
            } else {
                batch.push_retract(m, &mark);
            }
            batch
        })
        .collect();
    assert_maintenance(
        "r(X) :- m(X).\nr(Y) :- r(X), e(X, Y).\nu(X, Y) :- e(X, Y), !r(Y).\n\
         uu(X) :- u(X, Y).\nz(X) :- m(X), !uu(X).",
        &s,
        &batches,
        &[
            (
                [0, 0, 2, 0],
                &[[0, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 0]],
                0xf783_988e_f2fd_d0f6,
            ),
            (
                [4, 0, 1, 4],
                &[[0, 0, 1, 0], [4, 0, 0, 4], [0, 0, 0, 0]],
                0x453e_86ed_f15c_a4c6,
            ),
            (
                [2, 0, 4, 2],
                &[[0, 0, 3, 0], [2, 0, 0, 2], [0, 0, 1, 0]],
                0x1ac4_43be_acc8_1e67,
            ),
            (
                [0, 0, 0, 0],
                &[[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
                0x1ac4_43be_acc8_1e67,
            ),
            (
                [25, 25, 2, 0],
                &[[25, 25, 1, 0], [0, 0, 0, 0], [0, 0, 1, 0]],
                0xa165_4a24_73ee_e167,
            ),
            (
                [0, 0, 1, 0],
                &[[0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
                0xdccf_452a_f803_31c3,
            ),
        ],
    );
}
