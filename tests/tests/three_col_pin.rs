//! Pins the three evaluators of Figure 5 (paper §5.1): the dynamic
//! program `ThreeColSolver`, its ground Horn lowering `ground_three_col`
//! and the tree-automaton baseline of `mdtw_fta`.
//!
//! The inputs are seeded 300-vertex partial k-trees, k = 2–4, each with
//! the nice form of the decomposition the generator returns, and, for the
//! MONA-style route, `cycle(5)`, `cycle(6)` and `complete(3)` with their
//! min-fill nice forms.
//!
//! - DP: `fact_count`, the decision, and an FNV-1a hash of every node's
//!   `solve` table in post order, each table sorted by the base-3 offset of
//!   its colourings. The table of node `s` is read from the least model of
//!   the lowering: its true atoms in `s`'s block are exactly the states the
//!   bottom-up computation derives, and the test checks that their number
//!   is `fact_count`.
//! - Lowering: `atom_count`, `rule_count` and a hash of `horn.rules()` in
//!   order (heads, body lengths and body atoms), so the Horn program stays
//!   byte-identical.
//! - NFTA: `n_states` and `transition_count` of `three_col_nfta` over
//!   `full_alphabet(3)`, and over each k-tree's own symbols, with a hash of
//!   those symbols in interning order.
//! - MONA route: the determinized automaton's `n_states` and
//!   `transition_count`.
//!
//! Automaton state ids may be permuted by a change, so the automata are
//! pinned by counts only.

use mdtw_core::{ground_three_col, ThreeColSolver};
use mdtw_decomp::{decompose, Heuristic, NiceOptions, NiceTd};
use mdtw_fta::{
    encode_three_col, full_alphabet, mona_style_3col, three_col_nfta, DetBudget, SymbolTable,
    ThreeColSym,
};
use mdtw_graph::{complete, cycle, encode_graph, is_proper_coloring, partial_k_tree, Graph};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// FNV-1a over a stream of `u32` words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The seeded 300-vertex partial k-tree and the nice form of its
/// generated decomposition.
fn k_tree(k: usize) -> (Graph, NiceTd) {
    let mut rng = SmallRng::seed_from_u64(50 + k as u64);
    let (g, td) = partial_k_tree(&mut rng, 300, k, 0.8);
    (g, NiceTd::from_td(&td, NiceOptions::default()))
}

fn min_fill_nice(g: &Graph) -> NiceTd {
    let td = decompose(&encode_graph(g), Heuristic::MinFill);
    NiceTd::from_td(&td, NiceOptions::default())
}

#[test]
fn dp_tables_are_pinned() {
    let mut got = Vec::new();
    for k in 2..=4 {
        let (g, nice) = k_tree(k);
        let solver = ThreeColSolver::run(&g, &nice);
        let model = ground_three_col(&g, &nice).horn.least_model();
        assert_eq!(model[0], solver.is_colorable(), "k = {k}");
        // Node blocks of 3^|bag| atoms in post order, after `success`.
        let mut h = Fnv::new();
        let mut at = 1;
        let mut facts = 0;
        for node in nice.post_order() {
            h.word(node.0);
            let block = 3usize.pow(nice.bag(node).len() as u32);
            for offset in (0..block).filter(|&i| model[at + i]) {
                h.word(offset as u32);
                facts += 1;
            }
            h.word(u32::MAX);
            at += block;
        }
        assert_eq!(at, model.len(), "k = {k}");
        assert_eq!(facts, solver.fact_count, "k = {k}");
        if let Some(colors) = solver.witness() {
            assert!(is_proper_coloring(&g, &colors, 3), "k = {k}");
        }
        got.push((solver.fact_count, solver.is_colorable(), h.0));
    }
    assert_eq!(
        got,
        [
            (7242, true, 8_680_256_838_814_482_159),
            (3324, false, 14_501_522_428_336_592_423),
            (1950, false, 10_675_467_408_664_721_399),
        ]
    );
}

#[test]
fn horn_lowering_is_pinned() {
    let mut got = Vec::new();
    for k in 2..=4 {
        let (g, nice) = k_tree(k);
        let ground = ground_three_col(&g, &nice);
        let mut h = Fnv::new();
        for (head, body) in ground.horn.rules() {
            h.word(head);
            h.word(body.len() as u32);
            body.iter().for_each(|&a| h.word(a));
        }
        got.push((ground.atom_count(), ground.rule_count(), h.0));
    }
    assert_eq!(
        got,
        [
            (18_334, 15_924, 16_722_852_837_162_620_542),
            (55_540, 38_616, 7_250_347_817_188_622_378),
            (166_780, 109_380, 521_991_594_769_793_347),
        ]
    );
}

/// The FNV-1a hash of `table`'s symbols in interning order. The pinned
/// bags have at most 5 elements, so each edge bitmap is one `u32` word.
fn symbols_hash(table: &SymbolTable) -> u64 {
    let mut h = Fnv::new();
    for sym in &table.symbols {
        let word = |edges: u64| u32::try_from(edges).expect("a bag of at most 8 elements");
        let words: [u32; 4] = match *sym {
            ThreeColSym::Leaf { n, edges } => [0, n.into(), word(edges), 0],
            ThreeColSym::Intro { n, edges, vpos } => [1, n.into(), word(edges), vpos.into()],
            ThreeColSym::Forget { child_n, vpos } => [2, child_n.into(), 0, vpos.into()],
            ThreeColSym::Branch { n } => [3, n.into(), 0, 0],
        };
        words.iter().for_each(|&w| h.word(w));
    }
    h.0
}

#[test]
fn nfta_is_pinned() {
    let full = three_col_nfta(&full_alphabet(3).symbols);
    assert_eq!((full.n_states, full.transition_count()), (40, 684));

    let mut got = Vec::new();
    for k in 2..=4 {
        let (g, nice) = k_tree(k);
        let mut table = SymbolTable::default();
        let symbols = encode_three_col(&g, &nice, &mut table).unwrap();
        let nfta = three_col_nfta(&table.symbols);
        assert_eq!(
            nfta.accepts(&nice, &symbols),
            ThreeColSolver::run(&g, &nice).is_colorable(),
            "k = {k}"
        );
        got.push((
            table.symbols.len(),
            symbols_hash(&table),
            nfta.n_states,
            nfta.transition_count(),
        ));
    }
    assert_eq!(
        got,
        [
            (25, 16_667_369_597_813_228_096, 36, 375),
            (95, 1_085_694_291_308_457_163, 108, 1344),
            (255, 7_012_660_697_459_958_934, 324, 1932),
        ]
    );
}

#[test]
fn mona_route_is_pinned() {
    let budget = DetBudget {
        max_states: 20_000,
        max_transitions: 1 << 21,
    };
    let got: Vec<_> = [cycle(5), cycle(6), complete(3)]
        .iter()
        .map(|g| {
            let (accepted, dfta) = mona_style_3col(g, &min_fill_nice(g), budget).unwrap();
            (accepted, dfta.n_states, dfta.transition_count())
        })
        .collect();
    assert_eq!(got, [(true, 13, 973), (true, 13, 973), (true, 13, 973)]);
}
