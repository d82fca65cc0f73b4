//! `three_col_ktree`: the Figure 5 user pipeline on random partial k-trees.
//!
//! Primary operation (decide): `encode_graph` → `decompose(MinFill)` →
//! `NiceTd::from_td` → `ThreeColSolver::run` → `witness`, the steps of
//! `three_coloring_fpt`. Secondary operation (Horn route, Theorem 5.1):
//! `ground_three_col` → `least_model` on the same nice decomposition.
//! Set-up generates a batch of instances through `partial_k_tree`; the
//! closed loop generates each instance just before it is measured.
//!
//! Oracles: the DP answer equals the Horn least-model answer, and every
//! witness is a proper 3-colouring of the input graph.

use crate::calibrate::Kernel;
use crate::stats::ms_since;
use crate::trace::Tracer;
use crate::{Config, Recorder, Scale, Workload};
use mdtw_core::{ground_three_col, ThreeColSolver};
use mdtw_decomp::{decompose, Heuristic, NiceOptions, NiceTd};
use mdtw_graph::{encode_graph, partial_k_tree, Graph};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

/// Generated widths cycle through 2, 3, 4; `KEEP[k - 2]` is the share of
/// k-tree edges kept at width `k`. Width 2 is always 3-colourable; the
/// denser widths mostly are not, so both answers occur.
const KEEP: [f64; 3] = [0.9, 0.7, 0.6];

/// Instances generated per set-up.
const BATCH: usize = 128;

struct Instance {
    graph: Graph,
    width: usize,
}

/// The workload state.
pub struct ThreeCol {
    seed: u64,
    vertices: usize,
    rng: SmallRng,
    generated: usize,
}

impl ThreeCol {
    /// A workload over `cfg`'s seed and scale.
    pub fn new(cfg: &Config) -> Self {
        let vertices = match cfg.scale {
            Scale::Full => 700,
            Scale::Tiny => 40,
        };
        Self {
            seed: cfg.seed,
            vertices,
            rng: SmallRng::seed_from_u64(cfg.seed),
            generated: 0,
        }
    }

    fn generate(&mut self) -> Instance {
        let width = 2 + self.generated % 3;
        self.generated += 1;
        let (graph, _) = partial_k_tree(&mut self.rng, self.vertices, width, KEEP[width - 2]);
        Instance { graph, width }
    }
}

/// True iff `colors` properly 3-colours `g`.
fn proper_3_coloring(g: &Graph, colors: &[u8]) -> bool {
    colors.len() == g.len()
        && colors.iter().all(|&c| c < 3)
        && g.edges()
            .iter()
            .all(|&(a, b)| colors[a as usize] != colors[b as usize])
}

impl Workload for ThreeCol {
    fn labels(&self) -> (&'static str, &'static str) {
        (
            "decide (encode, min-fill, nice, Figure 5 DP, witness)",
            "Horn route (ground_three_col, least_model)",
        )
    }

    fn kernel(&self) -> Kernel {
        Kernel::Compute
    }

    fn setup(&mut self, _tr: &mut Tracer, _rec: &mut Recorder) -> Result<f64, String> {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            std::hint::black_box(self.generate());
        }
        Ok(t0.elapsed().as_secs_f64())
    }

    fn restart(&mut self) {
        self.rng = SmallRng::seed_from_u64(self.seed);
        self.generated = 0;
    }

    fn step(&mut self, tr: &mut Tracer, rec: &mut Recorder) {
        let inst = self.generate();
        let g = &inst.graph;

        let t0 = Instant::now();
        let s = tr.span("graph.encode_ms", || encode_graph(g));
        let td = tr.span("decomp.minfill_ms", || decompose(&s, Heuristic::MinFill));
        let nice = tr.span("decomp.nice_ms", || {
            NiceTd::from_td(&td, NiceOptions::default())
        });
        let solver = tr.span("core.three_col.dp_ms", || ThreeColSolver::run(g, &nice));
        let colorable = solver.is_colorable();
        let witness = colorable.then(|| tr.span("core.three_col.witness_ms", || solver.witness()));
        rec.primary.push(ms_since(t0));
        tr.count("decomp.width", nice.width() as f64);
        tr.count("decomp.nice_nodes", nice.len() as f64);
        tr.count("core.three_col.facts", solver.fact_count as f64);
        let witness_ok = match &witness {
            None => true,
            Some(Some(colors)) => proper_3_coloring(g, colors),
            Some(None) => false,
        };
        rec.check(witness_ok, || {
            format!("width-{} instance: witness missing or improper", inst.width)
        });

        let t1 = Instant::now();
        let ground = tr.span("core.lowering.ground_ms", || ground_three_col(g, &nice));
        let horn = tr.span("datalog.horn.ltur_ms", || ground.succeeds());
        rec.secondary.push(ms_since(t1));
        tr.count("core.lowering.atoms", ground.atom_count() as f64);
        tr.count("core.lowering.rules", ground.rule_count() as f64);
        rec.check(horn == colorable, || {
            format!(
                "width-{} instance: DP says {colorable}, Horn least model says {horn}",
                inst.width
            )
        });
    }
}
