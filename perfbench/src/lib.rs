//! The repository benchmark: the paper's pipelines end to end.
//!
//! One process runs one seeded workload closed-loop (one caller; the next
//! operation starts when the previous one returns), checks every answer
//! against an oracle, and reports either the end-to-end metrics (untraced
//! run) or the per-layer split (traced run). Reported times are scaled to
//! a nominal host speed (see [`calibrate`]). See `README.md` for the
//! metric catalogue and what each workload does and does not exercise.

pub mod alloc;
pub mod calibrate;
pub mod primality;
pub mod stats;
pub mod tau_td;
pub mod tc_view;
pub mod three_col;
pub mod trace;

use calibrate::{Kernel, Reference};
use stats::{median, ms_since, quantile};
use std::time::{Duration, Instant};
use trace::Tracer;

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// The workload names. `BENCHMARK.json` and `README.md` say why each was
/// chosen and which layers it does and does not exercise.
pub const WORKLOADS: [&str; 4] = [
    "three_col_ktree",
    "primality_blocks",
    "tau_td_forest",
    "tc_view",
];

/// How large the generated inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// Tiny inputs for the smoke test.
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured closed loop, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// How many times each workload sets up; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// The end-to-end metrics every untraced run reports: name and unit.
/// "Primary" and "secondary" are each workload's two timed operations
/// (see [`Workload::labels`]).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("primary_ms.p50", "ms"),
    ("primary_ms.p90", "ms"),
    ("secondary_ms.p50", "ms"),
    ("peak_heap_mb", "MiB"),
];

/// How a per-layer metric is read from the trace.
#[derive(Debug, Clone, Copy)]
pub enum Reading {
    /// Median duration of the spans of that name, ms per call.
    Span,
    /// Median of the counter samples of that name (one per operation).
    Count,
    /// Total of the first counter over total of the second.
    Ratio(&'static str, &'static str),
    /// Traced minus untraced median of the primary operation, ms.
    Overhead,
}

/// The per-layer metrics every traced run reports: name, unit, reading.
/// A layer a workload does not exercise reads 0 on that workload.
pub const PER_LAYER: [(&str, &str, Reading); 45] = [
    // three_col_ktree: primary (decide) and secondary (Horn route).
    ("graph.encode_ms", "ms", Reading::Span),
    ("decomp.minfill_ms", "ms", Reading::Span),
    ("decomp.nice_ms", "ms", Reading::Span),
    ("core.three_col.dp_ms", "ms", Reading::Span),
    ("core.three_col.witness_ms", "ms", Reading::Span),
    ("core.lowering.ground_ms", "ms", Reading::Span),
    ("datalog.horn.ltur_ms", "ms", Reading::Span),
    ("decomp.width", "count", Reading::Count),
    ("decomp.nice_nodes", "count", Reading::Count),
    ("core.three_col.facts", "count", Reading::Count),
    ("core.lowering.atoms", "count", Reading::Count),
    ("core.lowering.rules", "count", Reading::Count),
    (
        "core.three_col.reachable_share",
        "ratio",
        Reading::Ratio("core.three_col.facts", "core.lowering.atoms"),
    ),
    // primality_blocks: primary (decision) and secondary (enumeration).
    ("schema.encode_ms", "ms", Reading::Span),
    ("core.primality.decision_ctx_ms", "ms", Reading::Span),
    ("core.primality.up_ms", "ms", Reading::Span),
    ("core.primality.enum_ctx_ms", "ms", Reading::Span),
    ("core.primality.down_ms", "ms", Reading::Span),
    ("core.primality.up_facts", "count", Reading::Count),
    ("core.primality.down_facts", "count", Reading::Count),
    // tau_td_forest: primary (QG engine), secondary (indexed engine).
    ("decomp.tuple_normal_ms", "ms", Reading::Span),
    ("decomp.encode_tau_td_ms", "ms", Reading::Span),
    ("datalog.qg.evaluate_ms", "ms", Reading::Span),
    ("datalog.qg.ground_rules", "count", Reading::Count),
    ("datalog.qg.ground_atoms", "count", Reading::Count),
    ("datalog.qg.guard_instantiations", "count", Reading::Count),
    (
        "datalog.qg.facts_per_ground_rule",
        "ratio",
        Reading::Ratio("datalog.qg.facts", "datalog.qg.ground_rules"),
    ),
    ("datalog.indexed.evaluate_ms", "ms", Reading::Span),
    ("mso.compile_ms", "ms", Reading::Span),
    ("datalog.session_ms", "ms", Reading::Span),
    ("datalog.first_eval_ms", "ms", Reading::Span),
    // tc_view: setup, primary (apply), secondary (warm evaluate).
    ("datalog.parse_ms", "ms", Reading::Span),
    ("datalog.materialize_ms", "ms", Reading::Span),
    ("datalog.evaluate_ms", "ms", Reading::Span),
    ("datalog.firings", "count", Reading::Count),
    ("datalog.interned_hits", "count", Reading::Count),
    ("datalog.index_probes", "count", Reading::Count),
    ("datalog.tuples_considered", "count", Reading::Count),
    (
        "datalog.facts_per_firing",
        "ratio",
        Reading::Ratio("datalog.facts", "datalog.firings"),
    ),
    ("datalog.incremental.apply_ms", "ms", Reading::Span),
    ("datalog.incremental.overdeleted", "count", Reading::Count),
    ("datalog.incremental.rederived", "count", Reading::Count),
    ("datalog.incremental.fallbacks", "count", Reading::Count),
    (
        "datalog.incremental.rederive_share",
        "ratio",
        Reading::Ratio(
            "datalog.incremental.rederived",
            "datalog.incremental.overdeleted",
        ),
    ),
    ("trace.overhead_ms", "ms", Reading::Overhead),
];

/// Latencies and operation accounting of one measured phase.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Primary-operation latencies, ms.
    pub primary: Vec<f64>,
    /// Secondary-operation latencies, ms.
    pub secondary: Vec<f64>,
    /// Peak live heap of each closed-loop iteration, MiB.
    pub heap: Vec<f64>,
    /// For each primary and secondary sample, the reference burst that
    /// followed its iteration.
    primary_at: Vec<usize>,
    secondary_at: Vec<usize>,
    /// Operations run.
    pub attempted: u64,
    /// Operations with a wrong answer or an evaluation error.
    pub failed: u64,
    /// Operations that succeeded only after a fall-back.
    pub retried: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
}

impl Recorder {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    fn absorb(&mut self, other: Recorder) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.retried += other.retried;
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// A seeded workload, driven closed-loop.
pub trait Workload {
    /// What the primary and secondary operations are, for the report.
    fn labels(&self) -> (&'static str, &'static str);
    /// The reference kernel that slows down like this workload.
    fn kernel(&self) -> Kernel;
    /// One set-up of the workload's reusable state; returns the seconds
    /// it took. Called [`SETUP_REPS`] times; the last set-up is kept.
    fn setup(&mut self, tr: &mut Tracer, rec: &mut Recorder) -> Result<f64, String>;
    /// Restarts the seeded input stream, so every measured phase sees the
    /// same inputs in the same order.
    fn restart(&mut self);
    /// One closed-loop iteration: one or more timed operations.
    fn step(&mut self, tr: &mut Tracer, rec: &mut Recorder);
}

/// A named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Operations run.
    pub attempted: u64,
    /// Operations with a wrong answer or an error.
    pub failed: u64,
    /// End-to-end (untraced) or per-layer (traced) metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub report: Vec<String>,
}

impl Outcome {
    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Builds the named workload.
pub fn workload(cfg: &Config) -> Result<Box<dyn Workload>, String> {
    Ok(match cfg.workload.as_str() {
        "three_col_ktree" => Box::new(three_col::ThreeCol::new(cfg)),
        "primality_blocks" => Box::new(primality::Primality::new(cfg)),
        "tau_td_forest" => Box::new(tau_td::TauTd::new(cfg)),
        "tc_view" => Box::new(tc_view::TcView::new(cfg)),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Runs one workload: set-up, then the measured closed loop (untraced;
/// in a traced run, an untraced and a traced half of the same inputs).
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut w = workload(cfg)?;
    let mut tracer = Tracer::new(cfg.trace);
    let mut total = Recorder::default();
    let mut reference = Reference::new(w.kernel());
    let (mut setups, mut setups_at) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let at = reference.burst();
        match w.setup(&mut tracer, &mut total) {
            Ok(secs) => {
                setups.push(secs);
                setups_at.push(at);
            }
            Err(e) => {
                total.fail(format!("setup: {e}"));
                break;
            }
        }
    }
    let setup_ok = setups.len() == SETUP_REPS;
    let (primary_label, secondary_label) = w.labels();
    let mut report = vec![format!(
        "workload {} seed {} seconds {} trace {}",
        cfg.workload, cfg.seed, cfg.seconds, cfg.trace
    )];
    let metrics = if !cfg.trace {
        let mut rec = Recorder::default();
        if setup_ok {
            let mut off = Tracer::new(false);
            measure(w.as_mut(), &mut off, &mut reference, cfg.seconds, &mut rec);
        }
        report.push(format!(
            "host factor {:.4} over {} reference bursts; times below are scaled to the nominal host",
            reference.factor(),
            reference.bursts()
        ));
        let primary = reference.scale(&rec.primary, &rec.primary_at);
        let p90 = quantile(&primary, 0.9).unwrap_or(0.0);
        if rec.primary.len() < stats::P90_MIN_SAMPLES {
            report.push(format!(
                "note: {} primary samples, so fewer than ten lie beyond p90",
                rec.primary.len()
            ));
        }
        let values = [
            median(&reference.scale(&setups, &setups_at)),
            median(&primary),
            p90,
            median(&reference.scale(&rec.secondary, &rec.secondary_at)),
            median(&rec.heap),
        ];
        report.push(format!(
            "setup_s {:.4} (median of {} set-ups)",
            values[0],
            setups.len()
        ));
        report.push(format!(
            "primary = {primary_label}: p50 {:.4} ms, p90 {:.4} ms over {} samples",
            values[1],
            values[2],
            rec.primary.len()
        ));
        report.push(format!(
            "secondary = {secondary_label}: p50 {:.4} ms over {} samples",
            values[3],
            rec.secondary.len()
        ));
        report.push(format!(
            "peak_heap_mb {:.3} (median over {} iterations)",
            values[4],
            rec.heap.len()
        ));
        total.absorb(rec);
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    } else {
        let (mut off, mut on) = (Recorder::default(), Recorder::default());
        if setup_ok {
            let half = cfg.seconds / 2.0;
            let mut untraced = Tracer::new(false);
            measure(w.as_mut(), &mut untraced, &mut reference, half, &mut off);
            measure(w.as_mut(), &mut tracer, &mut reference, half, &mut on);
        }
        let k = reference.factor();
        report.push(format!(
            "host factor {k:.4} over {} reference bursts; times below are scaled to the nominal host",
            reference.bursts()
        ));
        let untraced = median(&reference.scale(&off.primary, &off.primary_at));
        let traced = median(&reference.scale(&on.primary, &on.primary_at));
        report.push(format!(
            "primary = {primary_label}: untraced p50 {untraced:.4} ms ({} samples), traced p50 {traced:.4} ms ({} samples)",
            off.primary.len(),
            on.primary.len()
        ));
        let overhead = traced - untraced;
        total.absorb(off);
        total.absorb(on);
        per_layer(&tracer, overhead, k)
    };
    report.push(format!(
        "operations attempted {} failed {} retried {}",
        total.attempted, total.failed, total.retried
    ));
    for e in &total.errors {
        report.push(format!("failure: {e}"));
    }
    Ok(Outcome {
        attempted: total.attempted,
        failed: total.failed,
        metrics,
        report,
    })
}

/// Drives `w` closed-loop for `seconds` (at least one iteration), with
/// reference bursts in between.
fn measure(
    w: &mut dyn Workload,
    tr: &mut Tracer,
    reference: &mut Reference,
    seconds: f64,
    rec: &mut Recorder,
) {
    w.restart();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds.max(0.0));
    loop {
        alloc::reset_peak();
        w.step(tr, rec);
        rec.heap.push(alloc::peak_mb());
        let at = reference.burst();
        rec.primary_at.resize(rec.primary.len(), at);
        rec.secondary_at.resize(rec.secondary.len(), at);
        if Instant::now() >= deadline {
            break;
        }
    }
}

/// Reads every [`PER_LAYER`] metric from the trace, scaling times by the
/// host factor `k`.
fn per_layer(tr: &Tracer, overhead_ms: f64, k: f64) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit, reading)| {
            let value = match reading {
                Reading::Span => k * median(tr.span_samples(name)),
                Reading::Count => median(tr.count_samples(name)),
                Reading::Ratio(num, den) => {
                    let d = tr.count_total(den);
                    if d > 0.0 {
                        tr.count_total(num) / d
                    } else {
                        0.0
                    }
                }
                Reading::Overhead => overhead_ms,
            };
            Metric { name, value, unit }
        })
        .collect()
}

/// Times `f` in ms, returning its result too.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, ms_since(t0))
}
