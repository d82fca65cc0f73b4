//! `primality_blocks`: the Table 1 block-tree schemas, decomposition
//! first as in the paper's §6.
//!
//! Primary operation (decision): `encode_schema` →
//! `PrimalityContext::for_decision` → `run_up` → `accepts`, on prime
//! (`u`/`v`) and non-prime (`w`) targets. Secondary operation
//! (enumeration, §5.3), once per instance: `encode_schema` →
//! `PrimalityContext::from_parts` → `enumerate_primes`. Set-up generates a
//! batch of instances through `block_tree_instance`; the closed loop
//! generates each instance just before it is measured.
//!
//! Instance sizes cycle through a fixed ladder (with a seeded jitter of
//! ±2%), so every run has the same size mix and the percentiles reflect
//! the sizes rather than which sizes a seed happened to draw.
//!
//! Oracle: decisions and the enumeration equal the generator's
//! `expected_primes`.

use crate::calibrate::Kernel;
use crate::stats::ms_since;
use crate::trace::Tracer;
use crate::{Config, Recorder, Scale, Workload};
use mdtw_core::{enumerate_primes, PrimalityContext};
use mdtw_schema::{block_tree_instance, encode_schema, AttrId, GeneratedInstance};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Instances generated per set-up.
const BATCH: usize = 16;

/// Decision queries per instance: this many `u`, `v` and `w` targets each.
const TARGETS_PER_KIND: usize = 4;

struct Instance {
    inst: GeneratedInstance,
    /// Queried attributes and whether each is prime.
    targets: Vec<(AttrId, bool)>,
}

/// The workload state.
pub struct Primality {
    seed: u64,
    /// Block counts (= FDs) the instances cycle through.
    ladder: &'static [usize],
    rng: SmallRng,
    generated: usize,
}

impl Primality {
    /// A workload over `cfg`'s seed and scale.
    pub fn new(cfg: &Config) -> Self {
        let ladder: &[usize] = match cfg.scale {
            Scale::Full => &[1000, 1250, 1500, 1750, 2000],
            Scale::Tiny => &[6, 9, 12],
        };
        Self {
            seed: cfg.seed,
            ladder,
            rng: SmallRng::seed_from_u64(cfg.seed),
            generated: 0,
        }
    }

    fn generate(&mut self) -> Instance {
        let rung = self.ladder[self.generated % self.ladder.len()];
        self.generated += 1;
        let jitter = rung / 50;
        let blocks = self.rng.random_range(rung - jitter..=rung + jitter);
        let inst = block_tree_instance(blocks);
        let mut targets = Vec::with_capacity(3 * TARGETS_PER_KIND);
        for (prefix, prime) in [("u", true), ("v", true), ("w", false)] {
            for _ in 0..TARGETS_PER_KIND {
                let i = self.rng.random_range(0..blocks);
                let attr = inst
                    .schema
                    .attr(&format!("{prefix}{i}"))
                    .expect("block attributes exist");
                targets.push((attr, prime));
            }
        }
        // Interleave the kinds so prime and non-prime queries alternate.
        for i in (1..targets.len()).rev() {
            let j = self.rng.random_range(0..=i);
            targets.swap(i, j);
        }
        Instance { inst, targets }
    }
}

impl Workload for Primality {
    fn labels(&self) -> (&'static str, &'static str) {
        (
            "decision (encode_schema, for_decision, run_up, accepts)",
            "enumeration (encode_schema, from_parts, enumerate_primes)",
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
        let Instance { inst, targets } = self.generate();

        for &(target, expected) in &targets {
            let td = inst.td.clone();
            let t0 = Instant::now();
            let enc = tr.span("schema.encode_ms", || encode_schema(&inst.schema));
            let ctx = tr.span("core.primality.decision_ctx_ms", || {
                PrimalityContext::for_decision(enc, td, target)
            });
            let up = tr.span("core.primality.up_ms", || ctx.run_up());
            let root = ctx.nice.root();
            let prime = ctx.accepts(root, &up[root.index()], ctx.encoding.elem_of_attr(target));
            rec.primary.push(ms_since(t0));
            tr.count(
                "core.primality.up_facts",
                up.iter().map(|t| t.len()).sum::<usize>() as f64,
            );
            rec.check(prime == expected, || {
                format!(
                    "{}-FD schema, attribute {}: decided prime={prime}",
                    inst.schema.fd_count(),
                    inst.schema.attr_name(target)
                )
            });
        }

        let td = inst.td.clone();
        let t1 = Instant::now();
        let enc = tr.span("schema.encode_ms", || encode_schema(&inst.schema));
        let ctx = tr.span("core.primality.enum_ctx_ms", || {
            PrimalityContext::from_parts(enc, td)
        });
        let (primes, stats) = tr.span("core.primality.down_ms", || enumerate_primes(&ctx));
        rec.secondary.push(ms_since(t1));
        tr.count("core.primality.down_facts", stats.down_facts as f64);
        let found: Vec<AttrId> = primes
            .iter()
            .filter_map(|&e| ctx.encoding.attr_of_elem(e))
            .collect();
        rec.check(
            found.len() == primes.len() && found == inst.expected_primes,
            || {
                format!(
                    "{}-FD schema: enumerated {} primes, expected {}",
                    inst.schema.fd_count(),
                    found.len(),
                    inst.expected_primes.len()
                )
            },
        );
    }
}
