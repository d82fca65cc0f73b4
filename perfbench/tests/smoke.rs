//! Tiny-size runs of every workload, untraced and traced: every oracle
//! passes, every metric `BENCHMARK.json` names is emitted, and every layer
//! a workload exercises reads non-zero, so a metric cannot silently drop.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use mdtw_perfbench::{run, Config, Outcome, Scale, END_TO_END, PER_LAYER, WORKLOADS};

fn tiny(workload: &str, seed: u64, trace: bool) -> Outcome {
    let cfg = Config {
        workload: workload.to_owned(),
        seed,
        seconds: 0.3,
        trace,
        scale: Scale::Tiny,
    };
    let outcome = run(&cfg).expect("known workload");
    assert!(outcome.attempted > 0, "{workload}: no operation ran");
    assert_eq!(
        outcome.failed, 0,
        "{workload} seed {seed}: {:#?}",
        outcome.report
    );
    outcome
}

/// The layers each workload must exercise (non-zero in its traced run).
fn exercised(workload: &str) -> &'static [&'static str] {
    match workload {
        "three_col_ktree" => &[
            "graph.encode_ms",
            "decomp.minfill_ms",
            "decomp.nice_ms",
            "core.three_col.dp_ms",
            "core.three_col.witness_ms",
            "core.lowering.ground_ms",
            "datalog.horn.ltur_ms",
            "decomp.width",
            "decomp.nice_nodes",
            "core.three_col.facts",
            "core.lowering.atoms",
            "core.lowering.rules",
            "core.three_col.reachable_share",
        ],
        "primality_blocks" => &[
            "schema.encode_ms",
            "core.primality.decision_ctx_ms",
            "core.primality.up_ms",
            "core.primality.enum_ctx_ms",
            "core.primality.down_ms",
            "core.primality.up_facts",
            "core.primality.down_facts",
        ],
        "tau_td_forest" => &[
            "decomp.tuple_normal_ms",
            "decomp.encode_tau_td_ms",
            "datalog.qg.evaluate_ms",
            "datalog.qg.ground_rules",
            "datalog.qg.ground_atoms",
            "datalog.qg.guard_instantiations",
            "datalog.qg.facts_per_ground_rule",
            "datalog.indexed.evaluate_ms",
            "mso.compile_ms",
            "datalog.session_ms",
            "datalog.first_eval_ms",
        ],
        "tc_view" => &[
            "datalog.parse_ms",
            "datalog.session_ms",
            "datalog.materialize_ms",
            "datalog.evaluate_ms",
            "datalog.firings",
            "datalog.index_probes",
            "datalog.tuples_considered",
            "datalog.facts_per_firing",
            "datalog.incremental.apply_ms",
            "datalog.incremental.overdeleted",
        ],
        other => panic!("no layer list for {other}"),
    }
}

/// The `name` values listed under `key` in `BENCHMARK.json`.
fn declared_names(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let section = &json[start..];
    let section = &section[..section.find(']').expect("list closes")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name closes")].to_owned())
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names = |list: &[&str]| list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
    assert_eq!(declared_names(&json, "workloads"), names(&WORKLOADS));
    assert_eq!(
        declared_names(&json, "end_to_end"),
        names(&END_TO_END.map(|(n, _)| n))
    );
    assert_eq!(
        declared_names(&json, "per_layer"),
        names(&PER_LAYER.map(|(n, _, _)| n))
    );
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_oracles() {
    for workload in WORKLOADS {
        for seed in [1, 7] {
            let untraced = tiny(workload, seed, false);
            for (name, unit) in END_TO_END {
                let m = untraced
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                assert_eq!(m.unit, unit);
                assert!(m.value > 0.0, "{workload}: {name} = {}", m.value);
            }
            assert_eq!(untraced.metrics.len(), END_TO_END.len());
            let line = untraced.json();
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));

            let traced = tiny(workload, seed, true);
            assert_eq!(traced.metrics.len(), PER_LAYER.len());
            for (name, _, _) in PER_LAYER {
                assert!(traced.metric(name).is_some(), "{workload}: {name} missing");
            }
            for name in exercised(workload) {
                let value = traced.metric(name).expect("listed");
                assert!(value > 0.0, "{workload}: {name} reads {value}");
            }
        }
    }
}
