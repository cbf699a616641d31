//! Fusion equivalence properties (the byte-identity contract behind
//! `ExecutionConfig::fusion`):
//!
//! 1. across randomly generated chain plans, fault seeds, DoPs, and
//!    checkpoint cadences, a fused run is indistinguishable from an
//!    unfused run on every deterministic surface — sink `Snapshot`
//!    bytes, `FlowMetrics` codec bytes, bit-exact `simulated_secs`,
//!    tracer JSONL, registry snapshot, and the WS00x analyzer verdict
//!    (including plans the analyzer rejects);
//! 2. killing a fused run at a random node boundary and resuming from
//!    its last checkpoint reproduces the uninterrupted run bit for bit —
//!    fused or not;
//! 3. on fan-out plans, where the fused chain tees an interior node's
//!    stream to a side consumer, the fused run matches the unfused one
//!    on both sinks and on every checkpoint frame.

use proptest::prelude::*;
use std::collections::HashMap;
use websift_analyze::diagnostics_to_json;
use websift_flow::{
    ExecutionConfig, ExecutionError, Executor, FlowOutput, FlowResilience, LogicalPlan, Operator,
    Package, Record, Value,
};
use websift_observe::Observer;
use websift_resilience::{Snapshot, Writer};

/// A small vocabulary of total (never-panicking) operators: stamping
/// maps, a duplicating flat-map, a parity filter, a grouping reduce
/// (fusion barrier), a byte-growing map, an operator reading the
/// `stamp` field — which trips a WS001 rejection whenever it lands
/// upstream of the map that produces it, so rejected plans are part of
/// the property too — and a combinable Count reduce (index 6) that the
/// combining executor extends fused stages through.
fn pool_op(idx: usize) -> Operator {
    match idx {
        0 => Operator::map("stamp", Package::Base, |mut r| {
            let id = r.get("id").and_then(Value::as_int).unwrap_or(0);
            r.set("stamp", id * 3 + 1);
            r
        })
        .with_reads(&["id"])
        .with_writes(&["stamp"]),
        1 => Operator::flat_map("dup", Package::Base, |r| {
            let mut copy = r.clone();
            copy.set("half", 1i64);
            vec![r, copy]
        }),
        2 => Operator::filter("parity", Package::Base, |r| {
            r.get("id").and_then(Value::as_int).unwrap_or(0) % 2 == 0
        })
        .with_reads(&["id"]),
        3 => Operator::reduce(
            "group",
            Package::Base,
            |r| format!("g{}", r.get("id").and_then(Value::as_int).unwrap_or(0) % 3),
            |key, group| {
                let mut out = Record::new();
                out.set("id", group.len() as i64);
                out.set("text", format!("{key}:{}", group.len()));
                vec![out]
            },
        ),
        4 => Operator::map("grow", Package::Base, |mut r| {
            let t = format!("{}{}", r.text().unwrap_or(""), " lorem ipsum dolor");
            r.set("text", t);
            r
        })
        .with_reads(&["text"])
        .with_writes(&["text"]),
        5 => Operator::map("needs-stamp", Package::Base, |r| r)
            .with_reads(&["stamp"])
            .with_writes(&["x"]),
        _ => Operator::reduce_agg(
            "tally",
            Package::Base,
            |r| format!("g{}", r.get("id").and_then(Value::as_int).unwrap_or(0) % 3),
            websift_flow::Aggregate::Count { into: "id".into() },
        ),
    }
}

fn chain_plan(indices: &[usize]) -> LogicalPlan {
    let mut plan = LogicalPlan::new();
    let mut prev = plan.source("in");
    for &i in indices {
        prev = plan.add(prev, pool_op(i)).expect("chain plan");
    }
    plan.sink(prev, "out").expect("chain plan");
    plan
}

/// stamp -> dup -> parity -> grow -> sink "out", with a side branch
/// hanging off the node at `branch_at` (1-based into the chain) feeding
/// a second sink — the fan-out shape the fused executor tees.
fn fan_out_plan(branch_at: usize) -> LogicalPlan {
    let mut plan = LogicalPlan::new();
    let mut chain = vec![plan.source("in")];
    for idx in [0usize, 1, 2, 4] {
        let prev = *chain.last().expect("non-empty");
        chain.push(plan.add(prev, pool_op(idx)).expect("fan-out plan"));
    }
    plan.sink(*chain.last().expect("non-empty"), "out").expect("fan-out plan");
    let side = plan.add(chain[branch_at], pool_op(4)).expect("fan-out plan");
    plan.sink(side, "side").expect("fan-out plan");
    plan
}

fn docs(n: usize) -> Vec<Record> {
    (0..n)
        .map(|i| {
            let mut r = Record::new();
            r.set("id", i as i64);
            r.set("text", format!("document {i} with a little body text"));
            r
        })
        .collect()
}

/// Everything deterministic a run exposes, flattened to comparable
/// bytes/strings. `Err` runs collapse to the error display plus the
/// WS00x verdict JSON when the analyzer rejected the plan.
struct RunSurface {
    sink_bytes: Option<Vec<u8>>,
    metrics_bytes: Option<Vec<u8>>,
    simulated_bits: Option<u64>,
    digest: Option<u64>,
    jsonl: String,
    registry: websift_observe::RegistrySnapshot,
    checkpoints: Vec<(usize, Vec<u8>)>,
    error: Option<String>,
}

fn run_surface(plan: &LogicalPlan, input: Vec<Record>, config: ExecutionConfig, res: &FlowResilience) -> RunSurface {
    let obs = Observer::new();
    let mut inputs = HashMap::new();
    inputs.insert("in".to_string(), input);
    let result = Executor::new(config).run_observed(plan, inputs, res, &obs);
    let (output, checkpoints, error): (Option<FlowOutput>, _, Option<String>) = match result {
        Ok(run) => (
            run.output,
            run.checkpoints.iter().map(|c| (c.next_node, c.as_bytes().to_vec())).collect(),
            None,
        ),
        Err(ExecutionError::PlanRejected { diagnostics }) => {
            (None, Vec::new(), Some(format!("WS00x: {}", diagnostics_to_json(&diagnostics))))
        }
        Err(e) => (None, Vec::new(), Some(format!("{e}"))),
    };
    let mut surface = RunSurface {
        sink_bytes: None,
        metrics_bytes: None,
        simulated_bits: None,
        digest: None,
        jsonl: obs.tracer().to_jsonl(),
        registry: obs.registry().snapshot(),
        checkpoints,
        error,
    };
    if let Some(out) = output {
        let mut w = Writer::new();
        out.sinks.encode(&mut w);
        surface.sink_bytes = Some(w.into_bytes());
        let mut w = Writer::new();
        out.metrics.encode(&mut w);
        surface.metrics_bytes = Some(w.into_bytes());
        surface.simulated_bits = Some(out.metrics.simulated_secs.to_bits());
        surface.digest = Some(out.deterministic_digest());
    }
    surface
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_run_is_byte_identical_to_unfused(
        indices in prop::collection::vec(0usize..7, 1..8),
        seed in 0u64..1_000_000,
        rate_sel in 0usize..3,
        dop in 1usize..6,
        n_docs in 0usize..40,
        cadence in 1usize..4,
    ) {
        let plan = chain_plan(&indices);
        let rate = [0.0, 0.15, 0.35][rate_sel];
        let res = FlowResilience::injected(seed, rate, cadence);
        let fused = ExecutionConfig::local(dop);
        let unfused = ExecutionConfig { fusion: false, ..ExecutionConfig::local(dop) };

        let f = run_surface(&plan, docs(n_docs), fused, &res);
        let u = run_surface(&plan, docs(n_docs), unfused, &res);

        prop_assert_eq!(f.error, u.error, "failure surface diverged for {:?}", indices);
        prop_assert_eq!(f.sink_bytes, u.sink_bytes, "sink bytes diverged for {:?}", indices);
        prop_assert_eq!(f.metrics_bytes, u.metrics_bytes, "metrics bytes diverged for {:?}", indices);
        prop_assert_eq!(f.simulated_bits, u.simulated_bits, "simulated clock diverged for {:?}", indices);
        prop_assert_eq!(f.digest, u.digest, "digest diverged for {:?}", indices);
        prop_assert_eq!(f.jsonl, u.jsonl, "tracer JSONL diverged for {:?}", indices);
        prop_assert_eq!(f.registry, u.registry, "registry diverged for {:?}", indices);
    }

    #[test]
    fn kill_and_resume_across_fused_stage_is_bit_exact(
        indices in prop::collection::vec(0usize..6, 2..7),
        stop_frac in 0usize..100,
        dop in 1usize..5,
        n_docs in 1usize..30,
    ) {
        // Fault-free so the kill point is the only perturbation; ops from
        // the panic-free part of the vocabulary (no analyzer rejection):
        // draw 5 is remapped to the combinable Count reduce (index 6) so
        // kill points land inside fused Reduce stages too, and the
        // WS001-tripping needs-stamp op stays out.
        let indices: Vec<usize> =
            indices.into_iter().map(|i| if i == 5 { 6 } else { i }).collect();
        let plan = chain_plan(&indices);
        let full_res = FlowResilience {
            checkpoint_every_nodes: Some(1),
            ..FlowResilience::default()
        };
        // Stop somewhere strictly inside the plan, after at least one
        // checkpointable node.
        let stop = 1 + stop_frac % (plan.len() - 1);
        let killed_res = FlowResilience { stop_after_nodes: Some(stop), ..full_res.clone() };

        let exec = Executor::new(ExecutionConfig::local(dop));
        let mut inputs = HashMap::new();
        inputs.insert("in".to_string(), docs(n_docs));
        let killed = exec.run_resilient(&plan, inputs, &killed_res).unwrap();
        prop_assert!(killed.output.is_none(), "stop_after_nodes must interrupt");
        // With checkpoint_every_nodes = 1 a kill strictly inside the plan
        // always has at least one checkpoint behind it.
        let ckpt = killed.checkpoints.last().expect("checkpoint before the kill point");

        let resumed_obs = Observer::new();
        let mut inputs = HashMap::new();
        inputs.insert("in".to_string(), docs(n_docs));
        let resumed = exec
            .resume_observed(&plan, ckpt, inputs, &full_res, &resumed_obs)
            .unwrap()
            .output
            .unwrap();

        let full_obs = Observer::new();
        let mut inputs = HashMap::new();
        inputs.insert("in".to_string(), docs(n_docs));
        let full = exec
            .run_observed(&plan, inputs, &full_res, &full_obs)
            .unwrap()
            .output
            .unwrap();

        prop_assert_eq!(resumed.sinks, full.sinks, "sinks diverged for {:?} stop={}", indices, stop);
        prop_assert_eq!(
            resumed.deterministic_digest(),
            full.deterministic_digest(),
            "digest diverged for {:?} stop={}",
            indices,
            stop
        );
        prop_assert_eq!(
            resumed.metrics.simulated_secs.to_bits(),
            full.metrics.simulated_secs.to_bits(),
            "simulated clock diverged for {:?} stop={}",
            indices,
            stop
        );
        prop_assert_eq!(
            resumed_obs.registry().snapshot(),
            full_obs.registry().snapshot(),
            "registry diverged for {:?} stop={}",
            indices,
            stop
        );

        // And the unfused and uncombined engines agree with the fused
        // resume.
        for config in [
            ExecutionConfig { fusion: false, ..ExecutionConfig::local(dop) },
            ExecutionConfig { combining: false, ..ExecutionConfig::local(dop) },
        ] {
            let other = Executor::new(config);
            let mut inputs = HashMap::new();
            inputs.insert("in".to_string(), docs(n_docs));
            let plain = other.run_resilient(&plan, inputs, &full_res).unwrap().output.unwrap();
            prop_assert_eq!(
                resumed.deterministic_digest(),
                plain.deterministic_digest(),
                "fused resume diverged from unfused/uncombined run for {:?} stop={}",
                indices,
                stop
            );
        }
    }
}

/// Fan-out plans: the fused chain tees an interior node to a side sink.
/// Every branch point must agree with the unfused engine on both sinks
/// and on every checkpoint frame, with and without injected faults.
#[test]
fn fan_out_tee_matches_unfused() {
    for branch_at in 1..=4usize {
        let plan = fan_out_plan(branch_at);
        for dop in [1usize, 4, 8] {
            for seed in [0u64, 909] {
                let res = FlowResilience::injected(seed, 0.2, 2);
                let unfused = run_surface(
                    &plan,
                    docs(24),
                    ExecutionConfig { fusion: false, ..ExecutionConfig::local(dop) },
                    &res,
                );
                assert!(unfused.error.is_none(), "fan-out plan must run: {:?}", unfused.error);
                let fused = run_surface(&plan, docs(24), ExecutionConfig::local(dop), &res);
                let ctx = format!("branch_at {branch_at} dop {dop} seed {seed}");
                assert_eq!(fused.error, unfused.error, "{ctx}");
                assert_eq!(fused.sink_bytes, unfused.sink_bytes, "{ctx}");
                assert_eq!(fused.metrics_bytes, unfused.metrics_bytes, "{ctx}");
                assert_eq!(fused.simulated_bits, unfused.simulated_bits, "{ctx}");
                assert_eq!(fused.jsonl, unfused.jsonl, "{ctx}");
                assert_eq!(fused.checkpoints, unfused.checkpoints, "{ctx}");
            }
        }
    }
}
