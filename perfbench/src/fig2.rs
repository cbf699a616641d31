//! `fig2-batch`: one `Executor::run` of the paper's full Fig-2 plan over
//! a mixed RelevantWeb + Medline + PMC corpus, repeated for the run
//! length. The `text` and `ner` operators do nearly all the work; the
//! crawler, store, and live layers do none.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use websift_corpus::{CorpusKind, Generator, Lexicon, LexiconScale};
use websift_flow::{
    ExecutionConfig, Executor, FlowOutput, IeConfig, IeResources, LogicalPlan, NodeOp, Record,
};
use websift_pipeline::documents_to_records;
use websift_pipeline::flows::full_analysis_plan;
use websift_resilience::{Snapshot, Writer};

use crate::load::splitmix64;
use crate::trace::{Breakdown, Tracer};
use crate::{another_unit, stats, timed, Ctx, E2e, Layers, Outcome};

/// Characters of raw text drawn from each corpus, in generation order.
/// Web pages and PMC articles are long and vary a lot in length, Medline
/// abstracts are short; a fixed text budget instead of a fixed document
/// count keeps the work per run the same for every seed. The mix keeps
/// one run near half a second on two cores, so a run length holds enough
/// runs for a median that a burst of host noise does not move.
const CORPUS: [(CorpusKind, usize); 3] = [
    (CorpusKind::RelevantWeb, 360_000),
    (CorpusKind::Medline, 240_000),
    (CorpusKind::Pmc, 265_000),
];

/// Timed runs a measurement takes even when they outlast the run length.
const MIN_RUNS: usize = 3;

struct Setup {
    plan: LogicalPlan,
    records: Vec<Record>,
}

fn setup(seed: u64) -> Setup {
    let lexicon = Arc::new(Lexicon::generate(LexiconScale::default_scale()));
    let resources = IeResources::standard(&lexicon, IeConfig::default());
    let mut docs = Vec::new();
    for (kind, budget) in CORPUS {
        let generator =
            Generator::with_lexicon(kind, splitmix64(seed ^ kind as u64), lexicon.clone());
        let mut chars = 0;
        for id in 0.. {
            if chars >= budget {
                break;
            }
            let doc = generator.document(id);
            chars += doc.raw_text().len();
            docs.push(doc);
        }
    }
    Setup {
        plan: full_analysis_plan(&resources),
        records: documents_to_records(&docs),
    }
}

fn source(plan: &LogicalPlan) -> String {
    plan.sources()
        .first()
        .map(|s| s.to_string())
        .expect("plan has a source")
}

/// Digest of every sink's records, in sink-name order.
pub fn sinks_digest(sinks: &HashMap<String, Vec<Record>>) -> u64 {
    let mut names: Vec<&String> = sinks.keys().collect();
    names.sort();
    let mut w = Writer::new();
    for name in names {
        w.str(name);
        sinks[name].encode(&mut w);
    }
    websift_resilience::codec::digest(&w.into_bytes())
}

fn run_once(plan: &LogicalPlan, records: Vec<Record>, dop: usize) -> FlowOutput {
    let inputs = HashMap::from([(source(plan), records)]);
    Executor::new(ExecutionConfig::local(dop))
        .run(plan, inputs)
        .expect("fig-2 plan runs")
}

/// The reference interpreter: every plan node applied in order with
/// `Operator::apply`, one span per operator. Returns the sinks, keyed as
/// the executor keys them.
pub fn serial_replay(
    plan: &LogicalPlan,
    records: Vec<Record>,
    tracer: &mut Tracer,
    id: u64,
) -> HashMap<String, Vec<Record>> {
    let nodes = plan.nodes();
    let mut pending: Vec<usize> = nodes.iter().map(|n| plan.children(n.id).len()).collect();
    let mut outputs: Vec<Option<Vec<Record>>> = vec![None; nodes.len()];
    let mut sinks = HashMap::new();
    let mut records = Some(records);
    tracer.root("flow.replay", id, |t| {
        for node in nodes {
            let input = match node.input {
                None => records.take().expect("one source"),
                Some(p) => {
                    pending[p] -= 1;
                    if pending[p] == 0 {
                        outputs[p].take().expect("parent ran first")
                    } else {
                        outputs[p].clone().expect("parent ran first")
                    }
                }
            };
            match &node.op {
                NodeOp::Source(_) => outputs[node.id] = Some(input),
                NodeOp::Op(op) => {
                    let name = format!("op.{}", op.name);
                    outputs[node.id] = Some(t.span(&name, |_| op.apply(input)));
                }
                NodeOp::Sink(name) => {
                    sinks.insert(name.clone(), input);
                }
            }
        }
    });
    sinks
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (setup_s, s) = timed(|| setup(ctx.seed));
    let docs = s.records.len();
    let mut out = Outcome::new(setup_s);
    let started = Instant::now();
    let mut digests = Vec::new();
    let mut walls_ms = Vec::new();
    let mut units_ms = Vec::new();
    let mut tracer = Tracer::new(started);
    let mut traced_ms = Vec::new();
    // (records out, shuffle bytes) of the last traced run.
    let mut last = (0usize, 0u64);

    // End-to-end figures time the executor alone. For the tracing
    // overhead, a unit is one run plus the copy of its input and the
    // digest of its output, which the traced run wraps in spans.
    while another_unit(started, ctx.seconds, walls_ms.len(), MIN_RUNS) {
        let untraced = Instant::now();
        let records = s.records.clone();
        let t = Instant::now();
        let run = run_once(&s.plan, records, ctx.budget.dop);
        walls_ms.push(t.elapsed().as_secs_f64() * 1e3);
        digests.push(sinks_digest(&run.sinks));
        units_ms.push(untraced.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        if ctx.trace {
            let id = traced_ms.len() as u64;
            let t = Instant::now();
            let run = tracer.root("fig2.run", id, |t| {
                let records = t.span("flow.inputs", |_| s.records.clone());
                let run = t.span("flow.run", |_| run_once(&s.plan, records, ctx.budget.dop));
                digests.push(t.span("fig2.digest", |_| sinks_digest(&run.sinks)));
                run
            });
            traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            last = (
                run.sinks.values().map(Vec::len).sum(),
                run.physical.shuffle_bytes,
            );
        }
    }

    out.mark_peak_rss();

    // Gate: every run, a DoP-1 run, and the serial replay agree.
    let reference = sinks_digest(&run_once(&s.plan, s.records.clone(), 1).sinks);
    let replay = serial_replay(&s.plan, s.records.clone(), &mut tracer, 0);
    out.attempted += 2;
    out.check(
        sinks_digest(&replay) == reference,
        "DoP-1 run differs from the serial replay",
    );
    for (i, d) in digests.iter().enumerate() {
        out.check(
            *d == reference,
            &format!("run {i} at DoP {} differs from DoP 1", ctx.budget.dop),
        );
    }

    let sum = stats::Summary::of(&walls_ms, 90.0).expect("at least one run");
    let docs_per_s = docs as f64 / (sum.p50 / 1e3);
    out.e2e = Some(E2e {
        throughput_per_s: docs_per_s,
        latency_p50_ms: sum.p50,
        latency_tail_ms: sum.tail,
    });
    out.line(format!(
        "extract_docs_per_s = {docs_per_s:.3} docs/s ({docs} docs per run, DoP {})",
        ctx.budget.dop
    ));
    out.line(sum.line("run_wall", "ms"));

    if ctx.trace {
        let spans = tracer.spans();
        let b = Breakdown::of(spans);
        let runs = traced_ms.len() as f64;
        let mut layers = Layers::default();
        let replay_ms = b.prefix_self_ms("op.");
        layers.ops_scaled(&b, 1.0);
        let run_ms = b.self_ms("flow.run") / runs;
        layers.set("flow.run.ms", run_ms);
        layers.set("flow.runs", runs);
        layers.set("flow.records_in", docs as f64);
        layers.set("flow.records_out", last.0 as f64);
        layers.set(
            "flow.parallel_efficiency",
            replay_ms / (ctx.budget.dop as f64 * run_ms),
        );
        layers.set("flow.shuffle_bytes", last.1 as f64);
        let untraced = stats::median(&units_ms).unwrap_or(0.0);
        let traced = stats::median(&traced_ms).unwrap_or(0.0);
        layers.set("trace_overhead_frac", traced / untraced - 1.0);
        out.trace_check(spans, &mut layers);
        out.layers = Some(layers);
    }
    out
}
