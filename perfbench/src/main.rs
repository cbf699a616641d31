//! websift's end-to-end benchmark: crawl → extract → serve, one workload
//! per run, with a traced per-layer breakdown.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig2-batch|live-crawl|query-mix> --seed <n> \
//!     --seconds <s> --trace <0|1> --offered-qps <qps>
//! ```
//!
//! Run from the repository root. Report lines (prefixed `#`) name every
//! metric with its unit; the last line is one JSON object with `correct`,
//! `attempted`, `failed`, and `metrics` — the end-to-end metrics untraced,
//! the per-layer metrics traced. The exit code is non-zero when any
//! correctness gate fails. See `perfbench/README.md` for the workloads,
//! the metrics, and which layer each per-layer metric should move.

mod fig2;
mod live;
mod load;
mod query;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use trace::{check_consistency, Breakdown, Span};

pub const WORKLOADS: [&str; 3] = ["fig2-batch", "live-crawl", "query-mix"];

/// A run sets up at least `MIN_SETUPS` times, and again while the set-ups
/// so far took under `SETUP_BUDGET_S` (at most `MAX_SETUPS`); `setup_s` is
/// their median. Cheap set-ups repeat more, so their median spans seconds
/// of host time, as that of the costly ones does.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 50;
const SETUP_BUDGET_S: f64 = 5.0;

/// Operators of the plans the benchmark replays, each with its own
/// `op.<name>.ms`; a test checks that the list covers both plans.
const OPS: [&str; 21] = [
    "base.filter_length",
    "wa.detect_markup",
    "wa.repair_markup",
    "wa.extract_net_text",
    "dc.drop_untranscodable",
    "dc.filter_empty_text",
    "dc.normalize_whitespace",
    "ie.annotate_sentences",
    "ie.annotate_tokens",
    "ie.annotate_negation",
    "ie.annotate_pronouns",
    "ie.annotate_parentheses",
    "ie.annotate_pos",
    "ie.annotate_entities_dict_gene",
    "ie.annotate_entities_ml_gene",
    "ie.annotate_entities_dict_drug",
    "ie.annotate_entities_ml_drug",
    "ie.annotate_entities_dict_disease",
    "ie.annotate_entities_ml_disease",
    "dc.dedup_entities",
    "core.explode_tokens",
];

/// Every per-layer metric besides `op.*`, with its unit. Each traced run
/// reports all of them; a layer its workload does not exercise reads 0.
const LAYER_METRICS: [(&str, &str); 36] = [
    ("flow.run.ms", "ms"),
    ("flow.runs", "count"),
    ("flow.records_in", "count"),
    ("flow.records_out", "count"),
    ("flow.parallel_efficiency", "ratio"),
    ("flow.shuffle_bytes", "bytes"),
    ("crawler.step_round.ms", "ms"),
    ("crawler.pages_fetched", "count"),
    ("crawler.pages_accepted", "count"),
    ("crawler.harvest_rate", "ratio"),
    ("crawler.retries", "count"),
    ("store.ingest.ms", "ms"),
    ("store.ingest_records", "count"),
    ("store.postings", "count"),
    ("store.snapshot.ms", "ms"),
    ("store.snapshot_bytes", "bytes"),
    ("live.advance.ms", "ms"),
    ("live.crawl.ms", "ms"),
    ("live.delta.ms", "ms"),
    ("live.absorb.ms", "ms"),
    ("live.emit.ms", "ms"),
    ("live.seal.ms", "ms"),
    ("live.watermark_bytes", "bytes"),
    ("live.retained_keys", "count"),
    ("resilience.checkpoint.ms", "ms"),
    ("resilience.checkpoint_bytes", "bytes"),
    ("query.parse.us", "us"),
    ("query.execute.lookup.us", "us"),
    ("query.execute.cooccur.us", "us"),
    ("query.execute.stats.us", "us"),
    ("query.admission_wait.us", "us"),
    ("query.rejected", "count"),
    ("query.repeat_frac", "ratio"),
    ("query.gen_lag_us", "us"),
    ("trace.glue_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
];

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    OPS.iter()
        .map(|op| (format!("op.{op}.ms"), "ms"))
        .chain(LAYER_METRICS.iter().map(|(n, u)| (n.to_string(), *u)))
        .collect()
}

/// End-to-end metrics, the same five for every workload, with unit and
/// better-direction. What `throughput_per_s` and the latencies count
/// differs per workload; `perfbench/README.md` maps them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// Threads the load may use at once. Phases run one after another (crawl
/// fetch, then the delta pass; open loop, then closed loop), so the
/// largest of these is the process's concurrent load.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub fetch_threads: usize,
    pub dop: usize,
    pub clients: usize,
}

impl Budget {
    fn for_workload(workload: &str, nproc: usize) -> Budget {
        let (fetch_threads, dop, clients) = match workload {
            "fig2-batch" => (0, nproc, 0),
            "live-crawl" => (nproc, nproc, 0),
            _ => (0, nproc, nproc),
        };
        Budget {
            fetch_threads,
            dop,
            clients,
        }
    }

    fn load_max(&self) -> usize {
        self.fetch_threads.max(self.dop).max(self.clients)
    }
}

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub budget: Budget,
    pub offered_qps: f64,
}

pub struct E2e {
    pub throughput_per_s: f64,
    pub latency_p50_ms: f64,
    pub latency_tail_ms: f64,
}

/// Per-layer values of a traced run.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<String, f64>,
}

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// `op.<name>.ms` from the operator replay spans, scaled by `k`.
    pub fn ops_scaled(&mut self, b: &Breakdown, k: f64) {
        for name in b.self_ns.keys().filter(|n| n.starts_with("op.")) {
            *self.values.entry(format!("{name}.ms")).or_default() += b.self_ms(name) * k;
        }
    }
}

/// What a workload measured and checked.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: Vec<f64>,
    pub e2e: Option<E2e>,
    pub layers: Option<Layers>,
    pub mismatches: Vec<String>,
    pub lines: Vec<String>,
    /// Peak RSS once the measured phase is over, before the correctness
    /// gates add their own reference runs.
    pub peak_rss_mb: Option<Result<f64, String>>,
}

impl Outcome {
    pub fn new(setup_s: Vec<f64>) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            setup_s,
            e2e: None,
            layers: None,
            mismatches: Vec::new(),
            lines: Vec::new(),
            peak_rss_mb: None,
        }
    }

    pub fn mark_peak_rss(&mut self) {
        self.peak_rss_mb = Some(peak_rss_mb());
    }

    /// A correctness gate: a false `ok` is a failed operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failed += 1;
            self.mismatches.push(what.to_string());
        }
    }

    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    /// The trace's self-consistency gate; records its figures as layers.
    pub fn trace_check(&mut self, spans: &[Span], layers: &mut Layers) {
        let c = check_consistency(spans);
        layers.set("trace.glue_frac", c.glue_frac);
        self.line(format!(
            "trace: {} roots, {} inconsistent (nesting tolerance {}), glue {:.4} of root time (limit {})",
            c.roots,
            c.bad_roots,
            trace::NESTING_TOLERANCE,
            c.glue_frac,
            trace::GLUE_TOLERANCE
        ));
        self.check(c.ok(), "trace spans do not account for their roots");
    }
}

/// Whether a measurement loop should start another unit of work: until
/// `min_units` are done, and then while the run length lasts.
pub fn another_unit(started: Instant, seconds: f64, done: usize, min_units: usize) -> bool {
    done < min_units || started.elapsed().as_secs_f64() < seconds
}

/// Runs the set-up `f` as often as the set-up rule above says; returns
/// each set-up's seconds and the last result.
pub fn timed<T>(mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut secs: Vec<f64> = Vec::new();
    let mut last = None;
    while secs.len() < MIN_SETUPS
        || (secs.iter().sum::<f64>() < SETUP_BUDGET_S && secs.len() < MAX_SETUPS)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        secs.push(t.elapsed().as_secs_f64());
    }
    (secs, last.expect("at least one set-up"))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    offered_qps: f64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        kv.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<f64, String> {
        let v: f64 = get(k)?
            .parse()
            .map_err(|_| format!("--{k} is not a number"))?;
        if v.is_finite() && v > 0.0 {
            Ok(v)
        } else {
            Err(format!("--{k} must be positive"))
        }
    };
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}'; expected one of {WORKLOADS:?}"
        ));
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    if let Some(k) = kv
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace", "offered-qps"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{k}"));
    }
    Ok(Args {
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed must be an unsigned integer".to_string())?,
        seconds: num("seconds")?,
        offered_qps: num("offered-qps")?,
        workload,
        trace,
    })
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The checked-out commit, read from `.git` without running git; a
/// source export has none.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        None => "none".into(),
        Some(head) => match head.strip_prefix("ref: ") {
            None => head,
            Some(r) => read(&format!(".git/{r}"))
                .or_else(|| {
                    read(".git/packed-refs")?
                        .lines()
                        .find(|l| l.ends_with(r))
                        .map(|l| l.split(' ').next().unwrap_or_default().to_string())
                })
                .unwrap_or_else(|| "unknown".into()),
        },
    }
}

/// Digest over the program's sources (the crates and the root
/// manifests), identifying the code measured when there is no git
/// revision.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut acc = 0u64;
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            acc = load::fold_digest(
                acc,
                websift_resilience::codec::digest(f.to_string_lossy().as_bytes()),
            );
            acc = load::fold_digest(acc, websift_resilience::codec::digest(&bytes));
        }
    }
    acc
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("websift-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let budget = Budget::for_workload(&args.workload, nproc);
    assert!(
        budget.load_max() <= nproc,
        "load uses {} threads at once but the host has {nproc}",
        budget.load_max()
    );
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        budget,
        offered_qps: args.offered_qps,
    };
    println!(
        "# stamp: workload={} seed={} seconds={} trace={} nproc={nproc} git_revision={} \
         source_digest={:016x} fetch_threads={} dop={} clients={} load_threads_max={} \
         offered_qps={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_revision(),
        source_digest(),
        budget.fetch_threads,
        budget.dop,
        budget.clients,
        budget.load_max(),
        args.offered_qps,
    );

    let mut out = match args.workload.as_str() {
        "fig2-batch" => fig2::run(&ctx),
        "live-crawl" => live::run(&ctx),
        _ => query::run(&ctx),
    };

    let setup_s = stats::median(&out.setup_s).expect("set-up ran");
    let rss = match out
        .peak_rss_mb
        .clone()
        .expect("workload marks its peak RSS")
    {
        Ok(v) => v,
        Err(e) => {
            eprintln!("websift-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if ctx.trace {
        let layers = out.layers.take().expect("traced workloads report layers");
        for (name, unit) in per_layer_metrics() {
            let v = layers.values.get(&name).copied().unwrap_or(0.0);
            metrics.push((name, v, unit));
        }
    } else {
        let e = out
            .e2e
            .as_ref()
            .expect("untraced workloads report end-to-end metrics");
        let values = [
            setup_s,
            rss,
            e.throughput_per_s,
            e.latency_p50_ms,
            e.latency_tail_ms,
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name.to_string(), v, unit));
        }
    }
    for (name, v, _) in &metrics {
        out.check(
            v.is_finite(),
            &format!("metric {name} is not a finite number"),
        );
    }

    out.line(format!(
        "setup_s = {setup_s:.4} s (median of {} set-ups: {:?})",
        out.setup_s.len(),
        out.setup_s
    ));
    out.line(format!("peak_rss_mb = {rss:.1} MB"));
    out.line(format!(
        "failed_frac = {} ({} failed of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    ));
    for m in &out.mismatches {
        out.lines.push(format!("CORRECTNESS FAILURE: {m}"));
    }
    for l in &out.lines {
        println!("# {l}");
    }
    for (name, v, unit) in &metrics {
        println!("# {name} = {v} {unit}");
    }
    let correct = out.mismatches.is_empty() && out.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                if v.is_finite() { *v } else { 0.0 }
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use websift_corpus::LexiconScale;
    use websift_flow::IeResources;
    use websift_live::IncrementalFlow;
    use websift_ner::EntityType;
    use websift_pipeline::flows::{full_analysis_plan, live_extraction_flow};

    /// BENCHMARK.json must list exactly the metrics the program prints.
    #[test]
    fn benchmark_json_lists_every_metric_the_program_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let metrics: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .chain(per_layer_metrics())
            .collect();
        for (name, unit) in &metrics {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("\"better\"").count(), metrics.len());
        for w in WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{w}\", \"why\"")),
                "workload {w}"
            );
        }
    }

    /// Every operator the benchmark replays has its own `op.*` metric.
    #[test]
    fn operator_metrics_cover_the_replayed_plans() {
        let resources = IeResources::quick_for_tests(LexiconScale::tiny());
        let live = IncrementalFlow::compile(
            &live_extraction_flow(&resources, EntityType::Gene, "live"),
            false,
        )
        .expect("live plan compiles");
        for plan in [&full_analysis_plan(&resources), live.delta_plan()] {
            for op in plan.operators() {
                assert!(
                    OPS.contains(&op.name.as_str()),
                    "no op metric for {}",
                    op.name
                );
            }
        }
    }

    #[test]
    fn load_never_exceeds_the_host() {
        for nproc in 1..=8 {
            for w in WORKLOADS {
                let b = Budget::for_workload(w, nproc);
                assert!(b.load_max() <= nproc && b.dop >= 1, "{w} at {nproc}: {b:?}");
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload live-crawl --seed 7 --seconds 10 --trace 1 --offered-qps 22000",
        ))
        .expect("valid arguments");
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.trace),
            ("live-crawl", 7, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0 --offered-qps 1",
            "--workload query-mix --seed -1 --seconds 1 --trace 0 --offered-qps 1",
            "--workload query-mix --seed 1 --seconds 0 --trace 0 --offered-qps 1",
            "--workload query-mix --seed 1 --seconds 1 --trace 2 --offered-qps 1",
            "--workload query-mix --seed 1 --seconds 1 --trace 0",
            "--workload query-mix --seed 1 --seconds 1 --trace 0 --offered-qps 1 --extra 3",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
