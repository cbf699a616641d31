//! `live-crawl`: one `LiveSession` advanced round by round until the
//! crawl ends, repeated for the run length. Many small delta passes
//! through the same `flow` layer as `fig2-batch`, plus the crawler,
//! store writes, the retained `count_by` reduce, and the watermark seal.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use websift_corpus::{CorpusKind, Document, Lexicon, LexiconScale, SearchCategory};
use websift_crawler::{
    default_engines, generate_seeds, train_focus_classifier, CrawlConfig, CrawlSession,
    CrawledPage, FocusedCrawler, NaiveBayes, ResilienceOptions,
};
use websift_flow::{
    ExecutionConfig, Executor, IeConfig, IeResources, LogicalPlan, Record, StoreSink,
};
use websift_live::{
    IncrementalFlow, LiveMetrics, LiveOptions, LiveSession, Watermark, WatermarkParts,
};
use websift_ner::EntityType;
use websift_observe::{Labels, Observer};
use websift_pipeline::documents_to_records;
use websift_pipeline::flows::{live_extraction_flow, run_over_documents_into};
use websift_serve::{ExtractionStore, StoreSnapshot};
use websift_web::{SimulatedWeb, Url, WebGraph, WebGraphConfig};

use crate::load::splitmix64;
use crate::trace::{Breakdown, Tracer};
use crate::{another_unit, fig2, stats, timed, Ctx, E2e, Layers, Outcome};

const STORE: &str = "live";
const STORE_SHARDS: usize = 4;
/// Pages the crawl may fetch; bounds a session to a few seconds.
const MAX_PAGES: usize = 800;
/// Pages per round's fetch list: small, so a session has enough rounds
/// that ten or more lie above its p90.
const FETCH_LIST: usize = 12;
/// Search queries drawn per seed to build the seed URL list.
const SEED_QUERIES: usize = 200;

struct Setup {
    web: SimulatedWeb,
    seeds: Vec<Url>,
    classifier: NaiveBayes,
    plan: LogicalPlan,
}

fn setup(seed: u64) -> Setup {
    let lexicon = Arc::new(Lexicon::generate(LexiconScale::default_scale()));
    let resources = IeResources::standard(&lexicon, IeConfig::default());
    let web = SimulatedWeb::new(WebGraph::generate(WebGraphConfig::default()));
    // The workload seed picks which biomedical search terms seed the
    // crawl; the web itself is the default graph.
    let mut terms: Vec<String> = lexicon
        .search_terms(SearchCategory::General, 40)
        .into_iter()
        .chain(lexicon.search_terms(SearchCategory::Disease, 300))
        .chain(lexicon.search_terms(SearchCategory::Gene, 400))
        .map(|t| t.to_lowercase())
        .collect();
    let queries: Vec<String> = (0..SEED_QUERIES as u64)
        .map(|i| terms.swap_remove((splitmix64(seed ^ i) % terms.len() as u64) as usize))
        .collect();
    let seeds = generate_seeds(&web, &mut default_engines(&web), &queries).urls;
    Setup {
        seeds,
        classifier: train_focus_classifier(300, 4.0, 77),
        plan: live_extraction_flow(&resources, EntityType::Gene, STORE),
        web,
    }
}

fn crawl_config(ctx: &Ctx) -> CrawlConfig {
    CrawlConfig {
        max_pages: MAX_PAGES,
        fetch_list_total: FETCH_LIST,
        threads: ctx.budget.fetch_threads,
        ..CrawlConfig::default()
    }
}

/// What one session left behind.
struct Session {
    walls_ms: Vec<f64>,
    /// (round id, new documents) of each round.
    rounds: Vec<(u32, usize)>,
    /// Digest of each round's sealed watermark.
    watermarks: Vec<u64>,
    /// Relevant pages of the whole crawl; kept for the first session
    /// only, whose batch recompute is the gate, so that peak memory does
    /// not grow with the number of sessions a run fits in.
    relevant: Vec<CrawledPage>,
    final_digest: u64,
}

impl Session {
    fn docs(&self) -> usize {
        self.rounds.iter().map(|r| r.1).sum()
    }
}

fn untraced_session(s: &Setup, ctx: &Ctx) -> Session {
    let mut session = LiveSession::start(
        &s.web,
        s.classifier.clone(),
        crawl_config(ctx),
        s.seeds.clone(),
        &ResilienceOptions::default(),
        &s.plan,
        ExtractionStore::new(STORE, STORE_SHARDS),
        LiveOptions {
            dop: ctx.budget.dop,
            ..LiveOptions::default()
        },
        Arc::new(Observer::new()),
    )
    .expect("live plan compiles");
    let mut walls_ms = Vec::new();
    let mut rounds = Vec::new();
    let mut watermarks = Vec::new();
    loop {
        let t = Instant::now();
        let Some(round) = session.advance().expect("live round advances") else {
            break;
        };
        walls_ms.push(t.elapsed().as_secs_f64() * 1e3);
        rounds.push((round.round, round.new_documents));
        watermarks.push(round.watermark.digest());
    }
    Session {
        walls_ms,
        rounds,
        watermarks,
        relevant: session.crawl().report().relevant.clone(),
        final_digest: session.store().content_digest(),
    }
}

/// Batch recompute over the cumulative crawl: every round's slice of
/// relevant pages through the original plan, stamped with its round, into
/// a fresh store — the oracle the live-execution harness uses.
fn recompute_digest(plan: &LogicalPlan, session: &Session, dop: usize) -> u64 {
    let docs: Vec<Document> = session
        .relevant
        .iter()
        .enumerate()
        .map(|(i, p)| page_doc(i, p))
        .collect();
    let mut store = ExtractionStore::new(STORE, STORE_SHARDS);
    let mut cursor = 0;
    for &(round, n) in &session.rounds {
        store.set_round(round);
        run_over_documents_into(plan, &docs[cursor..cursor + n], dop, &mut store)
            .expect("batch recompute runs");
        cursor += n;
    }
    store.content_digest()
}

fn page_doc(id: usize, p: &CrawledPage) -> Document {
    Document {
        id: id as u64,
        kind: CorpusKind::RelevantWeb,
        url: Some(p.url.to_string()),
        title: String::new(),
        body: p.net_text.clone(),
        html: None,
        gold: Default::default(),
    }
}

/// A `StoreSink` that times each `append` into the store as a span.
struct TimedStore<'a> {
    store: &'a mut ExtractionStore,
    tracer: &'a mut Tracer,
    records: &'a mut u64,
}

impl StoreSink for TimedStore<'_> {
    fn store_name(&self) -> &str {
        self.store.name()
    }

    fn append(&mut self, dataset: &str, records: Vec<Record>) {
        *self.records += records.len() as u64;
        let store = &mut *self.store;
        self.tracer
            .span("store.ingest", |_| store.append(dataset, records));
    }
}

/// Counters and end-of-session state the traced replay collects beside
/// its spans.
#[derive(Default)]
struct ReplayStats {
    records_in: u64,
    records_out: u64,
    ingest_records: u64,
    shuffle_bytes: u64,
    checkpoint_bytes: usize,
    snapshot_bytes: usize,
    watermark_bytes: usize,
    /// Digest of each round's sealed watermark.
    watermarks: Vec<u64>,
    pages_fetched: u64,
    pages_accepted: u64,
    retries: u64,
    postings: u64,
    retained_keys: u64,
}

/// A round's figures for [`emit_round`].
struct RoundFigures {
    round_id: u32,
    new_documents: usize,
    delta_records: usize,
    crawl_t0: f64,
    crawl_secs: f64,
    delta_secs: f64,
}

/// What `LiveSession::advance` records in its observer after each round,
/// through the same public registry and tracer calls, names and labels.
/// The crawl checkpoint snapshots the registry, so these entries are part
/// of every sealed watermark that follows.
fn emit_round(obs: &Observer, r: &RoundFigures, metrics: &LiveMetrics, store: &ExtractionStore) {
    let round_label = r.round_id.to_string();
    let labels = Labels::new(&[("round", &round_label)]);
    obs.tracer()
        .span("live.crawl", r.crawl_t0, r.crawl_secs, labels.clone());
    obs.tracer().span(
        "live.delta",
        r.crawl_t0 + r.crawl_secs,
        r.delta_secs,
        labels,
    );
    let none = Labels::empty();
    obs.registry().counter("live.rounds", &none).inc();
    obs.registry()
        .counter("live.new_documents", &none)
        .add(r.new_documents as u64);
    obs.registry()
        .counter("live.delta_records", &none)
        .add(r.delta_records as u64);
    obs.registry()
        .gauge("live.round", &none)
        .set(f64::from(r.round_id));
    obs.registry()
        .gauge("live.retained_keys", &none)
        .set(metrics.retained_keys as f64);
    obs.registry()
        .gauge("live.freshness_secs", &none)
        .set(metrics.freshness_secs);
    obs.registry()
        .gauge("live.store_postings", &none)
        .set(store.posting_count() as f64);
    obs.registry()
        .histogram("live.round_freshness_secs", &none)
        .record(metrics.freshness_secs);
}

/// `LiveSession::advance` replayed step by step through the public
/// crawler, flow, store, observer, and watermark calls, with a span
/// around each. After each round, outside its span, the round's delta
/// plan is also replayed operator by operator.
fn traced_session(s: &Setup, ctx: &Ctx, tracer: &mut Tracer) -> ReplayStats {
    let observer = Arc::new(Observer::new());
    let crawler = FocusedCrawler::new(&s.web, s.classifier.clone(), crawl_config(ctx))
        .with_observer(observer.clone());
    let mut crawl = CrawlSession::start(crawler, s.seeds.clone(), &ResilienceOptions::default());
    let mut flow = IncrementalFlow::compile(&s.plan, false).expect("live plan compiles");
    let mut store = ExtractionStore::new(STORE, STORE_SHARDS);
    let mut metrics = LiveMetrics::default();
    let mut st = ReplayStats::default();
    let mut round = 0u32;
    loop {
        let mark = tracer.len();
        let id = u64::from(round + 1);
        let docs = tracer.root("live.advance", id, |t| {
            let crawl_secs_before = crawl.report().simulated_secs;
            let docs: Vec<Document> = t.span("live.crawl", |t| {
                let offset = crawl.drained_relevant();
                t.span("crawler.step_round", |_| crawl.step_round());
                let (relevant, _) = crawl.take_new_pages();
                relevant
                    .iter()
                    .enumerate()
                    .map(|(i, p)| page_doc(offset + i, p))
                    .collect()
            });
            if docs.is_empty() && crawl.is_done() {
                return None;
            }
            let round_id = round + 1;
            let crawl_delta_secs = crawl.report().simulated_secs - crawl_secs_before;
            let mut out = t.span("live.delta", |t| {
                let records = documents_to_records(&docs);
                st.records_in += records.len() as u64;
                let inputs = HashMap::from([(flow.source().to_string(), records)]);
                store.set_round(round_id);
                let executor = Executor::new(ExecutionConfig::local(ctx.budget.dop));
                let plan = flow.delta_plan();
                let mut ingested = 0u64;
                let out = t.span("flow.run", |t| {
                    let mut sink = TimedStore {
                        store: &mut store,
                        tracer: t,
                        records: &mut ingested,
                    };
                    executor
                        .run_into(plan, inputs, &mut sink)
                        .expect("delta pass runs")
                });
                st.ingest_records += ingested;
                st.records_out +=
                    ingested + out.sinks.values().map(|v| v.len() as u64).sum::<u64>();
                st.shuffle_bytes += out.physical.shuffle_bytes;
                out
            });
            let absorbed = t.span("live.absorb", |_| {
                let retained: Vec<String> = flow
                    .retained_sinks()
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
                let mut absorbed = 0usize;
                for sink in &retained {
                    if let Some(stream) = out.sinks.remove(sink) {
                        absorbed += flow.absorb(sink, stream).expect("retained reduce absorbs");
                    }
                }
                absorbed
            });
            metrics.rounds = round_id;
            metrics.new_documents += docs.len() as u64;
            metrics.delta_records += absorbed as u64;
            metrics.incremental_cost_secs += out.metrics.simulated_secs;
            metrics.crawl_cost_secs += crawl_delta_secs;
            metrics.freshness_secs = crawl_delta_secs + out.metrics.simulated_secs;
            metrics.retained_keys = flow.retained_keys() as u64;
            let figures = RoundFigures {
                round_id,
                new_documents: docs.len(),
                delta_records: absorbed,
                crawl_t0: crawl_secs_before,
                crawl_secs: crawl_delta_secs,
                delta_secs: out.metrics.simulated_secs,
            };
            t.span("live.emit", |_| {
                emit_round(&observer, &figures, &metrics, &store)
            });
            t.span("live.seal", |t| {
                let checkpoint = t.span("resilience.checkpoint", |_| crawl.checkpoint());
                let snapshot = t.span("store.snapshot", |_| StoreSnapshot::capture(&store));
                let store_digest = store.content_digest();
                let watermark = Watermark::seal(&WatermarkParts {
                    rounds: round_id,
                    crawl_round: checkpoint.round,
                    frontier_digest: crawl.state_digest(),
                    crawl_frame: checkpoint.as_bytes().to_vec(),
                    agg_state: flow.state_bytes(),
                    store_frame: snapshot.as_bytes().to_vec(),
                    store_digest,
                    metrics: metrics.clone(),
                });
                st.checkpoint_bytes = checkpoint.as_bytes().len();
                st.snapshot_bytes = snapshot.size_bytes();
                st.watermark_bytes = watermark.size_bytes();
                st.watermarks.push(watermark.digest());
            });
            Some(docs)
        });
        let Some(docs) = docs else {
            tracer.truncate(mark);
            break;
        };
        round += 1;
        fig2::serial_replay(flow.delta_plan(), documents_to_records(&docs), tracer, id);
    }
    let report = crawl.report();
    st.pages_fetched = report.filter_stats.seen;
    st.pages_accepted = report.relevant.len() as u64;
    st.retries = report.resilience.retries_scheduled;
    st.postings = store.posting_count();
    st.retained_keys = metrics.retained_keys;
    st
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (setup_s, s) = timed(|| setup(ctx.seed));
    let mut out = Outcome::new(setup_s);
    let started = Instant::now();
    let mut sessions: Vec<Session> = Vec::new();
    let mut tracer = Tracer::new(started);
    let mut traced: Vec<ReplayStats> = Vec::new();
    while another_unit(started, ctx.seconds, sessions.len(), 1) {
        let mut session = untraced_session(&s, ctx);
        if !sessions.is_empty() {
            session.relevant = Vec::new();
        }
        out.attempted += session.rounds.len() as u64;
        sessions.push(session);
        if ctx.trace {
            traced.push(traced_session(&s, ctx, &mut tracer));
        }
    }

    out.mark_peak_rss();

    // Gates: the first session's final store equals a batch recompute
    // over its cumulative crawl, and every session — untraced or the
    // traced replay — seals the same watermark bytes round by round (the
    // watermark holds the store digest, the crawl checkpoint with the
    // observer registry, and the retained reduce state).
    let first = &sessions[0];
    out.attempted += 1;
    out.check(
        recompute_digest(&s.plan, first, ctx.budget.dop) == first.final_digest,
        "live store differs from the batch recompute over the cumulative crawl",
    );
    for (i, session) in sessions.iter().enumerate().skip(1) {
        out.check(
            session.watermarks == first.watermarks,
            &format!("session {i} watermarks differ from session 0's"),
        );
    }
    for (i, st) in traced.iter().enumerate() {
        out.attempted += st.watermarks.len() as u64;
        out.check(
            st.watermarks == first.watermarks,
            &format!("traced replay {i} watermarks differ from LiveSession's"),
        );
    }

    let walls: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.walls_ms.iter().copied())
        .collect();
    let docs: usize = sessions.iter().map(Session::docs).sum();
    let total_s: f64 = walls.iter().sum::<f64>() / 1e3;
    let sum = stats::Summary::of(&walls, 90.0).expect("a round");
    let docs_per_s = docs as f64 / total_s;
    out.e2e = Some(E2e {
        throughput_per_s: docs_per_s,
        latency_p50_ms: sum.p50,
        latency_tail_ms: sum.tail,
    });
    out.line(format!(
        "live_docs_per_s = {docs_per_s:.3} docs/s ({docs} relevant docs over {} sessions of {} rounds)",
        sessions.len(),
        first.rounds.len()
    ));
    out.line(sum.line("round", "ms"));

    if ctx.trace {
        let spans = tracer.spans();
        let b = Breakdown::of(spans);
        let n = traced.len() as f64;
        let mut layers = Layers::default();
        // Per-session figures: span totals over all traced sessions,
        // divided by the number of sessions.
        for name in [
            "live.crawl",
            "live.delta",
            "live.absorb",
            "live.emit",
            "live.seal",
            "crawler.step_round",
            "flow.run",
            "store.ingest",
            "store.snapshot",
            "resilience.checkpoint",
        ] {
            layers.set(&format!("{name}.ms"), b.self_ms(name) / n);
        }
        layers.set("live.advance.ms", b.root_ms("live.advance") / n);
        layers.ops_scaled(&b, 1.0 / n);
        let op_ms = b.prefix_self_ms("op.") / n;
        let st = traced.last().expect("a traced session");
        layers.set("flow.runs", st.watermarks.len() as f64);
        layers.set("flow.records_in", st.records_in as f64);
        layers.set("flow.records_out", st.records_out as f64);
        layers.set("flow.shuffle_bytes", st.shuffle_bytes as f64);
        layers.set(
            "flow.parallel_efficiency",
            op_ms / (ctx.budget.dop as f64 * b.self_ms("flow.run") / n),
        );
        layers.set("crawler.pages_fetched", st.pages_fetched as f64);
        layers.set("crawler.pages_accepted", st.pages_accepted as f64);
        layers.set(
            "crawler.harvest_rate",
            st.pages_accepted as f64 / st.pages_fetched.max(1) as f64,
        );
        layers.set("crawler.retries", st.retries as f64);
        layers.set("store.ingest_records", st.ingest_records as f64);
        layers.set("store.postings", st.postings as f64);
        layers.set("store.snapshot_bytes", st.snapshot_bytes as f64);
        layers.set("live.watermark_bytes", st.watermark_bytes as f64);
        layers.set("live.retained_keys", st.retained_keys as f64);
        layers.set("resilience.checkpoint_bytes", st.checkpoint_bytes as f64);
        // Overhead: traced rounds against `LiveSession::advance` calls.
        let untraced: Vec<f64> = sessions.iter().map(|s| s.walls_ms.iter().sum()).collect();
        layers.set(
            "trace_overhead_frac",
            b.root_ms("live.advance") / n / stats::mean(&untraced) - 1.0,
        );
        out.trace_check(spans, &mut layers);
        out.layers = Some(layers);
    }
    out
}
