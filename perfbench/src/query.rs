//! `query-mix`: reads against a store built in setup. Query strings are
//! generated from the seed over the store's own vocabulary with
//! Zipf-skewed entity popularity, and each goes through `parse_query` →
//! `AdmissionController::admit_blocking` → `QueryEngine::execute`. An
//! open-loop phase at a fixed offered rate gives latency from each
//! query's due time; a closed-loop phase then finds the saturation rate.

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use std::time::Instant;

use websift_corpus::{CorpusKind, Generator, Lexicon, LexiconScale};
use websift_flow::cluster::ClusterSpec;
use websift_flow::{IeConfig, IeResources};
use websift_ner::EntityType;
use websift_observe::Observer;
use websift_pipeline::flows::{entity_store_flow, run_over_documents_into};
use websift_resilience::codec::digest;
use websift_serve::{parse_query, AdmissionController, ExtractionStore, QueryEngine};

use crate::load::{fold_digest, open_loop, splitmix64, unit, Clock, Timing, WallClock, Zipf};
use crate::trace::{Breakdown, Tracer};
use crate::{stats, timed, Ctx, E2e, Layers, Outcome};

const STORE: &str = "serve";
const STORE_SHARDS: usize = 4;
/// The store's corpus is fixed; only the query stream follows the seed.
const STORE_CORPUS_SEED: u64 = 0x5E4E_C0DE;
const STORE_CORPUS: [(CorpusKind, usize); 3] = [
    (CorpusKind::RelevantWeb, 20),
    (CorpusKind::Medline, 1200),
    (CorpusKind::Pmc, 20),
];
/// Popularity skew of entities in the query stream.
const ZIPF_EXPONENT: f64 = 1.0;
const POPULARITY_SALT: u64 = 0x0070_0B1A_8171_7E5A;
/// The serving cluster the admission controller models: 4 nodes of 16
/// cores and 16 GB, 64 MB per in-flight query.
const CLUSTER: (usize, u64, usize) = (4, 16, 16);
const QUERY_MEMORY_BYTES: u64 = 64 << 20;
/// Share of the run spent in the open-loop phase; the rest saturates.
const OPEN_SHARE: f64 = 0.6;
/// Open/closed cycles a run is cut into.
const WINDOWS: usize = 15;
/// Clients of the closed-loop windows. On the parent commit two clients
/// on a 2-vCPU host served no more queries than one (42 000 against
/// 44 000 queries/s over the same six seeds): each `execute` records into
/// the observer registry under one mutex, which serialises them. The
/// second client added only the noise of that contention: the rate
/// spread 0.15 to 0.26 over ten-seed sets, where the most a bound may be
/// is 0.25, and 0.07 to 0.16 with one client. Once queries stop
/// serialising, `nproc` clients become the saturation measure again.
const CLOSED_CLIENTS: usize = 1;
const DIGEST_SEED: u64 = 0x5EED_BA5E_D16E_5715;

/// Query strings as a pure function of `(seed, stream, index)`.
pub struct QueryGen {
    seed: u64,
    /// Entities in popularity order, most popular first.
    entities: Vec<String>,
    corpora: Vec<String>,
    zipf: Zipf,
}

impl QueryGen {
    /// `entities` must come most popular first. The seed picks only the
    /// stream: every seed asks about the same hot entities, so the work
    /// per query does not hinge on which entities a seed made popular.
    pub fn new(entities: Vec<String>, corpora: Vec<String>, seed: u64) -> QueryGen {
        assert!(
            !entities.is_empty() && !corpora.is_empty(),
            "store has no query vocabulary"
        );
        let zipf = Zipf::new(entities.len(), ZIPF_EXPONENT);
        QueryGen {
            seed,
            entities,
            corpora,
            zipf,
        }
    }

    pub fn query(&self, stream: u64, i: usize) -> String {
        let h = splitmix64(splitmix64(self.seed ^ stream.rotate_left(40)) ^ i as u64);
        let mix = |salt: u64| splitmix64(h ^ salt);
        let ent = |salt: u64| &self.entities[self.zipf.rank(unit(mix(salt)))];
        let corp = |salt: u64| &self.corpora[(mix(salt) % self.corpora.len() as u64) as usize];
        match mix(0) % 10 {
            0..=2 => format!("lookup {}", ent(1)),
            3 => format!("lookup {} in {}", ent(1), corp(2)),
            4 => format!("lookup {} round {}", ent(1), mix(3) % 2),
            5 => format!("cooccur {} {}", ent(1), ent(2)),
            6 => format!("cooccur {} {} in {}", ent(1), ent(2), corp(3)),
            7 => format!("stats {}", ent(1)),
            8 => format!("stats {} top {}", ent(1), 1 + mix(3) % 5),
            _ => format!("stats {} in {} round {}", ent(1), corp(2), mix(3) % 2),
        }
    }
}

struct Setup {
    store: ExtractionStore,
    gen: QueryGen,
    ctl: AdmissionController,
}

fn setup(ctx: &Ctx) -> Setup {
    let lexicon = Arc::new(Lexicon::generate(LexiconScale::default_scale()));
    let resources = IeResources::standard(&lexicon, IeConfig::default());
    let mut rounds: [Vec<_>; 2] = [Vec::new(), Vec::new()];
    for (kind, n) in STORE_CORPUS {
        let docs = Generator::with_lexicon(kind, STORE_CORPUS_SEED ^ kind as u64, lexicon.clone())
            .documents(n);
        let (a, b) = docs.split_at(n / 2);
        rounds[0].extend_from_slice(a);
        rounds[1].extend_from_slice(b);
    }
    let mut store = ExtractionStore::new(STORE, STORE_SHARDS);
    for entity in EntityType::all() {
        let plan = entity_store_flow(&resources, entity, STORE);
        for (round, docs) in rounds.iter().enumerate() {
            store.set_round(round as u32);
            run_over_documents_into(&plan, docs, ctx.budget.dop, &mut store)
                .expect("store ingest runs");
        }
    }
    let mut entities = BTreeSet::new();
    let mut corpora = BTreeSet::new();
    for (key, _) in store.iter() {
        if !key.entity.is_empty() && !key.entity.contains(char::is_whitespace) {
            entities.insert(key.entity.as_str());
        }
        if !key.corpus.is_empty() && !key.corpus.contains(char::is_whitespace) {
            corpora.insert(key.corpus.clone());
        }
    }
    // Popularity rank is a fixed hash order of the names: unrelated to
    // how often the store mentions an entity, and the same for every seed.
    let mut entities: Vec<&str> = entities.into_iter().collect();
    entities.sort_by_key(|e| (splitmix64(digest(e.as_bytes()) ^ POPULARITY_SALT), *e));
    let entities = entities.into_iter().map(str::to_string).collect();
    let gen = QueryGen::new(entities, corpora.into_iter().collect(), ctx.seed);
    let (nodes, ram_gb, cores) = CLUSTER;
    let ctl =
        AdmissionController::new(ClusterSpec::local(nodes, ram_gb, cores), QUERY_MEMORY_BYTES)
            .expect("one query fits the serving cluster");
    Setup { store, gen, ctl }
}

/// One query end to end; returns its response digest, or `None` when it
/// was refused.
fn serve_one(
    engine: &QueryEngine<'_>,
    ctl: Option<&AdmissionController>,
    text: &str,
    seq: u64,
    tracer: Option<&mut Tracer>,
) -> Option<u64> {
    match tracer {
        None => {
            let query = parse_query(text).ok()?;
            let permit = ctl.map(AdmissionController::admit_blocking);
            let response = engine.execute(&query, seq as f64);
            drop(permit);
            Some(response.digest())
        }
        Some(t) => t.root("query", seq, |t| {
            let query = t.span("query.parse", |_| parse_query(text)).ok()?;
            let permit = t.span("query.admission_wait", |_| {
                ctl.map(AdmissionController::admit_blocking)
            });
            let kind = format!("query.execute.{}", query.kind());
            let response = t.span(&kind, |_| engine.execute(&query, seq as f64));
            drop(permit);
            Some(response.digest())
        }),
    }
}

/// What one client thread did in one phase.
#[derive(Default)]
struct ClientRun {
    stream: u64,
    issued: usize,
    refused: u64,
    digest: u64,
    timings: Vec<Timing>,
    end_ns: u64,
}

fn seq_of(stream: u64, i: usize) -> u64 {
    (stream << 40) | i as u64
}

/// Streams `stream_base + c` for client `c`. With `interval_ns`, each
/// client runs open-loop on its own staggered schedule; without, it
/// sends back to back. Either way the phase ends at `end_ns`.
#[allow(clippy::too_many_arguments)]
fn phase(
    s: &Setup,
    engine: &QueryEngine<'_>,
    clock: WallClock,
    clients: usize,
    stream_base: u64,
    start_ns: u64,
    end_ns: u64,
    interval_ns: Option<u64>,
    traced: bool,
) -> (Vec<ClientRun>, Option<Tracer>) {
    let results: Vec<(ClientRun, Option<Tracer>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let stream = stream_base + c as u64;
                    let mut tracer = traced.then(|| Tracer::new(clock.epoch));
                    let mut run = ClientRun {
                        stream,
                        digest: splitmix64(DIGEST_SEED ^ stream),
                        ..ClientRun::default()
                    };
                    let mut issue = |i: usize| {
                        let text = s.gen.query(stream, i);
                        match serve_one(
                            engine,
                            Some(&s.ctl),
                            &text,
                            seq_of(stream, i),
                            tracer.as_mut(),
                        ) {
                            Some(d) => run.digest = fold_digest(run.digest, d),
                            None => run.refused += 1,
                        }
                    };
                    let (timings, issued) = match interval_ns {
                        Some(interval) => {
                            let first = start_ns + c as u64 * interval / clients as u64;
                            let timings = open_loop(&clock, first, interval, end_ns, &mut issue);
                            let n = timings.len();
                            (timings, n)
                        }
                        None => {
                            clock.wait_until(start_ns);
                            let mut i = 0;
                            while clock.now_ns() < end_ns {
                                issue(i);
                                i += 1;
                            }
                            (Vec::new(), i)
                        }
                    };
                    run.issued = issued;
                    run.timings = timings;
                    run.end_ns = clock.now_ns();
                    (run, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query client"))
            .collect()
    });
    let mut merged: Option<Tracer> = traced.then(|| Tracer::new(clock.epoch));
    let mut runs = Vec::new();
    for (run, tracer) in results {
        if let (Some(m), Some(t)) = (merged.as_mut(), tracer) {
            m.merge(t);
        }
        runs.push(run);
    }
    (runs, merged)
}

/// Serial replay without threads or admission: each client's stream
/// re-executed in order must fold to the same digest.
fn replay_matches(s: &Setup, engine: &QueryEngine<'_>, run: &ClientRun) -> bool {
    let mut digest = splitmix64(DIGEST_SEED ^ run.stream);
    for i in 0..run.issued {
        let text = s.gen.query(run.stream, i);
        match serve_one(engine, None, &text, seq_of(run.stream, i), None) {
            Some(d) => digest = fold_digest(digest, d),
            None => return false,
        }
    }
    digest == run.digest
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (setup_s, s) = timed(|| setup(ctx));
    let mut out = Outcome::new(setup_s);
    let observer = Observer::new();
    let engine = QueryEngine::new(&s.store, &observer);
    let clients = ctx.budget.clients;
    let clock = WallClock {
        epoch: Instant::now(),
    };
    let interval_ns = (clients as f64 * 1e9 / ctx.offered_qps).round().max(1.0) as u64;
    let ns = |secs: f64| (secs * 1e9) as u64;
    // Threads start a little after the schedule is fixed, so the first
    // due times are not already late.
    let lead = ns(0.01);

    // The run alternates short open- and closed-loop windows, each with
    // freshly spawned clients, so one window's thread placement or a
    // burst of interference on the host moves only that window.
    // Traced runs split each cycle into a traced open window and an
    // untraced and a traced closed window, for the tracing overhead.
    let cycle_s = ctx.seconds / WINDOWS as f64;
    let shares = if ctx.trace {
        [0.5, 0.25, 0.25]
    } else {
        [OPEN_SHARE, 1.0 - OPEN_SHARE, 0.0]
    };
    let mut tracer = Tracer::new(clock.epoch);
    let mut next_stream = 0u64;
    let mut all_runs: Vec<ClientRun> = Vec::new();
    let mut open_idx: Vec<usize> = Vec::new();
    let (mut closed_qps, mut traced_qps) = (Vec::new(), Vec::new());
    for _ in 0..WINDOWS {
        for (k, share) in shares.into_iter().enumerate() {
            if share == 0.0 {
                continue;
            }
            let (open, traced) = (k == 0, ctx.trace && k != 1);
            let t0 = clock.now_ns() + lead;
            let t1 = t0 + ns(cycle_s * share);
            let pace = open.then_some(interval_ns);
            let n = if open { clients } else { CLOSED_CLIENTS };
            let (runs, tr) = phase(&s, &engine, clock, n, next_stream, t0, t1, pace, traced);
            next_stream += n as u64;
            if let Some(tr) = tr {
                tracer.merge(tr);
            }
            let issued: usize = runs.iter().map(|r| r.issued).sum();
            let end = runs.iter().map(|r| r.end_ns).max().unwrap_or(t1);
            let qps = issued as f64 / ((end - t0) as f64 / 1e9);
            match (open, traced) {
                (true, _) => open_idx.extend(all_runs.len()..all_runs.len() + runs.len()),
                (false, false) => closed_qps.push(qps),
                (false, true) => traced_qps.push(qps),
            }
            all_runs.extend(runs);
        }
    }
    let max_qps = stats::median(&closed_qps).expect("closed-loop windows");

    let open_runs: Vec<&ClientRun> = open_idx.iter().map(|&i| &all_runs[i]).collect();
    let open_us = |f: fn(&Timing) -> u64| -> Vec<f64> {
        open_runs
            .iter()
            .flat_map(|r| r.timings.iter().map(|t| f(t) as f64 / 1e3))
            .collect()
    };
    let latencies_us = open_us(Timing::latency_ns);
    let lags_us = open_us(Timing::lag_ns);
    let service_us = open_us(|t| t.done_ns - t.sent_ns);
    // Latency from the due time is what a user waiting on the schedule
    // sees, and the report gives it under the names `query_p50_us`,
    // `query_p90_us` and `query_p99_us`. It is not gated: on a small
    // shared VM (measured on 2 vCPUs), host time-slicing drops whole
    // milliseconds of stall on every query due inside them and on the
    // backlog behind them, and over ten runs the due-time p50 spread 1.9
    // times its median and the p90 16 times. The gated latencies are
    // service times, from send to answer, in the same open-loop windows.
    let due = stats::Summary::of(&latencies_us, 90.0).expect("open-loop queries");
    out.line(format!(
        "{}; query_p99_us = {:.3} us (from the due time, not gated; {} qps offered by {clients} clients; generator lag p99 {:.3} us)",
        due.line("query", "us"),
        stats::percentile(&latencies_us, 99.0).unwrap_or(0.0),
        ctx.offered_qps,
        stats::percentile(&lags_us, 99.0).unwrap_or(0.0),
    ));
    let repeat_frac = if ctx.trace {
        repeat_frac(&s.gen, &open_runs)
    } else {
        0.0
    };
    out.mark_peak_rss();

    // Gate: every client stream of every phase replays serially to the
    // same folded response digest; refused queries count as failures.
    let mut refused = 0;
    for run in &all_runs {
        out.attempted += run.issued as u64;
        refused += run.refused;
        out.failed += run.refused;
        out.check(
            replay_matches(&s, &engine, run),
            &format!("stream {} differs from its serial replay", run.stream),
        );
    }

    let service = stats::Summary::of(&service_us, 90.0).expect("open-loop queries");
    out.e2e = Some(E2e {
        throughput_per_s: max_qps,
        latency_p50_ms: service.p50 / 1e3,
        latency_tail_ms: service.tail / 1e3,
    });
    out.line(format!("{} (gated)", service.line("query_service", "us")));
    out.line(format!(
        "query_max_qps = {max_qps:.1} 1/s (closed loop, {CLOSED_CLIENTS} client; median of {} windows, quartiles {:?})",
        closed_qps.len(),
        stats::quartiles(&closed_qps).unwrap_or_default()
    ));
    out.line(format!(
        "store: {} postings, {} keys, {} entities in the query vocabulary",
        s.store.posting_count(),
        s.store.key_count(),
        s.gen.entities.len()
    ));

    if ctx.trace {
        let spans = tracer.spans();
        let b = Breakdown::of(spans);
        let mut layers = Layers::default();
        for name in [
            "query.parse",
            "query.admission_wait",
            "query.execute.lookup",
            "query.execute.cooccur",
            "query.execute.stats",
        ] {
            layers.set(&format!("{name}.us"), b.mean_self_us(name));
        }
        layers.set("query.rejected", refused as f64);
        layers.set("query.repeat_frac", repeat_frac);
        layers.set(
            "query.gen_lag_us",
            stats::percentile(&lags_us, 99.0).unwrap_or(0.0),
        );
        layers.set("store.postings", s.store.posting_count() as f64);
        let traced = stats::median(&traced_qps).expect("traced closed-loop windows");
        layers.set("trace_overhead_frac", max_qps / traced - 1.0);
        out.trace_check(spans, &mut layers);
        out.layers = Some(layers);
    }
    out
}

/// Share of open-loop queries whose exact string was already issued
/// earlier in the phase (by any client) — the reuse a result cache could
/// exploit.
fn repeat_frac(gen: &QueryGen, runs: &[&ClientRun]) -> f64 {
    let mut seen = HashSet::new();
    let (mut repeats, mut total) = (0usize, 0usize);
    for run in runs {
        for i in 0..run.issued {
            total += 1;
            if !seen.insert(gen.query(run.stream, i)) {
                repeats += 1;
            }
        }
    }
    repeats as f64 / total.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(seed: u64) -> QueryGen {
        let entities = (0..500).map(|i| format!("ent{i}")).collect();
        QueryGen::new(entities, vec!["Medline".into(), "PMC".into()], seed)
    }

    #[test]
    fn query_stream_is_a_pure_function_of_the_seed() {
        let (a, b, c) = (gen(7), gen(7), gen(8));
        let stream = |g: &QueryGen, s: u64| (0..2000).map(|i| g.query(s, i)).collect::<Vec<_>>();
        assert_eq!(stream(&a, 0), stream(&b, 0));
        assert_eq!(stream(&a, 3), stream(&b, 3));
        assert_ne!(stream(&a, 0), stream(&c, 0));
        assert_ne!(stream(&a, 0), stream(&a, 1));
        // Order-free: query i does not depend on queries before it.
        assert_eq!(a.query(5, 1234), stream(&b, 5)[1234]);
        for q in stream(&a, 0) {
            parse_query(&q).unwrap_or_else(|e| panic!("{q}: {e:?}"));
        }
    }

    #[test]
    fn query_stream_is_skewed_and_mixed() {
        let g = gen(1);
        let queries: Vec<String> = (0..20_000).map(|i| g.query(0, i)).collect();
        let hot = &g.entities[0];
        let cold = &g.entities[400];
        let mentions = |e: &str| {
            queries
                .iter()
                .filter(|q| q.split(' ').any(|w| w == e))
                .count()
        };
        assert!(
            mentions(hot) > 20 * mentions(cold).max(1),
            "{} vs {}",
            mentions(hot),
            mentions(cold)
        );
        for verb in ["lookup", "cooccur", "stats"] {
            let share = queries.iter().filter(|q| q.starts_with(verb)).count() as f64 / 20_000.0;
            assert!(share > 0.15, "{verb}: {share}");
        }
        assert!(queries.iter().any(|q| q.contains(" in ")));
        assert!(queries.iter().any(|q| q.contains(" round ")));
    }
}
