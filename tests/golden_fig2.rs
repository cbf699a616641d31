//! Golden digest of the full Fig.-2 flow's sinks.
//!
//! The executor's own differential suites compare one physical plan with
//! another (DoP n against DoP 1, sharded against in-process), so a change
//! that alters what an operator emits — a tag from the POS decoder, a
//! mention from an entity tagger — passes them all. This test pins the
//! sink bytes of a small fixed-seed corpus to a recorded value instead.
//! If an intended behaviour change moves it, re-record the constant and
//! say why in the change description.

use std::collections::HashMap;
use websift::corpus::CorpusKind;
use websift::flow::{ExecutionConfig, Executor, Record, Value};
use websift::pipeline::{documents_to_records, full_analysis_plan, ExperimentContext};
use websift::resilience::{codec, Snapshot, Writer};

/// Digest of every sink's records, in sink-name order.
fn sinks_digest(sinks: &HashMap<String, Vec<Record>>) -> u64 {
    let mut names: Vec<&String> = sinks.keys().collect();
    names.sort();
    let mut w = Writer::new();
    for name in names {
        w.str(name);
        sinks[name].encode(&mut w);
    }
    codec::digest(&w.into_bytes())
}

/// Tokens tagged across the records of a sink.
fn tagged_tokens(records: &[Record]) -> usize {
    records
        .iter()
        .filter_map(|r| r.get("pos").and_then(Value::as_array))
        .flatten()
        .filter_map(|s| s.as_object()?.get("tags")?.as_array().map(<[Value]>::len))
        .sum()
}

/// Recorded before the POS decoder was pruned; the tags must not move.
const FIG2_SINKS_DIGEST: u64 = 8171815994952606979;

#[test]
fn fig2_sinks_match_the_recorded_digest_at_dop_1_and_2() {
    let ctx = ExperimentContext::tiny(5);
    let plan = full_analysis_plan(&ctx.resources);
    let docs: Vec<_> = [
        CorpusKind::RelevantWeb,
        CorpusKind::Medline,
        CorpusKind::Pmc,
    ]
    .into_iter()
    .flat_map(|kind| ctx.corpora.get(kind).iter().cloned())
    .collect();
    for dop in [1, 2] {
        let inputs = HashMap::from([("docs".to_string(), documents_to_records(&docs))]);
        let out = Executor::new(ExecutionConfig::local(dop))
            .run(&plan, inputs)
            .unwrap();
        assert!(
            tagged_tokens(&out.sinks["entities"]) > 1_000,
            "the digest must cover POS tags"
        );
        assert_eq!(sinks_digest(&out.sinks), FIG2_SINKS_DIGEST, "dop {dop}");
    }
}
