//! Criterion benches behind Fig. 3: per-tool runtime as a function of
//! input length — POS tagging (linear), dictionary NER (linear, fast),
//! CRF NER without context features (linear, slow), and CRF NER with
//! sentence-context features (quadratic, slowest).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use websift_corpus::{CorpusKind, Generator, Lexicon, LexiconScale};
use websift_flow::packages::resources::labeled_to_example;
use websift_flow::{IeConfig, IeResources};
use websift_ner::crf::{CrfConfig, CrfTagger};
use websift_ner::EntityType;
use websift_text::PosTagger;

fn sample_text(chars: usize) -> String {
    let generator = Generator::new(CorpusKind::RelevantWeb, 77);
    let mut pool = String::new();
    for doc in generator.documents(10) {
        pool.push_str(&doc.body.replace('\n', " "));
        pool.push(' ');
        if pool.len() > chars + 64 {
            break;
        }
    }
    let mut end = chars.min(pool.len());
    while !pool.is_char_boundary(end) {
        end -= 1;
    }
    pool[..end].to_string()
}

/// `n` distinct lower-case words the POS model has never seen.
fn unknown_words(n: usize) -> Vec<String> {
    const SYLLABLES: [&str; 8] = ["zor", "qui", "vex", "pam", "lud", "kri", "bof", "yat"];
    (0..n)
        .map(|i| {
            let (a, b, c) = (i % 8, i / 8 % 8, i / 64 % 8);
            [SYLLABLES[a], SYLLABLES[b], SYLLABLES[c]].concat()
        })
        .collect()
}

fn bench_fig3(c: &mut Criterion) {
    let lexicon = Arc::new(Lexicon::generate(LexiconScale::tiny()));
    let resources = IeResources::standard(
        &lexicon,
        IeConfig {
            crf_training_sentences: 80,
            crf_epochs: 3,
            ..IeConfig::default()
        },
    );
    let heavy = {
        let generator = Generator::with_lexicon(CorpusKind::Medline, 9, lexicon.clone());
        let examples: Vec<_> = generator
            .labeled_sentences(60)
            .iter()
            .map(|ls| labeled_to_example(ls, EntityType::Gene))
            .collect();
        CrfTagger::train(
            EntityType::Gene,
            &examples,
            CrfConfig {
                dim: 1 << 14,
                epochs: 2,
                context_features: true,
                ..CrfConfig::default()
            },
        )
    };
    let pos = PosTagger::pretrained();

    let mut group = c.benchmark_group("fig3_tools");
    group.sample_size(20);
    for chars in [128usize, 512, 2048] {
        let text = sample_text(chars);
        let tokens = websift_text::tokenize::token_strings(&text);
        let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
        group.bench_with_input(BenchmarkId::new("pos_hmm", chars), &chars, |b, _| {
            b.iter(|| black_box(pos.tag(black_box(&refs))))
        });
        // Worst case for the pruned decoder: as many tokens, all unknown
        // lower-case words, so emissions barely separate the tags.
        let unknown = unknown_words(refs.len());
        let unknown: Vec<&str> = unknown.iter().map(String::as_str).collect();
        group.bench_with_input(BenchmarkId::new("pos_hmm_unknown", chars), &chars, |b, _| {
            b.iter(|| black_box(pos.tag(black_box(&unknown))))
        });
        let dict = &resources.dict[&EntityType::Gene];
        group.bench_with_input(BenchmarkId::new("ner_dict", chars), &chars, |b, _| {
            b.iter(|| black_box(dict.tag(black_box(&text))))
        });
        let ml = &resources.crf[&EntityType::Gene];
        group.bench_with_input(BenchmarkId::new("ner_crf", chars), &chars, |b, _| {
            b.iter(|| black_box(ml.tag(black_box(&text))))
        });
        group.bench_with_input(BenchmarkId::new("ner_crf_context", chars), &chars, |b, _| {
            b.iter(|| black_box(heavy.tag(black_box(&text))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig3);
criterion_main!(benches);
