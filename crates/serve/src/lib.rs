//! The websift serving layer.
//!
//! Everything upstream of this crate ends at a sink: the flow engine
//! extracts entities at paper scale and then drops them on the floor.
//! This crate is where extraction output goes to be *served* — the
//! ROADMAP's "heavy traffic from millions of users" half of the paper's
//! motivation:
//!
//! - [`store`] — a persistent extraction store holding posting lists
//!   keyed by `(entity, type, corpus, crawl round)` with per-posting
//!   source provenance (page id + byte span), sharded by entity key
//!   range. It implements [`websift_flow::StoreSink`], so a pipeline
//!   writes into it directly via `Executor::run_into` and a
//!   `store:<name>/entities` plan sink.
//! - [`snapshot`] — byte-deterministic store snapshots in the same
//!   sealed-frame style as the flow checkpoints: a store killed
//!   mid-ingest and resumed from a snapshot is byte-identical to an
//!   uninterrupted one.
//! - [`query`] — a tiny query language (`lookup` / `cooccur` / `stats`)
//!   parsed with typed errors; query strings are untrusted input.
//! - [`check`] — static query checking (WS016): the field-flow analysis
//!   from `websift-analyze` infers the record schema a plan delivers to
//!   each `store:` sink, and parsed queries are checked against it (or
//!   against a live store's ingested corpora/round) before execution.
//! - [`engine`] — executes parsed queries against the store, reusing the
//!   flow engine's combinable [`websift_flow::Aggregate`] machinery for
//!   the stats path and reporting every query through `websift-observe`.
//! - [`admission`] — concurrent-query admission control built on the
//!   cluster scheduler's [`websift_flow::cluster::admit`] arithmetic: a
//!   query is a one-operator flow with a memory footprint, and the
//!   controller admits as many in parallel as the cluster would.
//!
//! Determinism contract: store content, snapshots, and query responses
//! are pure functions of the ingested record sequence and the query —
//! independent of shard count and of how many queries run concurrently.

pub mod admission;
pub mod check;
pub mod engine;
pub mod query;
pub mod snapshot;
pub mod store;

pub use admission::{AdmissionController, QueryPermit};
pub use check::{check_query, StoreSchema};
pub use engine::{QueryEngine, QueryResponse};
pub use query::{parse_query, Query, QueryError};
pub use snapshot::{
    write_snapshot_frame, SnapshotFrame, StoreSnapshot, STORE_SNAPSHOT_TAG, STORE_SNAPSHOT_VERSION,
};
pub use store::{shard_for, ExtractionStore, Method, Posting, PostingKey, ENTITY_DATASET};
