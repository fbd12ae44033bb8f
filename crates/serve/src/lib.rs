//! The serving plane: turn a trained checkpoint into a request-serving
//! inference engine.
//!
//! The training crates stop at `lm::Checkpoint`; this crate is what the
//! north star's "heavy traffic" phase runs on top of it:
//!
//! * [`session`] — [`DecodeSession`]: one client stream over a shared
//!   immutable [`axonn_lm::Gpt`], backed by the KV-cached decode path in
//!   `lm::decode` (bitwise identical to full recompute), plus model
//!   loading from `lm::Checkpoint` files and `ft`-style sharded
//!   checkpoint directories.
//! * [`scheduler`] — [`ServeEngine`]: a continuous-batching scheduler.
//!   Requests queue FIFO, are admitted into a bounded set of streams,
//!   each with a KV cache sized to its own request, under a per-step
//!   token budget (prefill counts its prompt length, decode counts one
//!   token per stream), decoded together in
//!   one batched forward per step over weights packed once, evicted when
//!   their deadline passes, and rejected with typed
//!   [`ServeError::Overloaded`] when the queue is full.
//! * [`sampler`] — greedy and temperature/top-k sampling.
//! * [`tp`] — tensor-parallel decode: Megatron-style head/MLP sharding
//!   over the `core` grid's X group, each rank running `lm::decode`'s
//!   forward on its slice with partial sums folded by pooled
//!   all-reduces inside `exec::run_spmd_on`, every rank emitting the
//!   same replicated token stream.
//! * [`load`] — a closed-loop load generator (N clients, Poisson
//!   arrivals via exponential inter-arrival times) measuring TTFT and
//!   per-request decode throughput percentiles.
//! * [`metrics`] — `serve.*` counters/gauges/histograms in the
//!   `trace::live` registry, so `axonnctl monitor` shows the serving
//!   plane next to the training plane.

pub mod load;
pub mod metrics;
pub mod sampler;
pub mod scheduler;
pub mod session;
pub mod tp;

pub use load::{percentile, run_load, LoadConfig, LoadOutcome};
pub use metrics::ServeMetrics;
pub use sampler::Sampling;
pub use scheduler::{Completion, FinishReason, ServeConfig, ServeEngine, ServeError, ServeRequest};
pub use session::{load_model, load_sharded, save_sharded, DecodeSession};
pub use tp::{extract_tp_decode_schedule, tp_greedy_spmd};
