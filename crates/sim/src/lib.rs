//! Two-stream discrete-event simulation of 4D-parallel training batches.
//!
//! This is the performance plane of the reproduction: since we have no
//! GPU supercomputer, every at-scale figure of the paper (Figs. 5–9,
//! Tables I & III) is regenerated by simulating one GPT-scale training
//! iteration of Algorithm 1 — per-layer forward / recompute / backward
//! GEMMs on a *compute stream*, ring collectives on *communication
//! channels*, with the paper's three overlap optimizations (OAR / ORS /
//! OAG) changing only *when* operations are allowed to run, never what
//! runs.
//!
//! The simulator models the schedule at paper scale; it does not replay
//! the runtime's code. The collective stream the runtime actually issues
//! at laptop scale comes from `axonn_core::schedule`'s dry extractor,
//! which the workspace tests pin event for event to the stream a live
//! world records.
//!
//! Training is SPMD-symmetric, so a single representative GPU timeline
//! with the hierarchical bandwidths of Equation 7 reproduces the batch
//! time. Two fidelity levels exist:
//!
//! * the **clean** simulator (no latency, no noise) used for headline
//!   scaling numbers, and
//! * the **observed** simulator (per-ring-step latency plus deterministic
//!   congestion jitter) standing in for real measured batch times in the
//!   Figure 2 model-validation experiment — the analytic model ignores
//!   these effects, which is exactly what makes validating its *ranking*
//!   meaningful.

pub mod batch;
pub mod configs;
pub mod options;

pub use batch::{simulate_batch, simulate_batch_traced, BatchBreakdown};
pub use configs::{baseline_config, pick_best_config, weak_scaling_series, ScalePoint};
pub use options::{Fidelity, SimOptions};
