//! The AxoNN communication performance model (Section V-B).
//!
//! Given a machine, a model architecture and a GPU count, the model
//! predicts the communication time of every legal 4D configuration
//! (Equations 1–6) using the hierarchical bandwidths of Equation 7 and
//! the profiled intra-node database, and produces the ordered list of
//! configurations from which AxoNN picks its top candidates. Figure 2 of
//! the paper validates exactly this ranking against observed batch times;
//! our `fig2_perfmodel` bench does the same against the simulator.

pub mod grid;
pub mod memory;
pub mod model;

pub use grid::Grid4d;
pub use memory::{estimate_memory, estimate_memory_replicated_w, fits, MemoryEstimate};
pub use model::{layer_comm_time, network_comm_time, rank_configs, CommBreakdown, RankedConfig};
