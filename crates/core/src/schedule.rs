//! Symbolic schedule extraction: replay a full training step per rank on
//! a **dry** world ([`CommWorld::dry`]) to obtain each rank's ordered
//! stream of collective operations without moving a byte of data.
//!
//! Dry collectives return zero-filled results immediately, so every rank
//! of the world can run **serially on one thread** — no rank ever blocks
//! on a peer. The recorded [`SchedEvent`] streams are exactly what a live
//! run would issue (same groups, same element counts, same issue/wait
//! pairing), which makes them a sound input for `axonn-verify`'s
//! pre-launch certification: matching, deadlock simulation, and leak
//! lints all run before a single rank thread is spawned.
//!
//! The `default_*` helpers pick model shapes that fit *every* grid
//! `Grid4d::enumerate` can produce for a rank budget `G`: feature sizes
//! `8·G` and batch `2·G`. Any split `g ∈ {gx, gy, gz, gd}` divides `G`,
//! so `8G % g_in = 0`, and for the z-sharding `(8G / g_in) % gz = 0`
//! because `g_in · gz` divides `G` (they are factors of the same grid).
//! That lets `axonnctl verify --all-grids` sweep the whole enumeration
//! with one model shape.

use crate::network::{Activation, Network4d};
use crate::stack::TransformerStack;
use crate::{GridTopology, OverlapConfig};
use axonn_collectives::{CommWorld, SchedEvent};
use axonn_tensor::Matrix;

/// MLP shape that fits every legal grid over `world` ranks: three
/// feature dims of `8·world` and a global batch of `2·world` rows.
pub fn default_mlp_shape(world: usize) -> (Vec<usize>, usize) {
    let w = world.max(1);
    (vec![8 * w, 8 * w, 8 * w], 2 * w)
}

/// Transformer shape for schedule extraction and verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransformerShape {
    pub vocab: usize,
    pub hidden: usize,
    pub n_heads: usize,
    pub n_layers: usize,
    pub seq_len: usize,
    /// Global number of sequences in the batch.
    pub seqs: usize,
}

/// Transformer shape that fits every legal grid over `world` ranks:
/// `hidden = vocab = 8·world`, `n_heads = world` (so any `gx | world`
/// divides the head count), two layers, and `2·world` sequences.
pub fn default_transformer_shape(world: usize) -> TransformerShape {
    let w = world.max(1);
    TransformerShape {
        vocab: 8 * w,
        hidden: 8 * w,
        n_heads: w,
        n_layers: 2,
        seq_len: 2,
        seqs: 2 * w,
    }
}

/// Whether an MLP with global feature `dims` and `batch_rows` rows can
/// run on the grid — the divisibility contract
/// `ParallelLinear::from_full_weight` asserts, mirrored here so illegal
/// configurations are rejected with a clean error instead of a panic.
/// (Elastic restart calls it through `axonn_ft::layout::grid_fits`.)
pub fn mlp_grid_fits(
    gx: usize,
    gy: usize,
    gz: usize,
    gd: usize,
    dims: &[usize],
    batch_rows: usize,
) -> bool {
    if !batch_rows.is_multiple_of(gd * gz) {
        return false;
    }
    (0..dims.len().saturating_sub(1)).all(|i| {
        let transposed = i % 2 == 1;
        let (g_in, g_out) = if transposed { (gx, gy) } else { (gy, gx) };
        dims[i].is_multiple_of(g_in)
            && dims[i + 1].is_multiple_of(g_out)
            && (dims[i] / g_in).is_multiple_of(gz)
    })
}

/// Whether a transformer stack with this shape can run on the grid —
/// the union of the constructor asserts in `ParallelEmbedding`,
/// `ParallelTransformerBlock`, `ParallelLayerNorm`, the vocab-parallel
/// head, and `TransformerStack::train_step`'s batch split.
pub fn transformer_grid_fits(
    gx: usize,
    gy: usize,
    gz: usize,
    gd: usize,
    shape: &TransformerShape,
) -> bool {
    let h = shape.hidden;
    shape.seqs.is_multiple_of(gd * gz)
        && h.is_multiple_of(shape.n_heads)
        && shape.n_heads.is_multiple_of(gx)
        && shape.vocab.is_multiple_of(gx)
        // Weight rows split over Y (normal layers) and X (transposed),
        // then z-sharded; layernorm and embedding ride the same splits.
        && h.is_multiple_of(gy)
        && h.is_multiple_of(gx)
        && (h / gy).is_multiple_of(gz)
        && (h / gx).is_multiple_of(gz)
}

/// Extract per-rank schedules for one MLP training step on the grid.
/// Runs every rank serially on a dry world; panics only if the shape
/// does not fit the grid (check [`mlp_grid_fits`] first).
pub fn extract_mlp_schedules(
    gx: usize,
    gy: usize,
    gz: usize,
    gd: usize,
    dims: &[usize],
    batch_rows: usize,
    overlap: OverlapConfig,
) -> Vec<Vec<SchedEvent>> {
    let world = gx * gy * gz * gd;
    let comms = CommWorld::dry(world);
    let probe = comms[0].clone();
    let x = Matrix::random(batch_rows, dims[0], 1.0, 11);
    let t = Matrix::random(batch_rows, *dims.last().expect("non-empty dims"), 1.0, 13);
    for comm in comms {
        let rank = comm.rank();
        let grid = GridTopology::new(gx, gy, gz, gd, rank);
        let mut net = Network4d::new(comm, grid, dims, Activation::Gelu, 7, overlap, false);
        net.train_step(&x, &t, 0.01);
    }
    probe
        .schedule_streams()
        .expect("dry worlds always record schedules")
}

/// Extract per-rank schedules for one transformer training step on the
/// grid (see [`extract_mlp_schedules`]).
pub fn extract_transformer_schedules(
    gx: usize,
    gy: usize,
    gz: usize,
    gd: usize,
    shape: &TransformerShape,
    overlap: OverlapConfig,
) -> Vec<Vec<SchedEvent>> {
    let world = gx * gy * gz * gd;
    let comms = CommWorld::dry(world);
    let probe = comms[0].clone();
    let n_tokens = shape.seqs * shape.seq_len;
    let tokens: Vec<usize> = (0..n_tokens).map(|i| (i * 5 + 1) % shape.vocab).collect();
    let targets: Vec<usize> = (0..n_tokens).map(|i| (i * 3 + 2) % shape.vocab).collect();
    for comm in comms {
        let rank = comm.rank();
        let grid = GridTopology::new(gx, gy, gz, gd, rank);
        let mut stack = TransformerStack::new(
            &grid,
            shape.vocab,
            shape.hidden,
            shape.n_heads,
            shape.n_layers,
            shape.seq_len,
            42,
            overlap,
        );
        stack.train_step(&comm, &grid, &tokens, &targets, 0.01);
    }
    probe
        .schedule_streams()
        .expect("dry worlds always record schedules")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_shapes_fit_every_enumerable_grid() {
        for world in [1usize, 2, 4, 6, 8, 12, 16] {
            let (dims, batch) = default_mlp_shape(world);
            let tshape = default_transformer_shape(world);
            // Enumerate all factorisations world = gx*gy*gz*gd.
            for gx in 1..=world {
                if !world.is_multiple_of(gx) {
                    continue;
                }
                for gy in 1..=world / gx {
                    if !(world / gx).is_multiple_of(gy) {
                        continue;
                    }
                    for gz in 1..=world / (gx * gy) {
                        if !(world / (gx * gy)).is_multiple_of(gz) {
                            continue;
                        }
                        let gd = world / (gx * gy * gz);
                        assert!(
                            mlp_grid_fits(gx, gy, gz, gd, &dims, batch),
                            "mlp {world}: ({gx},{gy},{gz},{gd})"
                        );
                        assert!(
                            transformer_grid_fits(gx, gy, gz, gd, &tshape),
                            "transformer {world}: ({gx},{gy},{gz},{gd})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mlp_extraction_runs_serially_and_records_all_ranks() {
        let (dims, batch) = default_mlp_shape(4);
        let streams = extract_mlp_schedules(2, 1, 2, 1, &dims, batch, OverlapConfig::all());
        assert_eq!(streams.len(), 4);
        for (rank, s) in streams.iter().enumerate() {
            assert!(
                s.iter().any(|e| matches!(e, SchedEvent::Issue(_))),
                "rank {rank} recorded no collectives"
            );
        }
    }

    #[test]
    fn transformer_extraction_records_bucket_markers_with_data_parallelism() {
        let shape = default_transformer_shape(4);
        let streams = extract_transformer_schedules(1, 2, 1, 2, &shape, OverlapConfig::all());
        assert_eq!(streams.len(), 4);
        assert!(streams[0]
            .iter()
            .any(|e| matches!(e, SchedEvent::Marker { label } if *label == "bucket_seal")));
    }
}
