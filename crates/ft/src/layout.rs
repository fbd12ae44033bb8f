//! Grid-sharded weight layout: the pure math of slicing a full parameter
//! into per-rank shards for a [`Grid4d`] and reassembling it — including
//! for a *different* grid than the one that wrote it (resharding).
//!
//! The layout mirrors `axonn_core::ParallelLinear::from_full_weight`
//! exactly: a layer's `k × n` weight is tiled into `g_in × g_out` blocks
//! (rows over Y, columns over X for even layers; roles swapped for odd,
//! "transposed" layers — Section V-A's alternation), and each block is
//! further row-sharded `G_z` ways. Data-parallel replicas (`d > 0`) hold
//! identical copies, so reassembly only reads the `d = 0` plane.

use axonn_perfmodel::Grid4d;
use axonn_tensor::{assemble_blocks, block_of, concat_rows, shard_rows, BlockSpec, Matrix};

/// Whether layer `i` runs with the X/Y roles exchanged (odd layers do).
pub fn layer_transposed(layer_idx: usize) -> bool {
    layer_idx % 2 == 1
}

/// Number of row blocks (`g_in`) a layer's weight is split into.
pub fn row_parts(grid: &Grid4d, transposed: bool) -> usize {
    if transposed {
        grid.gx
    } else {
        grid.gy
    }
}

/// Number of column blocks (`g_out`) a layer's weight is split into.
pub fn col_parts(grid: &Grid4d, transposed: bool) -> usize {
    if transposed {
        grid.gy
    } else {
        grid.gx
    }
}

/// The shard of `full` that rank `rank` of `grid` holds for a layer with
/// the given transpose flag — bit-for-bit the matrix
/// `ParallelLinear::from_full_weight` would store on that rank.
pub fn shard_layer(full: &Matrix, grid: &Grid4d, rank: usize, transposed: bool) -> Matrix {
    let (x, y, z, _d) = grid.coords_of(rank);
    let (row_idx, col_idx) = if transposed { (x, y) } else { (y, x) };
    let block = block_of(
        full,
        BlockSpec::new(
            row_parts(grid, transposed),
            col_parts(grid, transposed),
            row_idx,
            col_idx,
        ),
    );
    shard_rows(&block, grid.gz, z)
}

/// Reassemble a full layer weight from per-rank shards. `shard_of(rank)`
/// must return the shard written by that rank; only `d = 0` ranks are
/// consulted (replicas are identical).
pub fn assemble_layer<F>(grid: &Grid4d, transposed: bool, mut shard_of: F) -> Matrix
where
    F: FnMut(usize) -> Matrix,
{
    let g_in = row_parts(grid, transposed);
    let g_out = col_parts(grid, transposed);
    let mut blocks = Vec::with_capacity(g_in * g_out);
    for row_idx in 0..g_in {
        for col_idx in 0..g_out {
            let (x, y) = if transposed {
                (row_idx, col_idx)
            } else {
                (col_idx, row_idx)
            };
            let z_shards: Vec<Matrix> = (0..grid.gz)
                .map(|z| shard_of(grid.rank_of(x, y, z, 0)))
                .collect();
            blocks.push(concat_rows(&z_shards));
        }
    }
    assemble_blocks(&blocks, g_in, g_out)
}

/// Whether `grid` can legally run an MLP with the given global feature
/// `dims` and batch size: `axonn_core::mlp_grid_fits`, the divisibility
/// `from_full_weight` asserts, on a [`Grid4d`].
pub fn grid_fits(grid: &Grid4d, dims: &[usize], batch_rows: usize) -> bool {
    axonn_core::mlp_grid_fits(grid.gx, grid.gy, grid.gz, grid.gd, dims, batch_rows)
}

/// All grids over exactly `gpus` ranks that can resume a run with these
/// `dims` and batch size — `Grid4d::enumerate` filtered by
/// [`grid_fits`]. This is what elastic restart chooses from when the
/// surviving allocation is smaller than the original.
pub fn legal_resume_grids(dims: &[usize], batch_rows: usize, gpus: usize) -> Vec<Grid4d> {
    Grid4d::enumerate(gpus)
        .into_iter()
        .filter(|g| grid_fits(g, dims, batch_rows))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_then_assemble_is_identity() {
        let full = Matrix::random(8, 12, 1.0, 7);
        for &transposed in &[false, true] {
            for grid in [
                Grid4d::new(2, 2, 1, 1),
                Grid4d::new(1, 2, 2, 1),
                Grid4d::new(2, 1, 2, 2),
                Grid4d::new(4, 1, 2, 1),
            ] {
                let shards: Vec<Matrix> = (0..grid.gpus())
                    .map(|r| shard_layer(&full, &grid, r, transposed))
                    .collect();
                let back = assemble_layer(&grid, transposed, |r| shards[r].clone());
                assert_eq!(
                    back.as_slice(),
                    full.as_slice(),
                    "grid {grid} transposed={transposed}"
                );
            }
        }
    }

    #[test]
    fn replicas_hold_identical_shards() {
        let full = Matrix::random(4, 8, 1.0, 3);
        let grid = Grid4d::new(2, 1, 1, 2);
        for r in 0..grid.gpus() {
            let (x, y, z, _d) = grid.coords_of(r);
            let d0 = grid.rank_of(x, y, z, 0);
            assert_eq!(
                shard_layer(&full, &grid, r, false).as_slice(),
                shard_layer(&full, &grid, d0, false).as_slice()
            );
        }
    }

    #[test]
    fn grid_fits_enforces_divisibility() {
        let dims = [8, 16, 8];
        assert!(grid_fits(&Grid4d::new(2, 2, 1, 1), &dims, 4));
        assert!(grid_fits(&Grid4d::new(1, 2, 2, 1), &dims, 4));
        // Batch must divide by gd*gz.
        assert!(!grid_fits(&Grid4d::new(1, 2, 2, 1), &dims, 3));
        // dims[0]=8 cannot split 16 ways along rows.
        assert!(!grid_fits(&Grid4d::new(1, 16, 1, 1), &dims, 16));
    }

    #[test]
    fn legal_resume_grids_subset_of_enumeration() {
        let grids = legal_resume_grids(&[8, 16, 8], 8, 4);
        assert!(!grids.is_empty());
        assert!(grids.iter().all(|g| g.gpus() == 4));
        assert!(grids.iter().all(|g| grid_fits(g, &[8, 16, 8], 8)));
        // An illegal shape (e.g. gy=4 with dims[0]=8 ok, but gz=4 with
        // 8/1/4 rows ok too) — spot-check that something gets filtered
        // for a small dim set.
        let tight = legal_resume_grids(&[2, 4, 2], 4, 4);
        assert!(tight.len() < Grid4d::enumerate(4).len());
    }
}
