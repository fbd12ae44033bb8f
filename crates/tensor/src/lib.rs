//! Dense matrix kernels for the AxoNN-rs reproduction stack.
//!
//! This crate stands in for cuBLAS / rocBLAS in the original AxoNN: it
//! provides row-major `f32` matrices, a software [`Bf16`] storage type used
//! to emulate the paper's mixed-precision (bf16 compute / f32 master
//! weights) regime, and a blocked/packed GEMM kernel hierarchy (cache
//! blocking, register-tiled micro-kernels over packed panels, an AVX-512
//! FMA kernel behind the `simd` feature) with a retained naive tier. The
//! naive TN product walks its operand at stride `m` and runs far below
//! the blocked kernels, which is what makes the automated kernel tuner in
//! `axonn-core` meaningful on CPU, just as the rocBLAS TN/NN gap made it
//! meaningful on Frontier (Section V-C of the paper). Every
//! kernel tier is bitwise identical to [`gemm::gemm_reference`], whose
//! arithmetic is one fused multiply-add per term ([`fused`]).

pub mod activation;
pub mod bf16;
pub mod fused;
pub mod gemm;
mod kernel;
pub mod matrix;
pub mod pack;
pub mod shard;

pub use activation::{gelu, gelu_backprop, gelu_grad, gelu_in_place};
pub use bf16::Bf16;
pub use gemm::{
    gemm, gemm_bf16, gemm_bf16_into, gemm_into, gemm_into_naive, gemm_into_stats, gemm_into_with,
    gemm_reference, gemm_tn_naive, take_gemm_phase, GemmPhase, GemmStats, MatMode, Rhs,
};
pub use kernel::Isa;
pub use matrix::Matrix;
pub use pack::{pack_geometry, BlockSizes, PackedB, MR, NR};
pub use shard::{
    assemble_blocks, block_of, concat_cols, concat_rows, shard_rows, unshard_rows, BlockSpec,
};
