//! A small, fully-trainable GPT on CPU.
//!
//! This crate replaces the paper's LitGPT + pre-trained Llama checkpoints
//! for the memorization study (Section VIII): a decoder-only transformer
//! — token/position embeddings, pre-LN blocks with causal multi-head
//! attention and GELU MLPs, a language-model head — with hand-written
//! backward passes for every module (each verified against finite
//! differences), token-maskable cross-entropy (the hook the Goldfish loss
//! uses), AdamW, and greedy decoding for exact-match evaluation.

pub mod attention;
pub mod checkpoint;
pub mod decode;
pub mod gpt;
pub mod loss;
pub mod modules;
pub mod optim;

pub use checkpoint::Checkpoint;
pub use decode::{DecodeError, KvCache, PackedWeights};
pub use gpt::{Gpt, GptModelConfig};
pub use loss::{cross_entropy, CrossEntropyResult};
pub use modules::{Embedding, LayerNorm, Linear, Param};
pub use optim::AdamW;
