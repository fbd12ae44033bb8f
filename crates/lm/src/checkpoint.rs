//! Model checkpointing: save and restore GPT weights.
//!
//! The memorization study fine-tunes from *pre-trained checkpoints*
//! (Section VIII-B starts from TinyLlama/Llama weights); this module is
//! the loading/saving machinery that makes that workflow real in the
//! reproduction — pre-train once, snapshot, run many continued-training
//! experiments from the same starting point.

use crate::gpt::{Gpt, GptModelConfig};
use axonn_tensor::Matrix;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::path::Path;

/// File-format magic of a serialized checkpoint.
pub const CHECKPOINT_MAGIC: &str = "AXNN-LMCK";
/// Current checkpoint format version; older/newer files fail loading
/// with a clear message instead of silently misreading.
pub const CHECKPOINT_VERSION: u64 = 1;

/// A serializable snapshot of a model: versioned envelope, architecture,
/// parameter values and a per-tensor FNV-1a64 checksum (hex). Optimizer
/// state is not checkpointed, as in most inference/fine-tune
/// checkpoints.
#[derive(Debug, Serialize, Deserialize)]
pub struct Checkpoint {
    pub magic: String,
    pub version: u64,
    pub vocab: usize,
    pub seq_len: usize,
    pub dim: usize,
    pub n_heads: usize,
    pub n_layers: usize,
    pub seed: u64,
    pub params: Vec<Matrix>,
    /// FNV-1a64 digest of each tensor in `params`, in order — any bit
    /// flip between save and load is caught at read time.
    pub param_checksums: Vec<String>,
}

/// Canonical name of parameter `i` in [`Gpt::params_mut`] order for a
/// model with `n_layers` blocks — `emb.tok`, `block0.attn.qkv.w`,
/// `head.b`, … Serving loads untrusted checkpoint files at startup, so
/// every per-tensor error names the tensor instead of a bare index.
pub fn tensor_name(i: usize, n_layers: usize) -> String {
    const PER_BLOCK: [&str; 12] = [
        "ln1.gain",
        "ln1.bias",
        "attn.qkv.w",
        "attn.qkv.b",
        "attn.proj.w",
        "attn.proj.b",
        "ln2.gain",
        "ln2.bias",
        "mlp.fc1.w",
        "mlp.fc1.b",
        "mlp.fc2.w",
        "mlp.fc2.b",
    ];
    match i {
        0 => return "emb.tok".to_string(),
        1 => return "emb.pos".to_string(),
        _ => {}
    }
    let body = i - 2;
    let block_tensors = n_layers * PER_BLOCK.len();
    if body < block_tensors {
        return format!(
            "block{}.{}",
            body / PER_BLOCK.len(),
            PER_BLOCK[body % PER_BLOCK.len()]
        );
    }
    match body - block_tensors {
        0 => "ln_f.gain".to_string(),
        1 => "ln_f.bias".to_string(),
        2 => "head.w".to_string(),
        3 => "head.b".to_string(),
        n => format!("tensor {}(unknown +{n})", i),
    }
}

impl Checkpoint {
    /// Snapshot a model's parameters.
    pub fn capture(model: &mut Gpt) -> Checkpoint {
        let cfg = model.cfg.clone();
        let params: Vec<Matrix> = model.params_mut().iter().map(|p| p.value.clone()).collect();
        let param_checksums = params
            .iter()
            .map(|m| format!("{:016x}", m.fnv1a64()))
            .collect();
        Checkpoint {
            magic: CHECKPOINT_MAGIC.to_string(),
            version: CHECKPOINT_VERSION,
            vocab: cfg.vocab,
            seq_len: cfg.seq_len,
            dim: cfg.dim,
            n_heads: cfg.n_heads,
            n_layers: cfg.n_layers,
            seed: cfg.seed,
            params,
            param_checksums,
        }
    }

    /// Validate the envelope and every tensor checksum.
    ///
    /// # Errors
    /// On bad magic, unsupported version, checksum count mismatch, or
    /// any tensor whose recomputed digest differs from the stored one.
    pub fn verify(&self) -> Result<(), String> {
        if self.magic != CHECKPOINT_MAGIC {
            return Err(format!(
                "not a model checkpoint: magic {:?}, expected {CHECKPOINT_MAGIC:?}",
                self.magic
            ));
        }
        if self.version != CHECKPOINT_VERSION {
            return Err(format!(
                "unsupported checkpoint version {} (this build reads {CHECKPOINT_VERSION})",
                self.version
            ));
        }
        if self.param_checksums.len() != self.params.len() {
            return Err(format!(
                "checkpoint lists {} checksums for {} tensors",
                self.param_checksums.len(),
                self.params.len()
            ));
        }
        for (i, (m, want_hex)) in self.params.iter().zip(&self.param_checksums).enumerate() {
            let name = tensor_name(i, self.n_layers);
            let want = u64::from_str_radix(want_hex, 16).map_err(|e| {
                format!("tensor {i} ({name}): malformed checksum {want_hex:?}: {e}")
            })?;
            let got = m.fnv1a64();
            if got != want {
                return Err(format!(
                    "tensor {i} ({name}): checksum mismatch (stored {want:016x}, recomputed {got:016x}) — checkpoint is corrupt"
                ));
            }
        }
        Ok(())
    }

    /// Rebuild a model from the snapshot.
    ///
    /// # Errors
    /// If the parameter list does not match the architecture.
    pub fn restore(&self) -> Result<Gpt, String> {
        let mut model = Gpt::new(GptModelConfig {
            vocab: self.vocab,
            seq_len: self.seq_len,
            dim: self.dim,
            n_heads: self.n_heads,
            n_layers: self.n_layers,
            seed: self.seed,
        });
        let mut params = model.params_mut();
        if params.len() != self.params.len() {
            return Err(format!(
                "checkpoint has {} tensors, architecture expects {}",
                self.params.len(),
                params.len()
            ));
        }
        for (i, (dst, src)) in params.iter_mut().zip(&self.params).enumerate() {
            if dst.value.shape() != src.shape() {
                return Err(format!(
                    "tensor {i} ({}): checkpoint shape {:?} vs architecture {:?}",
                    tensor_name(i, self.n_layers),
                    src.shape(),
                    dst.value.shape()
                ));
            }
            dst.value = src.clone();
        }
        Ok(model)
    }

    /// Serialize to any writer as JSON.
    pub fn write_to(&self, w: impl Write) -> Result<(), String> {
        serde_json::to_writer(w, self).map_err(|e| format!("serialize checkpoint: {e}"))
    }

    /// Deserialize from any reader, validating the envelope and every
    /// tensor checksum — truncated or bit-flipped files fail here with a
    /// clear message instead of producing a silently wrong model.
    pub fn read_from(r: impl Read) -> Result<Checkpoint, String> {
        let ck: Checkpoint =
            serde_json::from_reader(r).map_err(|e| format!("parse checkpoint: {e}"))?;
        ck.verify()?;
        Ok(ck)
    }

    /// Save to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), String> {
        let f = std::fs::File::create(path.as_ref())
            .map_err(|e| format!("create {}: {e}", path.as_ref().display()))?;
        self.write_to(std::io::BufWriter::new(f))
    }

    /// Load from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Checkpoint, String> {
        let f = std::fs::File::open(path.as_ref())
            .map_err(|e| format!("open {}: {e}", path.as_ref().display()))?;
        Self::read_from(std::io::BufReader::new(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::AdamW;

    fn toy() -> Gpt {
        Gpt::new(GptModelConfig {
            vocab: 10,
            seq_len: 6,
            dim: 8,
            n_heads: 2,
            n_layers: 1,
            seed: 4,
        })
    }

    #[test]
    fn round_trip_preserves_behaviour_exactly() {
        let mut model = toy();
        let mut opt = AdamW::new(2e-3);
        let seq = [1usize, 3, 5, 7, 2, 9];
        for _ in 0..20 {
            model.train_step(&seq[..5], &seq[1..6], None, &mut opt);
        }
        let before = model.forward(&seq[..5]);

        let ck = Checkpoint::capture(&mut model);
        let mut restored = ck.restore().unwrap();
        let after = restored.forward(&seq[..5]);
        assert_eq!(before, after, "restored model diverges");
    }

    #[test]
    fn json_round_trip_through_memory() {
        let mut model = toy();
        let ck = Checkpoint::capture(&mut model);
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        let back = Checkpoint::read_from(buf.as_slice()).unwrap();
        assert_eq!(back.params.len(), ck.params.len());
        let mut a = ck.restore().unwrap();
        let mut b = back.restore().unwrap();
        let tokens = [0usize, 1, 2, 3];
        assert_eq!(a.forward(&tokens), b.forward(&tokens));
    }

    #[test]
    fn file_round_trip() {
        let mut model = toy();
        let ck = Checkpoint::capture(&mut model);
        let dir = std::env::temp_dir().join("axonn_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.json");
        ck.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back.dim, 8);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mismatched_architecture_is_rejected() {
        let mut model = toy();
        let mut ck = Checkpoint::capture(&mut model);
        ck.n_layers = 2; // architecture now expects more tensors
        let err = ck.restore().map(|_| ()).unwrap_err();
        assert!(err.contains("tensors"), "unexpected error: {err}");

        let mut ck2 = Checkpoint::capture(&mut model);
        ck2.params[0] = Matrix::zeros(3, 3); // wrong shape
        let err2 = ck2.restore().map(|_| ()).unwrap_err();
        assert!(err2.contains("shape"), "unexpected error: {err2}");
    }

    #[test]
    fn single_bit_flip_is_detected_at_load() {
        let mut model = toy();
        let ck = Checkpoint::capture(&mut model);
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        // Round-trip through JSON, flip one mantissa bit of one weight,
        // and re-serialize — load must refuse the file.
        let mut tampered: Checkpoint = serde_json::from_reader(buf.as_slice()).unwrap();
        let v = tampered.params[0].as_mut_slice();
        v[0] = f32::from_bits(v[0].to_bits() ^ 1);
        let mut buf2 = Vec::new();
        serde_json::to_writer(&mut buf2, &tampered).unwrap();
        let err = Checkpoint::read_from(buf2.as_slice()).unwrap_err();
        assert!(err.contains("checksum mismatch"), "unexpected error: {err}");
    }

    #[test]
    fn truncated_file_fails_with_parse_error() {
        let mut model = toy();
        let ck = Checkpoint::capture(&mut model);
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        let err = Checkpoint::read_from(&buf[..buf.len() / 2]).unwrap_err();
        assert!(err.contains("parse checkpoint"), "unexpected error: {err}");
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let mut model = toy();
        let mut ck = Checkpoint::capture(&mut model);
        ck.version = CHECKPOINT_VERSION + 1;
        let err = ck.verify().unwrap_err();
        assert!(err.contains("version"), "unexpected error: {err}");
        ck.version = CHECKPOINT_VERSION;
        ck.magic = "not-a-checkpoint".into();
        let err = ck.verify().unwrap_err();
        assert!(err.contains("magic"), "unexpected error: {err}");
    }

    #[test]
    fn tensor_names_cover_params_in_order() {
        let mut model = toy(); // 1 layer
        let n = model.params_mut().len();
        assert_eq!(n, 2 + 12 + 4);
        assert_eq!(tensor_name(0, 1), "emb.tok");
        assert_eq!(tensor_name(2, 1), "block0.ln1.gain");
        assert_eq!(tensor_name(4, 1), "block0.attn.qkv.w");
        assert_eq!(tensor_name(13, 1), "block0.mlp.fc2.b");
        assert_eq!(tensor_name(14, 1), "ln_f.gain");
        assert_eq!(tensor_name(17, 1), "head.b");
        assert_eq!(tensor_name(2 + 12, 2), "block1.ln1.gain");
    }

    #[test]
    fn corruption_errors_name_the_failing_tensor() {
        let mut model = toy();
        let mut ck = Checkpoint::capture(&mut model);
        // Flip a bit in block0's qkv weight (index 4).
        let v = ck.params[4].as_mut_slice();
        v[0] = f32::from_bits(v[0].to_bits() ^ 1);
        let err = ck.verify().unwrap_err();
        assert!(
            err.contains("tensor 4 (block0.attn.qkv.w)"),
            "error does not name the tensor: {err}"
        );
        assert!(
            err.contains("stored") && err.contains("recomputed"),
            "{err}"
        );

        let mut ck2 = Checkpoint::capture(&mut model);
        ck2.params[1] = Matrix::zeros(3, 3);
        let err2 = ck2.restore().map(|_| ()).unwrap_err();
        assert!(
            err2.contains("tensor 1 (emb.pos)") && err2.contains("shape"),
            "unexpected error: {err2}"
        );
    }

    #[test]
    fn restore_does_not_copy_optimizer_state() {
        let mut model = toy();
        let mut opt = AdamW::new(2e-3);
        let seq = [1usize, 3, 5, 7, 2, 9];
        model.train_step(&seq[..5], &seq[1..6], None, &mut opt);
        let ck = Checkpoint::capture(&mut model);
        let mut restored = ck.restore().unwrap();
        // The trained model holds moments; the restored one none at all.
        assert!(model.params_mut().iter().all(|p| !p.m.is_empty()));
        for p in restored.params_mut() {
            assert!(p.m.is_empty() && p.v.is_empty());
        }
    }
}
