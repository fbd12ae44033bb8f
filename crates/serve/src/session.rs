//! One client stream over a shared immutable model, plus the model
//! loading paths serving starts from: a single `lm::Checkpoint` JSON
//! file, or an `ft`-style sharded checkpoint directory (per-rank shard
//! files + rank-0 manifest, atomic-rename commit, per-tensor checksums).

use crate::sampler::{self, Sampling};
use axonn_ft::checkpoint::{
    CheckpointStore, Manifest, ShardEntry, MANIFEST_MAGIC, MANIFEST_VERSION,
};
use axonn_lm::checkpoint::tensor_name;
use axonn_lm::decode::{self, KvCache};
use axonn_lm::{Checkpoint, Gpt};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;

/// A single decode stream: prompt prefilled once, then one cached-KV
/// step per token. The model is shared (`Arc`) and never mutated, so any
/// number of sessions decode concurrently from one weight set.
pub struct DecodeSession {
    model: Arc<Gpt>,
    cache: KvCache,
    sampling: Sampling,
    rng: StdRng,
    tokens: Vec<usize>,
    prompt_len: usize,
    last_row: Vec<f32>,
}

impl DecodeSession {
    /// Prefill `prompt` and sample the first new token.
    ///
    /// # Panics
    /// If the prompt is empty or exceeds the model window.
    pub fn start(model: Arc<Gpt>, prompt: &[usize], sampling: Sampling, seed: u64) -> Self {
        let mut cache = KvCache::for_model(&model.cfg);
        let logits = decode::prefill(&model, prompt, &mut cache);
        let mut rng = StdRng::seed_from_u64(seed);
        let last_row = logits.row(prompt.len() - 1).to_vec();
        let first = sampler::sample(&last_row, sampling, &mut rng);
        DecodeSession {
            model,
            cache,
            sampling,
            rng,
            tokens: vec![first],
            prompt_len: prompt.len(),
            last_row,
        }
    }

    /// Decode one more token. Returns `None` when the window is full.
    pub fn step(&mut self) -> Option<usize> {
        if self.cache.remaining() == 0 {
            return None;
        }
        let fed = *self.tokens.last().expect("start() sampled a token");
        self.last_row = decode::decode_step(&self.model, fed, &mut self.cache);
        let next = sampler::sample(&self.last_row, self.sampling, &mut self.rng);
        self.tokens.push(next);
        Some(next)
    }

    /// Tokens generated so far (prompt excluded).
    pub fn generated(&self) -> &[usize] {
        &self.tokens
    }

    pub fn prompt_len(&self) -> usize {
        self.prompt_len
    }
}

/// Load a model from a single `lm::Checkpoint` JSON file, verifying the
/// envelope and every tensor checksum.
pub fn load_model(path: impl AsRef<Path>) -> Result<Arc<Gpt>, String> {
    let ck = Checkpoint::load(path)?;
    Ok(Arc::new(ck.restore()?))
}

/// Split a captured checkpoint across `shards` rank files in an
/// `ft::CheckpointStore` directory: contiguous runs of the parameter
/// list per rank, rank-0 manifest committed last by atomic rename. The
/// manifest's `dims` carry the GPT architecture
/// `[vocab, seq_len, dim, n_heads, n_layers]`.
pub fn save_sharded(ck: &Checkpoint, dir: impl AsRef<Path>, shards: usize) -> Result<(), String> {
    assert!(shards > 0, "need at least one shard");
    ck.verify()?;
    let store = CheckpointStore::new(dir.as_ref());
    let n = ck.params.len();
    let mut entries = Vec::with_capacity(shards);
    for rank in 0..shards {
        let (lo, hi) = shard_range(n, shards, rank);
        let slice: Vec<&axonn_tensor::Matrix> = ck.params[lo..hi].iter().collect();
        let checksums = store
            .save_shard(0, rank, &slice)
            .map_err(|e| format!("save shard {rank}: {e}"))?;
        entries.push(ShardEntry {
            rank: rank as u64,
            x: rank as u64,
            y: 0,
            z: 0,
            d: 0,
            layer_checksums: checksums.iter().map(|c| format!("{c:016x}")).collect(),
        });
    }
    let manifest = Manifest {
        magic: MANIFEST_MAGIC.to_string(),
        version: MANIFEST_VERSION,
        step: 0,
        seed: ck.seed,
        gx: shards as u64,
        gy: 1,
        gz: 1,
        gd: 1,
        dims: vec![
            ck.vocab as u64,
            ck.seq_len as u64,
            ck.dim as u64,
            ck.n_heads as u64,
            ck.n_layers as u64,
        ],
        batch_rows: 0,
        shards: entries,
    };
    store
        .save_manifest(&manifest)
        .map_err(|e| format!("commit manifest: {e}"))
}

/// Reassemble a model from a sharded checkpoint directory written by
/// [`save_sharded`]: every shard file is checksum-verified against the
/// manifest, and per-tensor errors name the failing tensor.
pub fn load_sharded(dir: impl AsRef<Path>) -> Result<Arc<Gpt>, String> {
    let store = CheckpointStore::new(dir.as_ref());
    let step = store
        .latest_step()
        .ok_or_else(|| format!("no committed checkpoint under {}", dir.as_ref().display()))?;
    let manifest = store.manifest(step).map_err(|e| e.to_string())?;
    if manifest.dims.len() != 5 {
        return Err(format!(
            "manifest dims {:?}: expected [vocab, seq_len, dim, n_heads, n_layers]",
            manifest.dims
        ));
    }
    let n_layers = manifest.dims[4] as usize;
    let shards = manifest.grid().gpus();
    let mut params = Vec::new();
    for rank in 0..shards {
        let shard = store.load_shard(&manifest, rank).map_err(|e| {
            let base = params.len();
            format!(
                "shard {rank} (tensors from {} ({})): {e}",
                base,
                tensor_name(base, n_layers)
            )
        })?;
        params.extend(shard.layers);
    }
    let param_checksums = params
        .iter()
        .map(|m: &axonn_tensor::Matrix| format!("{:016x}", m.fnv1a64()))
        .collect();
    let ck = Checkpoint {
        magic: axonn_lm::checkpoint::CHECKPOINT_MAGIC.to_string(),
        version: axonn_lm::checkpoint::CHECKPOINT_VERSION,
        vocab: manifest.dims[0] as usize,
        seq_len: manifest.dims[1] as usize,
        dim: manifest.dims[2] as usize,
        n_heads: manifest.dims[3] as usize,
        n_layers,
        seed: manifest.seed,
        params,
        param_checksums,
    };
    Ok(Arc::new(ck.restore()?))
}

/// Contiguous parameter range `[lo, hi)` of rank `r` of `shards`.
fn shard_range(n: usize, shards: usize, r: usize) -> (usize, usize) {
    let base = n / shards;
    let extra = n % shards;
    let lo = r * base + r.min(extra);
    let hi = lo + base + usize::from(r < extra);
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use axonn_lm::GptModelConfig;

    fn toy_model() -> Arc<Gpt> {
        Arc::new(Gpt::new(GptModelConfig {
            vocab: 12,
            seq_len: 10,
            dim: 16,
            n_heads: 2,
            n_layers: 2,
            seed: 5,
        }))
    }

    #[test]
    fn greedy_session_matches_model_continuation() {
        let model = toy_model();
        let prompt = [1usize, 4, 2];
        let mut session = DecodeSession::start(model.clone(), &prompt, Sampling::Greedy, 0);
        for _ in 1..5 {
            session.step().expect("window has room");
        }
        let mut reference = Gpt::new(model.cfg.clone());
        let want = reference.greedy_continuation(&prompt, 5);
        assert_eq!(session.generated(), &want[..]);
    }

    #[test]
    fn sessions_share_one_model_across_threads() {
        let model = toy_model();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let m = model.clone();
                std::thread::spawn(move || {
                    let mut s = DecodeSession::start(
                        m,
                        &[i % 12, (i + 3) % 12],
                        Sampling::Greedy,
                        i as u64,
                    );
                    while s.step().is_some() {}
                    s.generated().to_vec()
                })
            })
            .collect();
        let outs: Vec<Vec<usize>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Same prompts decode identically regardless of interleaving.
        let mut again = DecodeSession::start(model, &[0, 3], Sampling::Greedy, 0);
        while again.step().is_some() {}
        assert_eq!(outs[0], again.generated());
    }

    #[test]
    fn sharded_round_trip_preserves_behaviour() {
        let mut model = Gpt::new(toy_model().cfg.clone());
        let ck = Checkpoint::capture(&mut model);
        let dir = std::env::temp_dir().join(format!("axonn_serve_shard_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        save_sharded(&ck, &dir, 3).unwrap();
        let restored = load_sharded(&dir).unwrap();
        let original = Arc::new(ck.restore().unwrap());
        let tokens = [0usize, 1, 2, 3];
        let run = |m: Arc<Gpt>| {
            let mut s = DecodeSession::start(m, &tokens, Sampling::Greedy, 0);
            while s.step().is_some() {}
            s.generated().to_vec()
        };
        assert_eq!(run(original), run(restored));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_shard_is_rejected_with_tensor_context() {
        let mut model = Gpt::new(toy_model().cfg.clone());
        let ck = Checkpoint::capture(&mut model);
        let dir = std::env::temp_dir().join(format!("axonn_serve_tamper_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        save_sharded(&ck, &dir, 2).unwrap();
        // Flip one mantissa bit in shard 1's first tensor and write the
        // file back — the manifest checksum must reject it, and the error
        // must say where the corruption landed.
        let shard_path = CheckpointStore::new(&dir).shard_path(0, 1);
        let mut shard: axonn_ft::checkpoint::ShardFile =
            serde_json::from_str(&std::fs::read_to_string(&shard_path).unwrap()).unwrap();
        let v = shard.layers[0].as_mut_slice();
        v[0] = f32::from_bits(v[0].to_bits() ^ 1);
        std::fs::write(&shard_path, serde_json::to_string(&shard).unwrap()).unwrap();
        let err = load_sharded(&dir).map(|_| ()).unwrap_err();
        assert!(
            err.contains("shard 1") && err.contains("checksum mismatch"),
            "unexpected error: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_ranges_partition_the_param_list() {
        for n in [1usize, 5, 18, 30] {
            for shards in 1..=4 {
                let mut covered = 0;
                for r in 0..shards {
                    let (lo, hi) = shard_range(n, shards, r);
                    assert_eq!(lo, covered);
                    covered = hi;
                }
                assert_eq!(covered, n);
            }
        }
    }
}
