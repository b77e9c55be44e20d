//! The single-process reference: the same model, experts and optimizer
//! as the distributed run, stepped in one process through the public
//! model/nn API with every part of the step timed from outside.
//!
//! It is the loss oracle (a distributed step must produce the same loss
//! bits) and, in the traced run, the compute split and host-speed
//! reference for the distributed step.

use std::time::{Duration, Instant};

use vela_data::Batch;
use vela_model::finetune::{prepare_for_finetune, LoraConfig};
use vela_model::provider::ExpertBatch;
use vela_model::{checkpoint, ExpertProvider, LocalExpertStore, ModelConfig, MoeModel};
use vela_nn::loss::cross_entropy;
use vela_nn::optim::{AdamW, AdamWConfig};
use vela_nn::param::Module;
use vela_tensor::rng::DetRng;
use vela_tensor::Tensor;

/// Exact f32 checkpoints of the post-LoRA backbone and expert population.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    model: Vec<u8>,
    experts: Vec<u8>,
}

impl Checkpoint {
    pub fn save(model: &mut MoeModel, experts: &mut LocalExpertStore) -> Self {
        let mut ckpt = Checkpoint {
            model: Vec::new(),
            experts: Vec::new(),
        };
        checkpoint::save(model, &mut ckpt.model).expect("in-memory checkpoint");
        checkpoint::save(experts, &mut ckpt.experts).expect("in-memory checkpoint");
        ckpt
    }
}

/// Wall time of each part of one reference step.
#[derive(Debug, Clone, Copy, Default)]
pub struct RefTiming {
    pub total: Duration,
    pub backbone_fwd: Duration,
    pub backbone_bwd: Duration,
    pub expert_fwd: Duration,
    pub expert_bwd: Duration,
    pub loss: Duration,
    pub optim: Duration,
}

impl RefTiming {
    /// Sum of the separately timed parts (≤ `total`).
    pub fn parts(&self) -> Duration {
        self.backbone_fwd
            + self.backbone_bwd
            + self.expert_fwd
            + self.expert_bwd
            + self.loss
            + self.optim
    }
}

/// An [`ExpertProvider`] that times every block call into the store it
/// wraps. It overrides only the batch calls, so the streamed variants
/// take the trait's collect-then-emit path exactly as the bare store does.
struct TimedExperts<'a> {
    store: &'a mut LocalExpertStore,
    fwd: Duration,
    bwd: Duration,
}

impl ExpertProvider for TimedExperts<'_> {
    fn forward_block(&mut self, block: usize, batches: &[ExpertBatch]) -> Vec<Tensor> {
        let t = Instant::now();
        let out = self.store.forward_block(block, batches);
        self.fwd += t.elapsed();
        out
    }

    fn backward_block(&mut self, block: usize, grads: &[ExpertBatch]) -> Vec<Tensor> {
        let t = Instant::now();
        let out = self.store.backward_block(block, grads);
        self.bwd += t.elapsed();
        out
    }
}

/// Single-process fine-tuning state restored from a [`Checkpoint`].
pub struct Reference {
    model: MoeModel,
    experts: LocalExpertStore,
    opt_model: AdamW,
    opt_experts: AdamW,
}

impl Reference {
    /// Rebuilds the post-LoRA structure, then overwrites every parameter
    /// from `ckpt`, so the reference starts bit-identical to the state the
    /// distributed runtime was launched with.
    pub fn restore(
        cfg: &ModelConfig,
        lora: LoraConfig,
        optim: AdamWConfig,
        ckpt: &Checkpoint,
    ) -> Self {
        let (mut model, mut experts) = MoeModel::new(cfg, &mut DetRng::new(0));
        prepare_for_finetune(&mut model, &mut experts, lora, &mut DetRng::new(0));
        checkpoint::load(&mut model, &mut ckpt.model.as_slice()).expect("backbone checkpoint");
        checkpoint::load(&mut experts, &mut ckpt.experts.as_slice()).expect("expert checkpoint");
        Reference {
            model,
            experts,
            opt_model: AdamW::new(optim),
            opt_experts: AdamW::new(optim),
        }
    }

    /// One training step on `batch`: the same forward, loss, backward and
    /// AdamW updates as `MoeModel::train_step` plus the distributed
    /// optimizers. Returns the loss and the timing split.
    pub fn step(&mut self, batch: &Batch) -> (f32, RefTiming) {
        let start = Instant::now();
        self.model.zero_grad();
        self.experts.zero_grad();
        let mut experts = TimedExperts {
            store: &mut self.experts,
            fwd: Duration::ZERO,
            bwd: Duration::ZERO,
        };
        let t = Instant::now();
        let logits =
            self.model
                .forward(&batch.inputs, batch.batch_size, batch.seq_len, &mut experts);
        let fwd = t.elapsed();
        let t = Instant::now();
        let (loss, grad_logits) = cross_entropy(&logits, &batch.targets);
        let loss_time = t.elapsed();
        let t = Instant::now();
        self.model.backward(&grad_logits, &mut experts);
        let bwd = t.elapsed();
        let (expert_fwd, expert_bwd) = (experts.fwd, experts.bwd);
        let t = Instant::now();
        self.opt_model.step(&mut self.model);
        self.opt_experts.step(&mut self.experts);
        let optim = t.elapsed();
        let timing = RefTiming {
            total: start.elapsed(),
            backbone_fwd: fwd.saturating_sub(expert_fwd),
            backbone_bwd: bwd.saturating_sub(expert_bwd),
            expert_fwd,
            expert_bwd,
            loss: loss_time,
            optim,
        };
        (loss, timing)
    }
}
