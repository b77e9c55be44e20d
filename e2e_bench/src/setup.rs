//! Workload definitions and the timed set-up that brings one distributed
//! fine-tuning session up: pre-train, LoRA preparation, locality
//! measurement, placement solve and worker launch.

use std::time::{Duration, Instant};

use vela::measure::measure_locality;
use vela_cluster::{DeviceId, Topology};
use vela_data::{CharTokenizer, Corpus, TokenDataset};
use vela_model::finetune::{prepare_for_finetune, LoraConfig};
use vela_model::pretrain::{pretrain, PretrainConfig};
use vela_model::ModelConfig;
use vela_nn::optim::AdamWConfig;
use vela_placement::{PlacementProblem, ReplicatedPlacement, ReplicationConfig, Strategy};
use vela_runtime::{RealRuntime, TransportConfig};
use vela_tensor::rng::DetRng;

use crate::reference::Checkpoint;

/// Tokens per sequence for every workload.
pub const SEQ_LEN: usize = 32;
/// Balanced pre-training steps (at batch [`PRETRAIN_BATCH`]) before LoRA.
const PRETRAIN_STEPS: usize = 30;
const PRETRAIN_BATCH: usize = 8;
const PRETRAIN_CHARS: usize = 20_000;
/// Characters of fine-tuning corpus generated per session.
const CORPUS_CHARS: usize = 40_000;
/// Sequential evaluation batches behind the locality measurement.
const MEASURE_BATCHES: usize = 16;
/// Spare expert slots per worker in the placement problem.
const CAPACITY_SLACK: usize = 2;
/// Seed of the model under fine-tuning (pre-training data and init, LoRA
/// init) and of the fine-tuning corpus. These are fixed so every workload
/// seed fine-tunes the same model on the same corpus; the workload seed
/// drives the batch stream.
const MODEL_SEED: u64 = 2025;
/// Replication budget of the re-plan workload's launch placement.
const REPLAN_REPLICATION: ReplicationConfig = ReplicationConfig::Budget { frac: 0.25 };

/// How a workload places experts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// VELA's LP placement from the measured profile, kept for the run.
    Steady,
    /// Launch on replicated Sequential placement, record the observed
    /// routing for the first third of the run, then re-solve VELA's LP
    /// from it and migrate while training continues.
    Replan,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub corpus: Corpus,
    /// Sequences per step.
    pub batch: usize,
    pub transport: fn() -> TransportConfig,
    pub schedule: Schedule,
    /// Steps per second this workload runs at on the reference host; sizes
    /// the fixed step count from `--seconds`.
    pub nominal_steps_per_s: f64,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "steady-b8-channel",
        corpus: Corpus::WikiText,
        batch: 8,
        transport: TransportConfig::channel,
        schedule: Schedule::Steady,
        nominal_steps_per_s: 20.0,
    },
    Workload {
        name: "steady-b2-tcp",
        corpus: Corpus::Alpaca,
        batch: 2,
        transport: TransportConfig::tcp_processes,
        schedule: Schedule::Steady,
        nominal_steps_per_s: 30.0,
    },
    Workload {
        name: "replan-b4-tcp-threads",
        corpus: Corpus::WikiText,
        batch: 4,
        transport: TransportConfig::tcp_threads,
        schedule: Schedule::Replan,
        nominal_steps_per_s: 30.0,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn tokens_per_step(&self) -> usize {
        self.batch * SEQ_LEN
    }
}

/// Model, LoRA and optimizer settings shared by every workload.
pub fn model_config() -> ModelConfig {
    let mut cfg = ModelConfig::tiny_mistral(CharTokenizer::new().vocab_size());
    cfg.seq_len = SEQ_LEN;
    cfg
}

pub fn lora() -> LoraConfig {
    LoraConfig {
        rank: 8,
        alpha: 16.0,
    }
}

pub fn optim() -> AdamWConfig {
    AdamWConfig::default()
}

/// Per-phase wall time of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTiming {
    pub pretrain: Duration,
    pub lora: Duration,
    pub corpus: Duration,
    pub measure: Duration,
    pub solve: Duration,
    pub replicate: Duration,
    pub launch: Duration,
}

impl SetupTiming {
    pub fn total(&self) -> Duration {
        self.pretrain
            + self.lora
            + self.corpus
            + self.measure
            + self.solve
            + self.replicate
            + self.launch
    }

    /// `phase=seconds` for every phase, for the human-readable report.
    pub fn describe(&self) -> String {
        [
            ("pretrain", self.pretrain),
            ("lora", self.lora),
            ("corpus", self.corpus),
            ("measure", self.measure),
            ("solve", self.solve),
            ("replicate", self.replicate),
            ("launch", self.launch),
        ]
        .iter()
        .map(|(name, d)| format!("{name}={:.3}s", d.as_secs_f64()))
        .collect::<Vec<_>>()
        .join(" ")
    }
}

/// Everything a workload pass needs from set-up.
pub struct Session {
    pub runtime: RealRuntime,
    pub dataset: TokenDataset,
    /// The post-LoRA state the runtime was launched with.
    pub checkpoint: Checkpoint,
    pub timing: SetupTiming,
}

/// The workers of the paper's testbed: every device, master on device 0.
pub fn testbed() -> (Topology, DeviceId, Vec<DeviceId>) {
    let topology = Topology::paper_testbed();
    let workers = topology.devices().iter().map(|d| d.id).collect();
    (topology, DeviceId(0), workers)
}

/// The placement problem for `probs` under the workload's batch shape.
pub fn placement_problem(
    w: &Workload,
    cfg: &ModelConfig,
    probs: Vec<Vec<f64>>,
) -> PlacementProblem {
    let (topology, master, workers) = testbed();
    let capacities =
        PlacementProblem::even_capacities(cfg.blocks, cfg.experts, workers.len(), CAPACITY_SLACK);
    PlacementProblem::new(
        topology,
        master,
        workers,
        probs,
        (w.batch * cfg.seq_len * cfg.top_k) as f64,
        (cfg.dim * 4) as u64,
        capacities,
    )
}

/// Brings one session up and times each phase. `progress` names the
/// phase about to run (for the watchdog).
pub fn setup(w: &Workload, progress: &dyn Fn(&'static str)) -> Session {
    let cfg = model_config();
    let mut timing = SetupTiming::default();

    progress("setup.pretrain");
    let t = Instant::now();
    let pre = pretrain(
        &cfg,
        &PretrainConfig {
            steps: PRETRAIN_STEPS,
            batch_size: PRETRAIN_BATCH,
            corpus_chars: PRETRAIN_CHARS,
            seed: MODEL_SEED,
            ..PretrainConfig::default()
        },
    );
    timing.pretrain = t.elapsed();

    progress("setup.lora");
    let t = Instant::now();
    let (mut model, mut experts) = (pre.model, pre.experts);
    prepare_for_finetune(
        &mut model,
        &mut experts,
        lora(),
        &mut DetRng::new(MODEL_SEED ^ 0xA5A5),
    );
    timing.lora = t.elapsed();
    // The reference's starting point; benchmark bookkeeping, not set-up.
    let checkpoint = Checkpoint::save(&mut model, &mut experts);

    progress("setup.corpus");
    let t = Instant::now();
    let text = w.corpus.generate(CORPUS_CHARS, MODEL_SEED ^ 0xC0);
    let dataset = TokenDataset::from_text(&CharTokenizer::new(), &text);
    timing.corpus = t.elapsed();

    progress("setup.measure");
    let t = Instant::now();
    let profile = measure_locality(&mut model, &mut experts, &dataset, w.batch, MEASURE_BATCHES);
    timing.measure = t.elapsed();

    progress("setup.solve");
    let t = Instant::now();
    let problem = placement_problem(w, &cfg, profile.to_matrix());
    let base = match w.schedule {
        Schedule::Steady => Strategy::Vela.place(&problem),
        Schedule::Replan => Strategy::Sequential.place(&problem),
    };
    timing.solve = t.elapsed();

    let placement: ReplicatedPlacement = match w.schedule {
        Schedule::Steady => base.into(),
        Schedule::Replan => {
            progress("setup.replicate");
            let t = Instant::now();
            let p = REPLAN_REPLICATION.apply(&base, &problem);
            timing.replicate = t.elapsed();
            p
        }
    };

    progress("setup.launch");
    let t = Instant::now();
    let (topology, master, workers) = testbed();
    let runtime = RealRuntime::launch_with(
        (w.transport)(),
        model,
        experts,
        placement,
        topology,
        master,
        workers,
        optim(),
    );
    timing.launch = t.elapsed();

    Session {
        runtime,
        dataset,
        checkpoint,
        timing,
    }
}
