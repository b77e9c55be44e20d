//! The closed fine-tuning loop and the two kinds of run.
//!
//! One driving thread keeps one batch in flight: sample a batch, run one
//! `RealRuntime::train_step`, repeat. The untraced run times the loop with
//! observability off and checks every loss against a single-process
//! replay afterwards. The traced run repeats the workload with counters
//! on and a reference step interleaved after every distributed step, and
//! attributes the step to layers.

use std::time::{Duration, Instant};

use vela_cluster::{StepTraffic, TimeBreakdown};
use vela_data::Batch;
use vela_locality::{AccessTracker, LocalityProfile};
use vela_obs::TraceMode;
use vela_placement::{Placement, Strategy};
use vela_runtime::{RealRuntime, WireStats};
use vela_tensor::rng::DetRng;

use crate::guard::{op, phase};
use crate::host::HostCpu;
use crate::reference::{Checkpoint, RefTiming, Reference};
use crate::report::{mean, median, samples_for_tail, tail_percentile, Metric};
use crate::setup::{self, model_config, Schedule, Session, Workload, SEQ_LEN};

/// Untimed steps before the timed window (first-touch allocation, pool
/// start-up, workspace fill).
const WARMUP_STEPS: usize = 5;
/// Percentile reported as the tail step time, and the samples that must
/// lie beyond it.
const TAIL_Q: f64 = 0.95;
const TAIL_BEYOND: usize = 10;
/// Steps at the end of the run whose mean loss is `loss_final`: one
/// step's loss depends mostly on which batch it drew.
const FINAL_LOSS_STEPS: usize = 50;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
const MIB: f64 = 1024.0 * 1024.0;

/// The fixed step schedule of one run. Fixed counts make every
/// deterministic output (losses, ledger bytes, cost-model time) a function
/// of the seed alone, so two runs of a seed can be compared bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warmup: usize,
    pub timed: usize,
    /// Re-plan after this many steps (re-plan workload only).
    pub replan_after: Option<usize>,
}

impl Plan {
    /// Sizes the timed window to last about `seconds` at the workload's
    /// nominal rate, never below the samples the tail percentile needs.
    pub fn new(w: &Workload, seconds: u64) -> Self {
        let nominal = (seconds as f64 * w.nominal_steps_per_s).round() as usize;
        let timed = nominal.max(samples_for_tail(TAIL_Q, TAIL_BEYOND));
        let total = WARMUP_STEPS + timed;
        Plan {
            warmup: WARMUP_STEPS,
            timed,
            replan_after: (w.schedule == Schedule::Replan).then_some(total / 3),
        }
    }

    pub fn total(&self) -> usize {
        self.warmup + self.timed
    }
}

/// What one distributed step returned, plus its wall time.
struct StepRecord {
    loss: f32,
    wall: f64,
    traffic: StepTraffic,
    time: TimeBreakdown,
}

/// The in-loop re-plan and the migration it set off.
#[derive(Default)]
struct ReplanRecord {
    track: Vec<f64>,
    solve: f64,
    apply: f64,
    blocked: f64,
    window_steps: Vec<f64>,
    bytes: u64,
    moved: usize,
}

/// Process-wide counters read around each traced step.
const COUNTERS: [&str; 12] = [
    "tensor.gemm.serial",
    "tensor.gemm.parallel",
    "tensor.par.pool",
    "tensor.par.inline",
    "tensor.workspace.hit",
    "tensor.workspace.miss",
    "runtime.pipeline.serialize_us",
    "runtime.pipeline.inflight_us",
    "runtime.pipeline.stall_us",
    "runtime.pipeline.combine_us",
    "runtime.worker.serve_us",
    "runtime.pipeline.stalls",
];

/// Process-wide counters plus the runtime's frame and wire totals.
#[derive(Clone, Copy, Default)]
struct Probe {
    counters: [u64; COUNTERS.len()],
    frames: u64,
    wire: WireStats,
}

impl Probe {
    fn read(rt: &RealRuntime) -> Self {
        let (out, back) = rt.frame_counts();
        Probe {
            counters: COUNTERS.map(|n| vela_obs::counter(n).get()),
            frames: out + back,
            wire: rt.wire_stats(),
        }
    }

    fn add_delta(&mut self, before: &Probe, after: &Probe) {
        for (acc, (b, a)) in self
            .counters
            .iter_mut()
            .zip(before.counters.iter().zip(&after.counters))
        {
            *acc += a - b;
        }
        self.frames += after.frames - before.frames;
        let (w, b, a) = (&mut self.wire, &before.wire, &after.wire);
        w.dispatch_header += a.dispatch_header - b.dispatch_header;
        w.dispatch_payload += a.dispatch_payload - b.dispatch_payload;
        w.result_header += a.result_header - b.result_header;
        w.result_payload += a.result_payload - b.result_payload;
        w.expert_state_header += a.expert_state_header - b.expert_state_header;
        w.expert_state_payload += a.expert_state_payload - b.expert_state_payload;
        w.control += a.control - b.control;
    }

    fn counter(&self, name: &str) -> f64 {
        let i = COUNTERS
            .iter()
            .position(|&n| n == name)
            .expect("probed counter");
        self.counters[i] as f64
    }
}

/// Per-step observations of the traced pass (timed steps only).
#[derive(Default)]
struct TraceRecord {
    probe: Probe,
    reference: Vec<RefTiming>,
}

/// One pass of the loop over a session.
struct Pass {
    steps: Vec<StepRecord>,
    batches: Vec<Batch>,
    /// Wall seconds of the timed window: sampling, steps and any in-loop
    /// re-plan and migration.
    loop_wall: f64,
    sample: Vec<f64>,
    replan: Option<ReplanRecord>,
    /// Reference losses, one per step (traced pass only).
    ref_losses: Vec<f32>,
    trace: Option<TraceRecord>,
    /// Share of runnable CPU time the hypervisor stole during the timed
    /// window.
    steal_share: f64,
}

impl Pass {
    fn timed_walls(&self, plan: &Plan) -> Vec<f64> {
        self.steps[plan.warmup..].iter().map(|s| s.wall).collect()
    }

    fn losses(&self) -> Vec<f32> {
        self.steps.iter().map(|s| s.loss).collect()
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Drives `plan` over the session. With `reference`, a reference step on
/// the same batch follows every distributed step and per-step probes are
/// collected.
fn run_pass(
    w: &Workload,
    plan: &Plan,
    seed: u64,
    session: &mut Session,
    mut reference: Option<&mut Reference>,
) -> Result<Pass, String> {
    let cfg = model_config();
    let mut rng = DetRng::new(seed);
    let mut pass = Pass {
        steps: Vec::with_capacity(plan.total()),
        batches: Vec::with_capacity(plan.total()),
        loop_wall: 0.0,
        sample: Vec::with_capacity(plan.timed),
        replan: plan.replan_after.map(|_| ReplanRecord::default()),
        ref_losses: Vec::new(),
        trace: reference.as_ref().map(|_| TraceRecord::default()),
        steal_share: 0.0,
    };
    let mut tracker = AccessTracker::new(cfg.blocks, cfg.experts);
    // The re-solved target, until its cutover has been checked.
    let mut pending_target: Option<Placement> = None;
    let mut loop_start = Instant::now();
    let mut cpu_start = HostCpu::read();

    for i in 0..plan.total() {
        let timed = i >= plan.warmup;
        if i == plan.warmup {
            loop_start = Instant::now();
            cpu_start = HostCpu::read();
        }
        phase("loop.sample");
        let t = Instant::now();
        let batch = session.dataset.sample_batch(w.batch, SEQ_LEN, &mut rng);
        if timed {
            pass.sample.push(secs(t.elapsed()));
        }

        phase("loop.train_step");
        let rt = &mut session.runtime;
        let in_window = rt.migrations_in_flight() > 0;
        let before = pass.trace.as_ref().map(|_| Probe::read(rt));
        let t = Instant::now();
        let m = op("train_step", || {
            rt.train_step(
                &batch.inputs,
                &batch.targets,
                batch.batch_size,
                batch.seq_len,
            )
        })?;
        let wall = secs(t.elapsed());
        if let (Some(tr), Some(before), true) = (pass.trace.as_mut(), before, timed) {
            tr.probe.add_delta(&before, &Probe::read(rt));
        }
        pass.steps.push(StepRecord {
            loss: m.loss.expect("training steps report a loss"),
            wall,
            traffic: m.traffic,
            time: m.time,
        });

        if let (Some(after), Some(rec)) = (plan.replan_after, pass.replan.as_mut()) {
            if in_window {
                rec.window_steps.push(wall);
            }
            if i < after {
                phase("loop.track");
                let t = Instant::now();
                tracker.record(&rt.model().routing_snapshot());
                rec.track.push(secs(t.elapsed()));
            }
            if i + 1 == after {
                phase("loop.replan");
                let t = Instant::now();
                let profile =
                    LocalityProfile::from_frequencies("observed", tracker.frequency_matrix());
                let problem = setup::placement_problem(w, &cfg, profile.to_matrix());
                let target = Strategy::Vela.place(&problem);
                rec.solve = secs(t.elapsed());
                phase("loop.apply_placement");
                let blocked_before = rt.migration_blocked_secs();
                let t = Instant::now();
                let handle = op("apply_placement", || rt.apply_placement(&target))?;
                rec.apply = secs(t.elapsed());
                rec.blocked -= blocked_before;
                rec.bytes = handle.bytes;
                rec.moved = handle.moved;
                pending_target = Some(target);
            }
            if rt.migrations_in_flight() == 0 {
                if let Some(target) = pending_target.take() {
                    check_cutover(rt, &target)?;
                }
            }
        }

        if let Some(reference) = reference.as_deref_mut() {
            phase("loop.reference");
            let (loss, timing) = reference.step(&batch);
            pass.ref_losses.push(loss);
            if let (true, Some(tr)) = (timed, pass.trace.as_mut()) {
                tr.reference.push(timing);
            }
        }
        pass.batches.push(batch);
    }
    pass.loop_wall = secs(loop_start.elapsed());
    pass.steal_share = HostCpu::read().steal_share_since(&cpu_start);

    if let Some(rec) = pass.replan.as_mut() {
        let rt = &mut session.runtime;
        if rt.migrations_in_flight() > 0 {
            phase("finish_migrations");
            op("finish_migrations", || rt.finish_migrations())?;
        }
        if let Some(target) = pending_target.take() {
            check_cutover(rt, &target)?;
        }
        rec.blocked += rt.migration_blocked_secs();
        rec.bytes += rt.migration_bytes();
    }
    Ok(pass)
}

/// After a migration settles, the primaries must be the re-solved target.
fn check_cutover(rt: &RealRuntime, target: &Placement) -> Result<(), String> {
    if &rt.placement().primaries() == target {
        Ok(())
    } else {
        Err("after cutover the primaries differ from the re-solved placement".to_string())
    }
}

/// Compares every distributed loss with the reference loss of the same
/// step. Steady workloads must match bit for bit at every step; the
/// re-plan workload up to its re-plan boundary. Returns the largest
/// absolute deviation over the whole run (reported, not gated, after a
/// re-plan).
fn loss_oracle(plan: &Plan, dist: &[f32], reference: &[f32]) -> Result<f64, String> {
    if dist.len() != reference.len() {
        return Err(format!(
            "oracle compared {} distributed steps with {} reference steps",
            dist.len(),
            reference.len()
        ));
    }
    let exact_until = plan.replan_after.unwrap_or(dist.len());
    let mut dev = 0.0f64;
    for (i, (&d, &r)) in dist.iter().zip(reference).enumerate() {
        if i < exact_until && d.to_bits() != r.to_bits() {
            return Err(format!(
                "loss at step {} is {d:?} distributed vs {r:?} single-process",
                i + 1
            ));
        }
        dev = dev.max((f64::from(d) - f64::from(r)).abs());
    }
    Ok(dev)
}

/// Replays `batches` on a fresh reference and returns its losses.
fn replay(ckpt: &Checkpoint, batches: &[Batch]) -> Vec<f32> {
    let mut reference = Reference::restore(&model_config(), setup::lora(), setup::optim(), ckpt);
    batches.iter().map(|b| reference.step(b).0).collect()
}

fn shutdown(session: Session) -> Checkpoint {
    phase("shutdown");
    let Session {
        runtime,
        checkpoint,
        ..
    } = session;
    runtime.shutdown();
    checkpoint
}

/// The outcome of one benchmark invocation.
pub struct Outcome {
    /// `Err` names the first correctness check that failed.
    pub verdict: Result<(), String>,
    pub metrics: Vec<Metric>,
    /// Extra `name = value` lines for the human-readable report.
    pub notes: Vec<String>,
}

/// The untraced run: the end-to-end metrics.
pub fn untraced(w: &Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    vela_obs::set_mode(TraceMode::Off);
    let plan = Plan::new(w, seconds);
    let progress = |p: &'static str| phase(p);

    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut session: Option<Session> = None;
    for k in 0..SETUPS {
        let cpu = HostCpu::read();
        let s = setup::setup(w, &progress);
        let unstolen = 1.0 - HostCpu::read().steal_share_since(&cpu);
        setup_times.push(secs(s.timing.total()) * unstolen);
        if k + 1 < SETUPS {
            shutdown(s);
        } else {
            session = Some(s);
        }
    }
    let mut session = session.expect("at least one set-up");
    let timing = session.timing;
    let pass = run_pass(w, &plan, seed, &mut session, None)?;
    let checkpoint = shutdown(session);

    // Replays the steps the oracle gates: all of them on the steady
    // workloads, those before the re-plan boundary on the re-plan workload
    // (the traced run measures the deviation after it).
    phase("oracle");
    let gated = plan.replan_after.unwrap_or(plan.total());
    let ref_losses = replay(&checkpoint, &pass.batches[..gated]);
    let oracle = loss_oracle(&plan, &pass.losses()[..gated], &ref_losses);

    let walls = pass.timed_walls(&plan);
    let tokens_per_s = (plan.timed * w.tokens_per_step()) as f64 / pass.loop_wall;
    let p50 = median(&walls) * 1e3;
    let p95 = tail_percentile(&walls, TAIL_Q, TAIL_BEYOND)? * 1e3;
    let unstolen = 1.0 - pass.steal_share;
    let steps = &pass.steps;
    let metrics = vec![
        Metric::new("tokens_per_s", "tok/s", tokens_per_s / unstolen),
        Metric::new("step_ms_p50", "ms", p50 * unstolen),
        Metric::new("setup_s", "s", median(&setup_times)),
        Metric::new(
            "ext_mb_per_node_step",
            "MB",
            mean(
                &steps
                    .iter()
                    .map(|s| s.traffic.external_avg_per_node())
                    .collect::<Vec<_>>(),
            ) / MIB,
        ),
        Metric::new(
            "sim_step_ms",
            "ms",
            mean(&steps.iter().map(|s| s.time.total()).collect::<Vec<_>>()) * 1e3,
        ),
        Metric::new("loss_final", "nats", final_loss(steps)),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb()?),
    ];
    let mut notes = vec![
        format!("steps = {} warm-up + {} timed", plan.warmup, plan.timed),
        format!("last set-up: {}", timing.describe()),
        format!(
            "steal share {:.4} in the timed window; unadjusted tokens_per_s {tokens_per_s:.1}, \
             step_ms_p50 {p50:.3}, step_ms_p95 {p95:.3}",
            pass.steal_share
        ),
        format!(
            "setup_s samples (steal-adjusted) = {}",
            setup_times
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    ];
    if oracle.is_ok() {
        notes.push(format!(
            "loss oracle: {gated} of {} steps bitwise equal to the single-process replay",
            plan.total()
        ));
    }
    Ok(Outcome {
        verdict: oracle.map(|_| ()),
        metrics,
        notes,
    })
}

/// The traced run: an untraced pass, then a traced pass of the same seed
/// with the reference interleaved; reports the per-layer metrics.
pub fn traced(w: &Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let plan = Plan::new(w, seconds);
    let progress = |p: &'static str| phase(p);

    vela_obs::set_mode(TraceMode::Off);
    let mut session = setup::setup(w, &progress);
    let plain = run_pass(w, &plan, seed, &mut session, None)?;
    shutdown(session);

    vela_obs::set_mode(TraceMode::Counters);
    let mut session = setup::setup(w, &progress);
    let timing = session.timing;
    let mut reference = Reference::restore(
        &model_config(),
        setup::lora(),
        setup::optim(),
        &session.checkpoint,
    );
    let pass = run_pass(w, &plan, seed, &mut session, Some(&mut reference))?;
    shutdown(session);
    vela_obs::set_mode(TraceMode::Off);

    phase("oracle");
    let verdict = loss_oracle(&plan, &plain.losses(), &pass.ref_losses)
        .and_then(|_| loss_oracle(&plan, &pass.losses(), &pass.ref_losses))
        .and_then(|dev| cross_check(&plain, &pass).map(|()| dev));
    let dev = verdict.clone().unwrap_or(f64::NAN);

    let tr = pass.trace.as_ref().expect("traced pass");
    let steps = plan.timed as f64;
    let refs = &tr.reference;
    let ref_total: Vec<f64> = refs.iter().map(|r| secs(r.total)).collect();
    let part = |f: fn(&RefTiming) -> Duration| {
        mean(&refs.iter().map(|r| secs(f(r))).collect::<Vec<_>>()) * 1e3
    };
    let coverage =
        refs.iter().map(|r| secs(r.parts())).sum::<f64>() / ref_total.iter().sum::<f64>();
    let traced_walls = pass.timed_walls(&plan);
    let plain_walls = plain.timed_walls(&plan);
    let p = &tr.probe;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let per_step = |name: &str| p.counter(name) / steps;
    let all = &pass.steps;
    let avg = |f: fn(&StepRecord) -> f64| mean(&all.iter().map(f).collect::<Vec<_>>());
    let rp = pass.replan.as_ref();
    let rp_f = |f: fn(&ReplanRecord) -> f64| rp.map_or(0.0, f);
    let serve_us = if !(w.transport)().is_process_mode() {
        per_step("runtime.worker.serve_us")
    } else {
        // Worker processes keep this counter to themselves: not measured.
        -1.0
    };
    let wire = &p.wire;

    let metrics = vec![
        Metric::new("data.sample_ms", "ms", mean(&pass.sample) * 1e3),
        Metric::new("model.ref_step_ms", "ms", median(&ref_total) * 1e3),
        Metric::new("model.backbone_fwd_ms", "ms", part(|r| r.backbone_fwd)),
        Metric::new("model.backbone_bwd_ms", "ms", part(|r| r.backbone_bwd)),
        Metric::new("model.expert_fwd_ms", "ms", part(|r| r.expert_fwd)),
        Metric::new("model.expert_bwd_ms", "ms", part(|r| r.expert_bwd)),
        Metric::new("model.loss_ms", "ms", part(|r| r.loss)),
        Metric::new("model.optim_ms", "ms", part(|r| r.optim)),
        Metric::new("model.coverage", "ratio", coverage),
        Metric::new("model.pretrain_s", "s", secs(timing.pretrain)),
        Metric::new(
            "tensor.gemm_calls_per_step",
            "count",
            (p.counter("tensor.gemm.serial") + p.counter("tensor.gemm.parallel")) / steps,
        ),
        Metric::new(
            "tensor.par_pool_frac",
            "ratio",
            ratio(
                p.counter("tensor.par.pool"),
                p.counter("tensor.par.pool") + p.counter("tensor.par.inline"),
            ),
        ),
        Metric::new(
            "tensor.workspace_hit_ratio",
            "ratio",
            ratio(
                p.counter("tensor.workspace.hit"),
                p.counter("tensor.workspace.hit") + p.counter("tensor.workspace.miss"),
            ),
        ),
        Metric::new(
            "runtime.step_ms_p95",
            "ms",
            tail_percentile(&plain_walls, TAIL_Q, TAIL_BEYOND)? * 1e3,
        ),
        Metric::new(
            "runtime.exchange_overhead_ms",
            "ms",
            (median(&traced_walls) - median(&ref_total)) * 1e3,
        ),
        Metric::new("runtime.frames_per_step", "count", p.frames as f64 / steps),
        Metric::new(
            "runtime.wire_bytes_per_step",
            "B",
            wire.total() as f64 / steps,
        ),
        Metric::new(
            "runtime.wire_header_frac",
            "ratio",
            ratio(
                (wire.dispatch_header + wire.result_header + wire.expert_state_header) as f64,
                wire.total() as f64,
            ),
        ),
        Metric::new(
            "runtime.serialize_us",
            "us",
            per_step("runtime.pipeline.serialize_us"),
        ),
        Metric::new(
            "runtime.inflight_us",
            "us",
            per_step("runtime.pipeline.inflight_us"),
        ),
        Metric::new(
            "runtime.stall_us",
            "us",
            per_step("runtime.pipeline.stall_us"),
        ),
        Metric::new(
            "runtime.combine_us",
            "us",
            per_step("runtime.pipeline.combine_us"),
        ),
        Metric::new("runtime.serve_us", "us", serve_us),
        Metric::new(
            "runtime.stalls_per_step",
            "count",
            per_step("runtime.pipeline.stalls"),
        ),
        Metric::new("runtime.launch_ms", "ms", secs(timing.launch) * 1e3),
        Metric::new("runtime.migration.apply_ms", "ms", rp_f(|r| r.apply) * 1e3),
        Metric::new(
            "runtime.migration.blocked_ms",
            "ms",
            rp_f(|r| r.blocked) * 1e3,
        ),
        Metric::new(
            "runtime.migration.window_steps",
            "count",
            rp_f(|r| r.window_steps.len() as f64),
        ),
        Metric::new(
            "runtime.migration.window_step_ms_p50",
            "ms",
            rp.filter(|r| !r.window_steps.is_empty())
                .map_or(0.0, |r| median(&r.window_steps))
                * 1e3,
        ),
        Metric::new("runtime.migration.bytes", "B", rp_f(|r| r.bytes as f64)),
        Metric::new(
            "runtime.migration.experts_moved",
            "count",
            rp_f(|r| r.moved as f64),
        ),
        Metric::new(
            "runtime.grad_sync_bytes_per_step",
            "B",
            avg(|s| s.traffic.sync_bytes as f64),
        ),
        Metric::new(
            "cluster.total_bytes_per_step",
            "B",
            avg(|s| s.traffic.total_bytes as f64),
        ),
        Metric::new(
            "cluster.internal_bytes_per_step",
            "B",
            avg(|s| s.traffic.internal_bytes as f64),
        ),
        Metric::new("cluster.sim_comm_ms", "ms", avg(|s| s.time.comm_s) * 1e3),
        Metric::new(
            "cluster.sim_compute_ms",
            "ms",
            avg(|s| s.time.compute_s) * 1e3,
        ),
        Metric::new("cluster.sim_sync_ms", "ms", avg(|s| s.time.sync_s) * 1e3),
        Metric::new("locality.measure_ms", "ms", secs(timing.measure) * 1e3),
        Metric::new(
            "locality.track_ms",
            "ms",
            rp.map_or(0.0, |r| mean(&r.track)) * 1e3,
        ),
        Metric::new("placement.solve_ms", "ms", secs(timing.solve) * 1e3),
        Metric::new("placement.replan_ms", "ms", rp_f(|r| r.solve) * 1e3),
        Metric::new("placement.replicate_ms", "ms", secs(timing.replicate) * 1e3),
        Metric::new(
            "obs.overhead_pct",
            "%",
            (traced_walls.iter().sum::<f64>() * (1.0 - pass.steal_share)
                / (plain_walls.iter().sum::<f64>() * (1.0 - plain.steal_share))
                - 1.0)
                * 100.0,
        ),
        Metric::new(
            "oracle.loss_dev_vs_ref",
            "nats",
            if dev.is_finite() { dev } else { 0.0 },
        ),
    ];
    let notes = vec![
        format!("steps = {} warm-up + {} timed", plan.warmup, plan.timed),
        format!(
            "tokens_per_s untraced / traced = {:.1} / {:.1} (step time only)",
            steps * w.tokens_per_step() as f64 / plain_walls.iter().sum::<f64>(),
            steps * w.tokens_per_step() as f64 / traced_walls.iter().sum::<f64>()
        ),
        format!("traced step_ms_p50 = {:.3}", median(&traced_walls) * 1e3),
        format!(
            "steal share untraced / traced pass = {:.4} / {:.4}; only obs.overhead_pct is \
             steal-adjusted",
            plain.steal_share, pass.steal_share
        ),
    ];
    Ok(Outcome {
        verdict: verdict.map(|_| ()),
        metrics,
        notes,
    })
}

/// Mean loss over the last [`FINAL_LOSS_STEPS`] steps.
fn final_loss(steps: &[StepRecord]) -> f64 {
    let tail = &steps[steps.len().saturating_sub(FINAL_LOSS_STEPS)..];
    mean(&tail.iter().map(|s| f64::from(s.loss)).collect::<Vec<_>>())
}

/// The traced pass must see the same ledger bytes and cost-model time,
/// step for step, as the untraced pass of the same seed.
fn cross_check(plain: &Pass, traced: &Pass) -> Result<(), String> {
    for (i, (a, b)) in plain.steps.iter().zip(&traced.steps).enumerate() {
        if a.traffic.total_bytes != b.traffic.total_bytes
            || a.time.total().to_bits() != b.time.total().to_bits()
        {
            return Err(format!(
                "step {}: untraced {} B / {:?} s vs traced {} B / {:?} s",
                i + 1,
                a.traffic.total_bytes,
                a.time.total(),
                b.traffic.total_bytes,
                b.time.total()
            ));
        }
    }
    Ok(())
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::WORKLOADS;

    #[test]
    fn plan_keeps_enough_samples_for_the_tail() {
        for w in &WORKLOADS {
            let plan = Plan::new(w, 1);
            assert!(tail_percentile(&vec![1.0; plan.timed], TAIL_Q, TAIL_BEYOND).is_ok());
            assert_eq!(plan.total(), plan.warmup + plan.timed);
            let longer = Plan::new(w, 60);
            assert!(longer.timed >= plan.timed);
        }
    }

    #[test]
    fn only_the_replan_workload_replans_after_a_third() {
        for w in &WORKLOADS {
            let plan = Plan::new(w, 10);
            match w.schedule {
                Schedule::Steady => assert_eq!(plan.replan_after, None),
                Schedule::Replan => assert_eq!(plan.replan_after, Some(plan.total() / 3)),
            }
        }
    }

    fn plan(replan_after: Option<usize>) -> Plan {
        Plan {
            warmup: 1,
            timed: 3,
            replan_after,
        }
    }

    #[test]
    fn oracle_demands_bitwise_equal_losses_on_steady_runs() {
        let reference = [2.5f32, 2.4, 2.3, 2.2];
        assert_eq!(loss_oracle(&plan(None), &reference, &reference), Ok(0.0));
        let mut off = reference;
        off[3] = f32::from_bits(off[3].to_bits() + 1);
        let err = loss_oracle(&plan(None), &off, &reference).unwrap_err();
        assert!(err.contains("step 4"), "{err}");
        assert!(loss_oracle(&plan(None), &reference[..3], &reference).is_err());
    }

    #[test]
    fn oracle_reports_but_does_not_gate_after_the_replan() {
        let reference = [2.5f32, 2.4, 2.3, 2.2];
        let dist = [2.5f32, 2.4, 2.25, 2.3];
        let dev = loss_oracle(&plan(Some(2)), &dist, &reference).expect("exact up to the boundary");
        assert!((dev - 0.1).abs() < 1e-6, "{dev}");
        assert!(loss_oracle(&plan(Some(3)), &dist, &reference).is_err());
    }
}
