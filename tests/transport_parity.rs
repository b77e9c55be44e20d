//! Transport parity: the pluggable transport seam must be invisible in
//! every number the system reports.
//!
//! The same VirtualEngine workload runs over in-process channels, over
//! loopback TCP sockets with worker threads, and over TCP with worker OS
//! processes; every [`StepMetrics`] — ledger traffic windows, simulated
//! time breakdowns, step indices — must be *bitwise* identical, because
//! the hub accounts protocol bytes identically no matter what carries the
//! frames.
//!
//! The oracle is not circular: the ledger itself is checked against the
//! paper's per-batch byte sum, Σ over routed batches of
//! `9 + rows · bytes_per_token` in both directions of both passes,
//! computed from the routing counts alone — never from the frames the
//! exchange actually shipped. (Only `VELA_QUANT=int8` is allowed to
//! change anything, and it is gated separately by the `quant_accuracy`
//! loss-curve test.)

use vela::placement::ReplicatedPlacement;
use vela::prelude::*;
use vela::runtime::routing::sample_expert_counts;

fn parity_spec() -> MoeSpec {
    MoeSpec {
        blocks: 4,
        experts: 8,
        top_k: 2,
        hidden: 1024,
        ffn: 4096,
        bits: 16,
    }
}

fn parity_scale() -> ScaleConfig {
    ScaleConfig {
        batch: 4,
        seq: 64,
        drift: 1e-3,
        ..ScaleConfig::paper_default(parity_spec())
    }
}

fn parity_profile() -> LocalityProfile {
    let spec = parity_spec();
    LocalityProfile::synthetic("parity", spec.blocks, spec.experts, 1.2, 17)
}

const STEPS: usize = 5;

fn parity_placement() -> Placement {
    let spec = parity_spec();
    Placement::new(
        (0..spec.blocks)
            .map(|_| (0..spec.experts).map(|e| e % 6).collect())
            .collect(),
        6,
    )
}

/// The seed placement with real replicas grafted on: the hot low-index
/// experts gain extra copies (degrees 3 and 2), everything else stays
/// single-owner. Exercises least-loaded routing and replica gradient
/// sync on every step.
fn replicated_parity_placement() -> ReplicatedPlacement {
    let mut rep = ReplicatedPlacement::from(&parity_placement());
    for l in 0..parity_spec().blocks {
        rep.add_replica(l, 0, 1);
        rep.add_replica(l, 0, 3);
        rep.add_replica(l, 1, 5);
    }
    rep
}

fn workload_on(
    transport: TransportConfig,
    placement: impl Into<ReplicatedPlacement>,
) -> Vec<StepMetrics> {
    let mut engine = VirtualEngine::launch_with(
        transport,
        Topology::paper_testbed(),
        DeviceId(0),
        (0..6).map(DeviceId).collect(),
        placement,
        parity_profile(),
        parity_scale(),
    );
    let metrics = engine.run(STEPS);
    engine.shutdown();
    metrics
}

fn workload(transport: TransportConfig) -> Vec<StepMetrics> {
    workload_on(transport, parity_placement())
}

/// The ledger bytes each step must show for the single-owner parity
/// placement, in closed form from the routing counts: every routed batch
/// costs `9 + rows · bytes_per_token` per direction per pass, batches on
/// worker 0 are free (it shares the master's device), and each of the 5
/// remote workers adds its `StepBegin` (9) + `StepEnd` (1) + `StepDone`
/// (1) control frames.
fn closed_form_ledger_bytes() -> Vec<u64> {
    let (spec, scale, placement) = (parity_spec(), parity_scale(), parity_placement());
    let mut profile = parity_profile();
    let mut rng = DetRng::new(scale.seed);
    (0..STEPS)
        .map(|_| {
            let mut bytes = 5 * (9 + 1 + 1);
            for block in 0..spec.blocks {
                let counts =
                    sample_expert_counts(&profile, block, scale.tokens(), spec.top_k, &mut rng);
                for (e, &rows) in counts.iter().enumerate() {
                    if rows > 0 && placement.worker_of(block, e) != 0 {
                        bytes += 4 * (9 + rows as u64 * spec.token_bytes());
                    }
                }
            }
            profile.sharpen(scale.drift);
            bytes
        })
        .collect()
}

#[test]
fn ledger_windows_are_bitwise_identical_across_transports() {
    let over_channel = workload(TransportConfig::channel());
    let over_tcp = workload(TransportConfig::tcp_threads());
    assert_eq!(
        over_channel, over_tcp,
        "every StepMetrics field must be transport-independent"
    );
    // Spot-check the comparison had teeth: real bytes moved.
    assert!(over_channel.iter().all(|m| m.traffic.total_bytes > 0));
    assert!(over_channel.iter().all(|m| m.traffic.external_total() > 0));
}

#[test]
fn run_summaries_agree_except_for_the_label() {
    let a = RunSummary::from_steps(&workload(TransportConfig::channel())).with_transport("channel");
    let b =
        RunSummary::from_steps(&workload(TransportConfig::tcp_threads())).with_transport("channel");
    assert_eq!(a, b, "aggregates must be transport-independent");
    assert_eq!(a.steps, STEPS);
    assert!(a.total_bytes > 0);
}

/// The exchange's ledger equals the closed-form per-batch byte sum on
/// every in-process transport, and the transports agree on every other
/// metric bit for bit.
#[test]
fn exchange_grid_is_bitwise_identical_to_per_batch_baseline() {
    let expected = closed_form_ledger_bytes();
    let baseline = workload(TransportConfig::channel());
    let got: Vec<u64> = baseline.iter().map(|m| m.traffic.total_bytes).collect();
    assert_eq!(
        got, expected,
        "ledger must equal Σ (9 + rows·bytes_per_token)"
    );
    let metrics = workload(TransportConfig::tcp_threads());
    assert_eq!(baseline, metrics, "tcp-threads diverged from channel");
}

/// Degree 1 is the identity refactor: a [`ReplicatedPlacement`] built
/// from the seed placement (one replica everywhere) must reproduce the
/// single-owner run bit for bit on every transport — and move zero
/// gradient-sync bytes, because there are no peers to keep in sync.
#[test]
fn degree_one_replication_is_bitwise_identical_to_the_single_owner_seed() {
    let baseline = workload(TransportConfig::channel());
    assert!(
        baseline.iter().all(|m| m.traffic.sync_bytes == 0),
        "degree 1 must not move sync bytes"
    );
    let transports: [(&str, fn() -> TransportConfig); 3] = [
        ("channel", TransportConfig::channel),
        ("tcp-threads", TransportConfig::tcp_threads),
        ("tcp", TransportConfig::tcp_processes),
    ];
    for (label, transport) in transports {
        let metrics = workload_on(transport(), ReplicatedPlacement::from(&parity_placement()));
        assert_eq!(
            baseline, metrics,
            "degree-1 replication diverged from the seed over {label}"
        );
    }
}

/// A placement with real replicas must itself be transport-invariant:
/// least-loaded routing and the replica gradient-sync round are
/// deterministic, so every transport — OS worker processes included —
/// reports bitwise-identical metrics, with the sync traffic honestly on
/// the ledger.
#[test]
fn replicated_arm_is_bitwise_identical_across_transports_and_shapes() {
    let baseline = workload_on(TransportConfig::channel(), replicated_parity_placement());
    for m in &baseline {
        assert!(m.traffic.sync_bytes > 0, "replicas must sync every step");
        assert!(
            m.traffic.sync_bytes < m.traffic.total_bytes,
            "sync traffic is a strict subset of the ledger"
        );
        assert!(m.time.sync_s > 0.0, "sync time must be modeled");
    }
    let transports: [(&str, fn() -> TransportConfig); 2] = [
        ("tcp-threads", TransportConfig::tcp_threads),
        ("tcp", TransportConfig::tcp_processes),
    ];
    for (label, transport) in transports {
        let metrics = workload_on(transport(), replicated_parity_placement());
        assert_eq!(baseline, metrics, "replicated arm diverged over {label}");
    }
}

/// Real OS worker processes reproduce the closed-form ledger and the
/// in-process run bit for bit.
#[test]
fn process_transport_matches_the_per_batch_baseline() {
    let metrics = workload(TransportConfig::tcp_processes());
    let got: Vec<u64> = metrics.iter().map(|m| m.traffic.total_bytes).collect();
    assert_eq!(got, closed_form_ledger_bytes());
    assert_eq!(
        workload(TransportConfig::channel()),
        metrics,
        "tcp diverged from channel"
    );
}
