//! Serial-vs-parallel kernel benchmark, emitted as `BENCH_kernels.json`.
//!
//! Times the three matmul variants at 256×256×256 and on the rectangular
//! training-step shapes (LoRA `r×dim` projections, expert-FFN
//! `dim×hidden` projections and their backward transposes), plus a
//! MoeBlock forward/backward pass, under a 1-thread pool and under the
//! default pool (`VELA_THREADS` / host parallelism). Each kernel also
//! reports *heap allocations per iteration*, counted by the
//! [`vela_bench::alloc::CountingAllocator`] registered as the global
//! allocator — the zero-allocation hot-path metric.
//!
//! The GEMM microkernel is picked from the host's CPU features
//! ([`Kernel::host`]); the run prints and records which path ran (`"simd"`)
//! and the CPU model. The three `matmul_*_256` rows also time the portable
//! kernel serially in the same run, so the SIMD gain is measured against a
//! baseline from the same host and moment.
//!
//! Usage:
//!   bench_kernels                 full run, writes BENCH_kernels.json
//!   bench_kernels --quick         faster sampling, does not write JSON
//!   bench_kernels --check FILE    compare serial times against a committed
//!                                 JSON; exits non-zero if any kernel
//!                                 regressed by more than 2x, or if a SIMD
//!                                 path ran and its serial `matmul_*_256`
//!                                 time is not at least 2x faster than the
//!                                 portable kernel's from this run
//!
//! Run with `cargo run --release -p vela-bench --bin bench_kernels`.

use std::fmt::Write as _;
use vela::model::{LocalExpertStore, ModelConfig, MoeBlock};
use vela::prelude::*;
use vela::tensor::gemm::{self, Kernel, Layout};
use vela::tensor::parallel::{self, ThreadPool};
use vela_bench::alloc::{count_allocations, CountingAllocator};
use vela_bench::microbench::secs_per_iter;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

struct Row {
    name: &'static str,
    serial_secs: f64,
    parallel_secs: f64,
    /// Heap allocations in one steady-state iteration (serial pool).
    allocs_per_iter: u64,
    /// Serial time of the same product on [`Kernel::PORTABLE`], for the
    /// square GEMM rows only.
    portable_serial_secs: Option<f64>,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.serial_secs / self.parallel_secs
    }
}

/// Sampling parameters: (samples, target batch seconds).
#[derive(Clone, Copy)]
struct Sampling {
    samples: usize,
    target_batch_secs: f64,
}

/// Time `f` once under the 1-thread pool and once under the default
/// pool, and count one iteration's heap allocations after warm-up. The
/// serial pass runs first so cache warm-up penalises the serial number,
/// not the parallel one (conservative for speedups).
fn row<R>(
    name: &'static str,
    serial: &ThreadPool,
    pool: &ThreadPool,
    sampling: Sampling,
    mut f: impl FnMut() -> R,
) -> Row {
    let allocs_per_iter = parallel::with_pool(serial, || {
        // Warm up buffers/caches so the count reflects the steady state,
        // then take the minimum over several iterations: an occasional
        // workspace-pool eviction re-allocates one buffer, which would
        // otherwise make the zero-allocation metric flaky.
        for _ in 0..6 {
            f();
        }
        (0..5).map(|_| count_allocations(&mut f).0).min().unwrap()
    });
    let serial_secs = parallel::with_pool(serial, || {
        secs_per_iter(sampling.samples, sampling.target_batch_secs, &mut f)
    });
    let parallel_secs = parallel::with_pool(pool, || {
        secs_per_iter(sampling.samples, sampling.target_batch_secs, &mut f)
    });
    Row {
        name,
        serial_secs,
        parallel_secs,
        allocs_per_iter,
        portable_serial_secs: None,
    }
}

fn run_all(sampling: Sampling) -> (usize, Vec<Row>) {
    let serial = ThreadPool::new(1);
    let pool = ThreadPool::new(parallel::default_threads());
    let threads = pool.threads();
    let mut rows = Vec::new();

    // Square kernels: the historical reference points.
    let n = 256;
    let mut rng = DetRng::new(1);
    let a = Tensor::uniform((n, n), -1.0, 1.0, &mut rng);
    let b = Tensor::uniform((n, n), -1.0, 1.0, &mut rng);
    let square = [
        ("matmul_nn_256", Layout::Nn),
        ("matmul_tn_256", Layout::Tn),
        ("matmul_nt_256", Layout::Nt),
    ];
    let mut out = vec![0.0f32; n * n];
    for (name, layout) in square {
        let mut r = row(name, &serial, &pool, sampling, || match layout {
            Layout::Nn => a.matmul(&b),
            Layout::Tn => a.matmul_tn(&b),
            Layout::Nt => a.matmul_nt(&b),
        });
        let portable = parallel::with_pool(&serial, || {
            secs_per_iter(sampling.samples, sampling.target_batch_secs, || {
                gemm::gemm_with(
                    Kernel::PORTABLE,
                    layout,
                    a.as_slice(),
                    b.as_slice(),
                    n,
                    n,
                    n,
                    &mut out,
                );
            })
        });
        r.portable_serial_secs = Some(portable);
        rows.push(r);
    }

    // Rectangular training-step shapes: LoRA adapters (r=8, dim=64) and
    // the expert FFN projections (dim=64, hidden=128) over 512 tokens.
    let mut rng = DetRng::new(7);
    let x = Tensor::uniform((512, 64), -1.0, 1.0, &mut rng); // [tokens, dim]
    let wa = Tensor::uniform((64, 8), -1.0, 1.0, &mut rng); // LoRA A
    let xa = Tensor::uniform((512, 8), -1.0, 1.0, &mut rng); // x·A
    let wb = Tensor::uniform((8, 64), -1.0, 1.0, &mut rng); // LoRA B
    let wg = Tensor::uniform((64, 128), -1.0, 1.0, &mut rng); // gate/up weight
    let h = Tensor::uniform((512, 128), -1.0, 1.0, &mut rng); // hidden grad
    rows.push(row("lora_down_512x64x8", &serial, &pool, sampling, || {
        x.matmul(&wa)
    }));
    rows.push(row("lora_up_512x8x64", &serial, &pool, sampling, || {
        xa.matmul(&wb)
    }));
    rows.push(row("ffn_fwd_512x64x128", &serial, &pool, sampling, || {
        x.matmul(&wg)
    }));
    rows.push(row(
        "ffn_bwd_dw_512x64x128",
        &serial,
        &pool,
        sampling,
        || x.matmul_tn(&h),
    ));
    rows.push(row(
        "ffn_bwd_dx_512x128x64",
        &serial,
        &pool,
        sampling,
        || h.matmul_nt(&wg),
    ));

    let cfg = ModelConfig {
        vocab: 64,
        dim: 64,
        heads: 4,
        kv_heads: 4,
        ffn_hidden: 128,
        blocks: 1,
        experts: 8,
        top_k: 2,
        seq_len: 512,
        aux_loss_weight: 0.0,
    };
    let mut rng = DetRng::new(2);
    let mut store = LocalExpertStore::new(&cfg, &mut rng);
    let mut block = MoeBlock::new(0, cfg.dim, cfg.experts, cfg.top_k, 0.0, &mut rng);
    let x = Tensor::uniform((512, cfg.dim), -1.0, 1.0, &mut rng);
    rows.push(row("moe_forward_512tok", &serial, &pool, sampling, || {
        block.forward(&x, &mut store)
    }));
    let g = Tensor::ones((512, cfg.dim));
    rows.push(row("moe_fwd_bwd_512tok", &serial, &pool, sampling, || {
        block.forward(&x, &mut store);
        block.backward(&g, &mut store)
    }));

    (threads, rows)
}

fn emit_json(threads: usize, rows: &[Row]) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(
        json,
        "  \"host_parallelism\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = writeln!(json, "  \"simd\": \"{}\",", Kernel::host().name());
    let _ = writeln!(json, "  \"cpu\": \"{}\",", cpu_model().replace('"', "'"));
    json.push_str("  \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"serial_secs\": {:.9}, \"parallel_secs\": {:.9}, \"speedup\": {:.3}, \"allocs_per_iter\": {}",
            r.name,
            r.serial_secs,
            r.parallel_secs,
            r.speedup(),
            r.allocs_per_iter
        );
        if let Some(portable) = r.portable_serial_secs {
            let _ = write!(
                json,
                ", \"portable_serial_secs\": {portable:.9}, \"simd_speedup\": {:.3}",
                portable / r.serial_secs
            );
        }
        json.push('}');
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    json
}

/// Extracts `(name, serial_secs, allocs_per_iter)` triples from a
/// `BENCH_kernels.json` file (the exact format this binary emits; no
/// general JSON parser needed).
fn parse_reference(text: &str) -> Vec<(String, f64, u64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(npos) = line.find("\"name\": \"") else {
            continue;
        };
        let rest = &line[npos + 9..];
        let Some(nend) = rest.find('"') else { continue };
        let name = rest[..nend].to_string();
        let Some(spos) = line.find("\"serial_secs\": ") else {
            continue;
        };
        let num = line[spos + 15..]
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
            .collect::<String>();
        let allocs = line
            .find("\"allocs_per_iter\": ")
            .and_then(|apos| {
                line[apos + 19..]
                    .chars()
                    .take_while(|c| c.is_ascii_digit())
                    .collect::<String>()
                    .parse::<u64>()
                    .ok()
            })
            .unwrap_or(u64::MAX);
        if let Ok(secs) = num.parse::<f64>() {
            out.push((name, secs, allocs));
        }
    }
    out
}

/// Compares measured serial times (within `factor`) and steady-state
/// allocation counts (exact budget: any increase over the committed
/// reference fails) against a reference JSON; returns the offending
/// kernels.
fn regressions(rows: &[Row], reference: &[(String, f64, u64)], factor: f64) -> Vec<String> {
    let mut bad = Vec::new();
    for (name, ref_secs, ref_allocs) in reference {
        if let Some(r) = rows.iter().find(|r| r.name == name) {
            if r.serial_secs > ref_secs * factor {
                bad.push(format!(
                    "{name}: serial {:.3e}s vs reference {:.3e}s (> {factor}x)",
                    r.serial_secs, ref_secs
                ));
            }
            if r.allocs_per_iter > *ref_allocs {
                bad.push(format!(
                    "{name}: {} allocs/iter vs reference {ref_allocs} (hot path regressed)",
                    r.allocs_per_iter
                ));
            }
        }
    }
    bad
}

/// The host CPU's model name (`/proc/cpuinfo` on Linux), or `"unknown"`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// When a SIMD kernel ran, each square GEMM row's serial time must beat the
/// portable kernel's serial time from the same run by at least `factor`.
/// Returns the rows that did not.
fn simd_shortfalls(rows: &[Row], factor: f64) -> Vec<String> {
    if Kernel::host() == Kernel::PORTABLE {
        return Vec::new();
    }
    rows.iter()
        .filter_map(|r| {
            let portable = r.portable_serial_secs?;
            (r.serial_secs * factor > portable).then(|| {
                format!(
                    "{}: {} serial {:.3e}s vs portable {:.3e}s (< {factor}x faster)",
                    r.name,
                    Kernel::host().name(),
                    r.serial_secs,
                    portable
                )
            })
        })
        .collect()
}

fn main() {
    let mut quick = false;
    let mut check: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--check" => {
                check = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--check requires a path");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_kernels [--quick] [--check FILE]");
                std::process::exit(2);
            }
        }
    }

    let sampling = if quick {
        Sampling {
            samples: 3,
            target_batch_secs: 0.01,
        }
    } else {
        Sampling {
            samples: 5,
            target_batch_secs: 0.05,
        }
    };

    let (threads, rows) = run_all(sampling);

    println!("threads: {threads}");
    println!("simd: {}  cpu: {}", Kernel::host().name(), cpu_model());
    for r in &rows {
        print!(
            "{:<24} serial {:>12.3e}s  parallel {:>12.3e}s  speedup {:>6.2}x  allocs/iter {:>6}",
            r.name,
            r.serial_secs,
            r.parallel_secs,
            r.speedup(),
            r.allocs_per_iter
        );
        match r.portable_serial_secs {
            Some(portable) => println!(
                "  portable serial {portable:>10.3e}s  simd speedup {:>5.2}x",
                portable / r.serial_secs
            ),
            None => println!(),
        }
    }

    if let Some(path) = check {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read reference {path}: {e}");
            std::process::exit(2);
        });
        let reference = parse_reference(&text);
        if reference.is_empty() {
            eprintln!("reference {path} contains no kernel entries");
            std::process::exit(2);
        }
        let mut bad = regressions(&rows, &reference, 2.0);
        bad.extend(simd_shortfalls(&rows, 2.0));
        if bad.is_empty() {
            println!(
                "bench check OK: no kernel regressed >2x vs {path}; simd path: {}",
                Kernel::host().name()
            );
        } else {
            eprintln!("bench check FAILED vs {path}:");
            for b in &bad {
                eprintln!("  {b}");
            }
            std::process::exit(1);
        }
    }

    if !quick {
        std::fs::write("BENCH_kernels.json", emit_json(threads, &rows))
            .expect("write BENCH_kernels.json");
        println!("wrote BENCH_kernels.json");
    }
}
