//! Packed, register-blocked GEMM: the single microkernel behind
//! [`Tensor::matmul`](crate::Tensor::matmul), `matmul_tn` and `matmul_nt`.
//!
//! # Tile layout
//!
//! The driver packs `B` once per call into column panels of [`NR`] columns,
//! stored K-major (`bpack[p * NR + jj]`), so the microkernel reads `B`
//! contiguously no matter which variant produced it — `matmul_nt`'s
//! transposed access pattern is absorbed entirely by the pack step. `A` is
//! packed per row tile into K-major [`MR`]-row strips (`apack[p * MR + ii]`).
//! Remainder tiles are zero-padded: padded lanes compute garbage that is
//! never written back, and real lanes only ever multiply real values, so
//! padding cannot perturb any output bit.
//!
//! # Accumulation-order contract
//!
//! Every output element is accumulated in ascending inner-index (`p`) order
//! starting from `0.0`, in a dedicated accumulator slot that spans the full
//! `k` extent — there is no cache blocking over `k`, because splitting the
//! reduction would change rounding and break the bitwise parity contract
//! (serial and threaded runs, any `VELA_THREADS`, any variant, either
//! microkernel: identical bits). Threading only partitions output rows; tile
//! boundaries inside a row chunk don't affect per-element order, so any
//! partition yields the same bits.
//!
//! Two microkernels honour this contract:
//!
//! - **Portable** (every host): the multiply-adds are written as separate
//!   `*` and `+` (Rust does not contract to FMA), matching the naive
//!   reference loops in the parity suites.
//! - **AVX** (x86_64 hosts with AVX): the 8×8 tile lives in eight `__m256`
//!   accumulators. For each `p` it loads the packed `B` row once, then per
//!   `A` element does a broadcast, an `_mm256_mul_ps` and a separate
//!   `_mm256_add_ps`. Each lane performs exactly the IEEE single-precision
//!   multiply (rounded) then add (rounded) of the portable kernel, in the
//!   same order, so the two are bitwise identical. It never uses FMA: a
//!   fused multiply-add rounds once instead of twice and would change the
//!   bits. Because only 256-bit `mul`/`add`/`broadcast`/`loadu` are needed,
//!   the path requires `avx` alone, not `avx2` or `fma`.
//!
//! The kernel is chosen once per [`gemm`] call from the host's CPU features
//! ([`Kernel::host`]); there is no knob. [`gemm_with`] runs a named kernel,
//! which benchmarks use to time the portable fallback next to the SIMD one.

use std::ops::Range;

use vela_obs::LazyCounter;

use crate::{parallel, workspace};

/// GEMM dispatches that stayed on the calling thread (below the
/// parallel cutoff or single-lane pool) vs. went to the pool.
static GEMM_SERIAL: LazyCounter = LazyCounter::new("tensor.gemm.serial");
static GEMM_PARALLEL: LazyCounter = LazyCounter::new("tensor.gemm.parallel");

/// Rows per microkernel tile (register-blocked output rows).
pub const MR: usize = 8;

/// Columns per packed `B` panel (register-blocked output columns).
pub const NR: usize = 8;

/// How the logical operands map onto the caller's row-major buffers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layout {
    /// `a: (r, k)`, `b: (k, c)` — plain `A @ B`.
    Nn,
    /// `a: (k, r)`, `b: (k, c)` — `A^T @ B` without materializing `A^T`.
    Tn,
    /// `a: (r, k)`, `b: (c, k)` — `A @ B^T` without materializing `B^T`.
    Nt,
}

/// A GEMM microkernel this host can run.
///
/// Only [`Kernel::PORTABLE`] and what [`Kernel::host`] detects can be
/// constructed, so holding a `Kernel` proves the CPU supports it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Kernel(Isa);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Isa {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx,
}

impl Kernel {
    /// The portable microkernel: runs everywhere, and is the reference the
    /// SIMD path must match bit for bit.
    pub const PORTABLE: Kernel = Kernel(Isa::Portable);

    /// The fastest kernel the host's CPU features allow: AVX on x86_64
    /// hosts that have it, the portable kernel otherwise.
    pub fn host() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx") {
            return Kernel(Isa::Avx);
        }
        Kernel::PORTABLE
    }

    /// Short path name: `"avx"` or `"portable"`.
    pub fn name(self) -> &'static str {
        match self.0 {
            Isa::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx => "avx",
        }
    }
}

/// `out = A @ B` (per `layout`), `out: (r, c)`, inner dimension `k`, on the
/// host's fastest kernel ([`Kernel::host`]).
///
/// `out` is fully overwritten; it does not need to be zeroed.
pub fn gemm(layout: Layout, a: &[f32], b: &[f32], r: usize, k: usize, c: usize, out: &mut [f32]) {
    gemm_with(Kernel::host(), layout, a, b, r, k, c, out);
}

/// [`gemm`] on a chosen `kernel`. Every kernel produces identical bits.
#[allow(clippy::too_many_arguments)] // mirrors `gemm` plus the kernel
pub fn gemm_with(
    kernel: Kernel,
    layout: Layout,
    a: &[f32],
    b: &[f32],
    r: usize,
    k: usize,
    c: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), r * c);
    if r == 0 || c == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }

    let _g = vela_obs::span("tensor.gemm");

    // Pack B once; the packed panels are shared read-only across threads.
    let panels = c.div_ceil(NR);
    let mut bpack_buf = workspace::take_vec_uninit(panels * k * NR);
    {
        let _p = vela_obs::span("tensor.gemm.pack");
        pack_b(layout, b, k, c, &mut bpack_buf);
    }
    let op = Operands {
        layout,
        a,
        bpack: &bpack_buf,
        r,
        k,
        c,
    };

    {
        let _c = vela_obs::span("tensor.gemm.compute");
        par_rows(r, k * c, out, c, |rows, chunk| match kernel.0 {
            Isa::Portable => gemm_rows_portable(op, rows, chunk),
            // SAFETY: `Isa::Avx` is only constructed by `Kernel::host` after
            // `is_x86_feature_detected!("avx")` returned true.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx => unsafe { gemm_rows_avx(op, rows, chunk) },
        });
    }

    workspace::recycle_vec(bpack_buf);
}

/// One GEMM call's operands after `B` has been packed.
#[derive(Clone, Copy)]
struct Operands<'a> {
    layout: Layout,
    a: &'a [f32],
    bpack: &'a [f32],
    r: usize,
    k: usize,
    c: usize,
}

/// Packs `B` into K-major column panels: panel `jp` covers columns
/// `jp*NR .. jp*NR+NR` and stores `bpack[jp*k*NR + p*NR + jj] = B[p, j0+jj]`.
/// Short final panels are zero-padded.
fn pack_b(layout: Layout, b: &[f32], k: usize, c: usize, bpack: &mut [f32]) {
    let panels = c.div_ceil(NR);
    for jp in 0..panels {
        let j0 = jp * NR;
        let jw = NR.min(c - j0);
        let panel = &mut bpack[jp * k * NR..(jp + 1) * k * NR];
        match layout {
            // B is (k, c) row-major: copy row segments.
            Layout::Nn | Layout::Tn => {
                for p in 0..k {
                    let src = &b[p * c + j0..p * c + j0 + jw];
                    let dst = &mut panel[p * NR..p * NR + NR];
                    dst[..jw].copy_from_slice(src);
                    dst[jw..].fill(0.0);
                }
            }
            // B is (c, k) row-major: transpose-gather a column strip. Reads
            // are sequential per source row; this is the one-time cost that
            // turns matmul_nt into a contiguous panel-dot.
            Layout::Nt => {
                if jw < NR {
                    panel.fill(0.0);
                }
                for jj in 0..jw {
                    let src = &b[(j0 + jj) * k..(j0 + jj + 1) * k];
                    for (p, &v) in src.iter().enumerate() {
                        panel[p * NR + jj] = v;
                    }
                }
            }
        }
    }
}

/// Packs an `A` row tile (`rows i0..i0+iw` of the logical `(r, k)` operand)
/// into K-major order: `apack[p*MR + ii] = A[i0+ii, p]`, zero-padding short
/// tiles.
#[inline(always)]
fn pack_a(layout: Layout, a: &[f32], r: usize, k: usize, i0: usize, iw: usize, apack: &mut [f32]) {
    match layout {
        // A is (r, k) row-major: gather MR rows into K-major strips.
        Layout::Nn | Layout::Nt => {
            if iw < MR {
                apack.fill(0.0);
            }
            for ii in 0..iw {
                let src = &a[(i0 + ii) * k..(i0 + ii + 1) * k];
                for (p, &v) in src.iter().enumerate() {
                    apack[p * MR + ii] = v;
                }
            }
        }
        // A is (k, r) row-major: the logical A^T rows are already K-major
        // columns, so each p contributes a contiguous segment.
        Layout::Tn => {
            for p in 0..k {
                let src = &a[p * r + i0..p * r + i0 + iw];
                let dst = &mut apack[p * MR..p * MR + MR];
                dst[..iw].copy_from_slice(src);
                dst[iw..].fill(0.0);
            }
        }
    }
}

/// Computes one `MR x NR` output tile into `acc`, accumulating the full `k`
/// extent in ascending-`p` order. Both operands are packed K-major, so the
/// inner loops read contiguously and vectorize cleanly.
///
/// Kept out of line: inlined into the generic row loop, LLVM's SLP
/// vectorizer packs the accumulators across rows instead of along them and
/// the kernel runs about 3x slower.
#[inline(never)]
fn microkernel(apack: &[f32], bpanel: &[f32], k: usize, acc: &mut [f32; MR * NR]) {
    acc.fill(0.0);
    for p in 0..k {
        let arow = &apack[p * MR..p * MR + MR];
        let brow = &bpanel[p * NR..p * NR + NR];
        for ii in 0..MR {
            let av = arow[ii];
            let dst = &mut acc[ii * NR..ii * NR + NR];
            for (d, &bv) in dst.iter_mut().zip(brow) {
                *d += av * bv;
            }
        }
    }
}

/// [`microkernel`] with the tile in eight `__m256` registers, one per output
/// row: per `p`, one load of the `B` row, then for each `A` element a
/// broadcast, a multiply and a separate add (no FMA; see the module doc).
///
/// # Safety
///
/// Callers outside an AVX-enabled function must have checked that the CPU
/// supports AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn microkernel_avx(apack: &[f32], bpanel: &[f32], k: usize, acc: &mut [f32; MR * NR]) {
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_broadcast_ss, _mm256_loadu_ps, _mm256_mul_ps,
        _mm256_setzero_ps, _mm256_storeu_ps,
    };

    // `bpanel[p*NR .. p*NR+NR]` is loaded through a raw pointer for every
    // `p < k`; checking `apack` up front too lets the compiler drop the
    // per-`p` bounds check on its slice.
    assert!(apack.len() >= k * MR, "A strip shorter than k*MR");
    assert!(bpanel.len() >= k * NR, "B panel shorter than k*NR");

    let mut tile: [__m256; MR] = [_mm256_setzero_ps(); MR];
    for p in 0..k {
        // SAFETY: `p < k` and `bpanel.len() >= k*NR` (asserted above), so
        // the NR = 8 floats at `p*NR` are in bounds; `loadu` needs no
        // alignment.
        let brow = unsafe { _mm256_loadu_ps(bpanel.as_ptr().add(p * NR)) };
        let arow = &apack[p * MR..p * MR + MR];
        for (acc_row, av) in tile.iter_mut().zip(arow) {
            *acc_row = _mm256_add_ps(*acc_row, _mm256_mul_ps(_mm256_broadcast_ss(av), brow));
        }
    }
    for (ii, acc_row) in tile.iter().enumerate() {
        // SAFETY: `acc` holds MR*NR floats, so row `ii < MR` spans
        // `ii*NR .. ii*NR+NR`, in bounds; `storeu` needs no alignment.
        unsafe { _mm256_storeu_ps(acc.as_mut_ptr().add(ii * NR), *acc_row) };
    }
}

/// Computes output rows `rows` into `chunk` (the disjoint sub-slice owned by
/// this range) with the portable [`microkernel`].
fn gemm_rows_portable(op: Operands<'_>, rows: Range<usize>, chunk: &mut [f32]) {
    gemm_rows(op, rows, chunk, microkernel);
}

/// [`gemm_rows_portable`] on [`microkernel_avx`]. The whole row loop,
/// including the `A` packing and tile write-back, is compiled for AVX.
///
/// # Safety
///
/// Callers outside an AVX-enabled function must have checked that the CPU
/// supports AVX (`is_x86_feature_detected!("avx")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn gemm_rows_avx(op: Operands<'_>, rows: Range<usize>, chunk: &mut [f32]) {
    // The closure inherits this function's target features, so the
    // microkernel inlines into the AVX-compiled row loop.
    gemm_rows(op, rows, chunk, |ap, bp, k, acc| {
        microkernel_avx(ap, bp, k, acc)
    });
}

/// Packs each `A` tile of `rows`, then sweeps all `B` panels through
/// `tile_kernel`, writing the real lanes of each tile into `chunk`.
/// Always inlined, so each caller gets its own instantiation compiled with
/// the caller's target features.
#[inline(always)]
fn gemm_rows(
    op: Operands<'_>,
    rows: Range<usize>,
    chunk: &mut [f32],
    tile_kernel: impl Fn(&[f32], &[f32], usize, &mut [f32; MR * NR]),
) {
    let Operands {
        layout,
        a,
        bpack,
        r,
        k,
        c,
    } = op;
    let base = rows.start;
    let panels = c.div_ceil(NR);
    let mut apack = workspace::take_vec_uninit(k * MR);
    let mut acc = [0.0f32; MR * NR];

    let mut i0 = rows.start;
    while i0 < rows.end {
        let iw = MR.min(rows.end - i0);
        pack_a(layout, a, r, k, i0, iw, &mut apack);
        for jp in 0..panels {
            let j0 = jp * NR;
            let jw = NR.min(c - j0);
            tile_kernel(&apack, &bpack[jp * k * NR..(jp + 1) * k * NR], k, &mut acc);
            for ii in 0..iw {
                let dst = &mut chunk[(i0 - base + ii) * c + j0..(i0 - base + ii) * c + j0 + jw];
                dst.copy_from_slice(&acc[ii * NR..ii * NR + jw]);
            }
        }
        i0 += iw;
    }

    workspace::recycle_vec(apack);
}

/// Runs `kernel` over disjoint row ranges of the output, splitting across
/// the current pool only when the total work clears the parallel cutoff.
fn par_rows(
    rows: usize,
    work_per_row: usize,
    out: &mut [f32],
    cols: usize,
    kernel: impl Fn(Range<usize>, &mut [f32]) + Sync,
) {
    if rows * work_per_row.max(1) < parallel::par_cutoff() || parallel::current_threads() <= 1 {
        GEMM_SERIAL.add(1);
        kernel(0..rows, out);
        return;
    }
    GEMM_PARALLEL.add(1);
    let min_rows = (parallel::PAR_MIN_WORK / work_per_row.max(1)).max(1);
    let slots = parallel::DisjointSlots::new(out);
    parallel::par_ranges(rows, min_rows, |range| {
        // SAFETY: ranges from `par_ranges` are disjoint, so each chunk is
        // the sole accessor of its row slice.
        let chunk = unsafe {
            std::slice::from_raw_parts_mut(slots.get(range.start * cols), range.len() * cols)
        };
        kernel(range, chunk);
    });
}

#[cfg(test)]
mod tests {
    //! Bitwise parity of the row kernels, called directly rather than
    //! through [`gemm`]'s dispatch, so both kernels are checked on any host
    //! that can run them.

    use super::*;
    use crate::rng::DetRng;

    /// The `(r, k, c)` shapes of `tests/parallel_parity.rs`.
    const PARITY_SHAPES: [(usize, usize, usize); 10] = [
        (1, 1, 1),
        (1, 5, 3),
        (8, 8, 8),
        (9, 4, 9),
        (16, 16, 16),
        (15, 16, 17),
        (17, 9, 33),
        (33, 64, 7),
        (96, 64, 80),
        (65, 33, 131),
    ];

    /// Inner extents around the 8-wide tile.
    const KS: [usize; 5] = [1, 7, 8, 9, 33];

    /// Row and column counts one below and one past the tile edges.
    const EDGES: [usize; 4] = [7, 9, 15, 17];

    const LAYOUTS: [Layout; 3] = [Layout::Nn, Layout::Tn, Layout::Nt];

    fn shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = PARITY_SHAPES.to_vec();
        for &r in &EDGES {
            for &k in &KS {
                for &c in &EDGES {
                    shapes.push((r, k, c));
                }
            }
        }
        shapes
    }

    fn random(len: usize, rng: &mut DetRng) -> Vec<f32> {
        (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect()
    }

    /// The naive ascending-`p` loop from `0.0`, reading the operands in
    /// `layout`'s row-major convention.
    fn naive_bits(layout: Layout, a: &[f32], b: &[f32], r: usize, k: usize, c: usize) -> Vec<u32> {
        let a_at = |i: usize, p: usize| match layout {
            Layout::Nn | Layout::Nt => a[i * k + p],
            Layout::Tn => a[p * r + i],
        };
        let b_at = |p: usize, j: usize| match layout {
            Layout::Nn | Layout::Tn => b[p * c + j],
            Layout::Nt => b[j * k + p],
        };
        let mut out = Vec::with_capacity(r * c);
        for i in 0..r {
            for j in 0..c {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a_at(i, p) * b_at(p, j);
                }
                out.push(acc.to_bits());
            }
        }
        out
    }

    /// Packs `B` and runs `rows_kernel` over all `r` rows.
    fn kernel_bits(
        rows_kernel: impl Fn(Operands<'_>, Range<usize>, &mut [f32]),
        layout: Layout,
        a: &[f32],
        b: &[f32],
        (r, k, c): (usize, usize, usize),
    ) -> Vec<u32> {
        let mut bpack = vec![0.0; c.div_ceil(NR) * k * NR];
        pack_b(layout, b, k, c, &mut bpack);
        let op = Operands {
            layout,
            a,
            bpack: &bpack,
            r,
            k,
            c,
        };
        let mut out = vec![f32::NAN; r * c];
        rows_kernel(op, 0..r, &mut out);
        out.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn portable_and_avx_kernels_match_naive_loop_bitwise() {
        #[cfg(target_arch = "x86_64")]
        let avx = std::arch::is_x86_feature_detected!("avx");
        #[cfg(not(target_arch = "x86_64"))]
        let avx = false;
        if !avx {
            println!("AVX not detected on this host: skipping the AVX kernel arm");
        }

        for (case, (r, k, c)) in shapes().into_iter().enumerate() {
            let mut rng = DetRng::new(500 + case as u64);
            let a = random(r * k, &mut rng);
            // `b` is (k, c) for nn/tn and (c, k) for nt: same length.
            let b = random(k * c, &mut rng);
            for layout in LAYOUTS {
                let want = naive_bits(layout, &a, &b, r, k, c);
                let portable = kernel_bits(gemm_rows_portable, layout, &a, &b, (r, k, c));
                assert_eq!(portable, want, "portable {layout:?} {r}x{k}x{c}");
                #[cfg(target_arch = "x86_64")]
                if avx {
                    let simd = kernel_bits(
                        // SAFETY: AVX support was detected above.
                        |op, rows, chunk| unsafe { gemm_rows_avx(op, rows, chunk) },
                        layout,
                        &a,
                        &b,
                        (r, k, c),
                    );
                    assert_eq!(simd, portable, "avx vs portable {layout:?} {r}x{k}x{c}");
                }
            }
        }
    }
}
