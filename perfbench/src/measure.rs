//! What every workload shares: seeds, the host reference kernel, the
//! set-up repetition and the record of what a run measured.
//!
//! Every workload is set up [`SETUPS`] times (the median is `setup_s`)
//! and then measured for the run's seconds. Between ops the host
//! reference kernel is timed; oracle checks run outside the timed
//! region. A traced run puts half of its ops through the bus seam with
//! allocation counting on and runs the other half plain, so tracing
//! overhead is an A/B inside one run.

use crate::adapter::{Counters, THREADS};
use crate::seam::OpTrace;
use std::hint::black_box;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Untimed ops at the end of each set-up.
pub const WARMUP_OPS: usize = 2;
/// Timed ops a run makes even when its seconds run out first.
pub const MIN_OPS: usize = 6;
/// Traced ops repeated for the exact-count check.
pub const REPEAT_TRACED_OPS: usize = 2;

pub const SYSTEM_SEED: u64 = 1;
pub const CAMPAIGN_SEED: u64 = 2;
pub const OPRF_KEY_SEED: u64 = 3;
pub const CLIENT_SEED: u64 = 4;

/// Derives an independent seed for one purpose from the workload seed.
pub fn derive(seed: u64, purpose: u64) -> u64 {
    // splitmix64 finaliser.
    let mut z = seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The flag that makes the benchmark binary run [`ref_kernel`] once and
/// print its time in milliseconds.
pub const REF_KERNEL_FLAG: &str = "--ref-kernel";

/// A fixed integer kernel that uses no repository code. On each of
/// [`THREADS`] threads at once, as the workloads use them, it scatters a
/// xorshift walk into a 16 KiB table and streams read-modify-write
/// passes over a 4 MiB buffer, twice the size of one core's L2, so it
/// slows when other tenants of the host contend for cores, the shared
/// cache or memory. Returns its wall time in milliseconds, buffers
/// allocated and touched beforehand.
pub fn ref_kernel() -> f64 {
    const WORDS: usize = 1 << 19;
    let start = std::sync::Barrier::new(THREADS + 1);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let start = &start;
            s.spawn(move || {
                let mut buffer = vec![t as u64; WORDS];
                let mut table = [0u32; 4096];
                start.wait();
                let mut x: u64 = 0x9E37_79B9_7F4A_7C15 ^ t as u64;
                for i in 0..black_box(1_000_000u32) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let j = (x as usize) & 4095;
                    table[j] = table[j].wrapping_add(i ^ (x >> 32) as u32);
                }
                for pass in 0..black_box(4u64) {
                    for (k, word) in buffer.iter_mut().enumerate() {
                        *word = word.wrapping_mul(31).wrapping_add(k as u64 ^ pass);
                    }
                }
                black_box((&table, &buffer));
            });
        }
        start.wait();
        let started = Instant::now();
        // Leaving the scope joins both threads.
        started
    })
    .elapsed()
    .as_secs_f64()
        * 1e3
}

/// Runs [`ref_kernel`] in a child process of this binary, so that its
/// buffers never count towards this process's peak memory. `None` if
/// the child could not run.
pub fn ref_kernel_ms() -> Option<f64> {
    let exe = std::env::current_exe().ok()?;
    let out = std::process::Command::new(exe)
        .arg(REF_KERNEL_FLAG)
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout).ok()?.trim().parse().ok()
}

/// One traced op's ledger and the public counters' deltas around it.
#[derive(Debug)]
pub struct TracedOp {
    pub trace: OpTrace,
    pub counters: Counters,
    /// The op's wall time, measured exactly as a plain op's.
    pub ms: f64,
}

/// Everything a run measured.
#[derive(Debug, Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    /// The plain ops' wall times (per ad ID mapped, on `oprf_ingest`).
    pub op_ms: Vec<f64>,
    /// `latency_ms` when it is not the median of `op_ms`.
    pub latency_ms: Option<f64>,
    pub traced: Vec<TracedOp>,
    /// (plain, traced) wall times of ops doing the same work.
    pub pairs: Vec<(f64, f64)>,
    pub kernel_ms: Vec<f64>,
    /// Client reports finalized, or ad IDs mapped, by the plain ops.
    pub items: u64,
    /// Wall time the plain ops' items were produced in.
    pub timed_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Set-up and self-check failures.
    pub problems: Vec<String>,
    /// Max/mean busy time across the OPRF load threads.
    pub busy_ratio: Option<f64>,
}

impl Measured {
    pub fn fail(&mut self, problem: String) {
        self.problems.push(problem);
    }

    /// Runs `build` [`SETUPS`] times, timing each, and keeps the last.
    pub fn set_up<T>(&mut self, build: impl Fn() -> Result<T, String>) -> Result<T, String> {
        let mut kept = None;
        for _ in 0..SETUPS {
            drop(kept.take());
            let started = Instant::now();
            let built = build()?;
            self.setup_s.push(started.elapsed().as_secs_f64());
            kept = Some(built);
        }
        Ok(kept.expect("at least one set-up"))
    }

    /// Times the host reference kernel once.
    pub fn time_ref_kernel(&mut self) {
        match ref_kernel_ms() {
            Some(ms) => self.kernel_ms.push(ms),
            None => self.fail("the reference kernel's child process failed".into()),
        }
    }

    /// Checks that each traced op's intervals tile its wall time.
    pub fn reconcile_intervals(&mut self) {
        let problems: Vec<String> = self
            .traced
            .iter()
            .enumerate()
            .filter(|(_, op)| op.trace.interval_sum() != op.trace.wall_nanos)
            .map(|(k, op)| {
                format!(
                    "traced op {k}: intervals sum to {} ns, wall is {} ns",
                    op.trace.interval_sum(),
                    op.trace.wall_nanos
                )
            })
            .collect();
        for p in problems {
            self.fail(p);
        }
    }
}
