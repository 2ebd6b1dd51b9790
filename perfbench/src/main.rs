//! The eyeWnder benchmark: three workloads driven through the system's
//! public API, an untraced run for the end-to-end metrics and a traced
//! run that times each layer through the `ServiceBus` seam.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload weekly_round --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.

mod adapter;
mod alloc;
mod ingest;
mod measure;
mod oracle;
mod rounds;
mod seam;

use measure::{Measured, TracedOp};
use seam::{Layer, LAYERS};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metrics in print order: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

fn end_to_end(m: &Measured) -> Metrics {
    let rate = if m.timed_s > 0.0 {
        m.items as f64 / m.timed_s
    } else {
        0.0
    };
    vec![
        (
            "latency_ms".into(),
            m.latency_ms.unwrap_or_else(|| median(&m.op_ms)),
            "ms",
        ),
        ("setup_s".into(), median(&m.setup_s), "s"),
        ("rate_per_s".into(), rate, "1/s"),
        ("peak_rss_mb".into(), peak_rss_mb(), "MiB"),
    ]
}

fn per_layer(m: &Measured) -> Metrics {
    let ops = &m.traced;
    let per_op =
        |f: &dyn Fn(&TracedOp) -> f64| -> f64 { median(&ops.iter().map(f).collect::<Vec<_>>()) };
    let mut out: Metrics = Vec::new();
    for (i, layer) in LAYERS.iter().enumerate() {
        let v = per_op(&|op| op.trace.nanos[i] as f64 / 1e6);
        out.push((format!("{}_ms", layer.name()), v, "ms"));
    }
    let report = LAYERS
        .iter()
        .position(|&l| l == Layer::Report)
        .expect("report layer listed");
    out.push((
        "client.report_share_pct".into(),
        per_op(&|op| 100.0 * op.trace.nanos[report] as f64 / op.trace.wall_nanos.max(1) as f64),
        "%",
    ));
    let traced_ms = median(&ops.iter().map(|op| op.ms).collect::<Vec<_>>());
    out.push(("trace.op_ms".into(), traced_ms, "ms"));
    // Traced against plain wall time over pairs of ops doing the same
    // work, so the overhead does not pick up differences between ops.
    let ratios: Vec<f64> = m
        .pairs
        .iter()
        .map(|&(plain, traced)| traced / plain)
        .collect();
    out.push((
        "trace.overhead_pct".into(),
        if ratios.is_empty() {
            0.0
        } else {
            100.0 * (median(&ratios) - 1.0)
        },
        "%",
    ));
    out.push(("trace.ops".into(), ops.len() as f64, "count"));
    out.push(("host.ref_kernel_ms".into(), median(&m.kernel_ms), "ms"));
    out.push((
        "oprf.worker_busy_ratio".into(),
        m.busy_ratio.unwrap_or(0.0),
        "ratio",
    ));
    let mut count = |name: &str, unit, f: fn(&TracedOp) -> u64| {
        out.push((name.into(), per_op(&|op| f(op) as f64), unit));
    };
    count("cluster.envelopes", "count", |op| op.trace.counts.envelopes);
    count("cluster.upload_bytes", "bytes", |op| {
        op.trace.counts.upload_bytes
    });
    count("journal.records", "count", |op| op.counters.journal_seq);
    count("journal.control_records", "count", |op| {
        op.counters.control_seq
    });
    count("oprf.elements", "count", |op| op.trace.counts.oprf_elements);
    for (i, layer) in LAYERS.iter().enumerate() {
        out.push((
            format!("alloc.count.{}", layer.name()),
            per_op(&|op| op.trace.counts.allocs[i] as f64),
            "count",
        ));
    }
    for (i, layer) in LAYERS.iter().enumerate() {
        out.push((
            format!("alloc.bytes.{}", layer.name()),
            per_op(&|op| op.trace.counts.alloc_bytes[i] as f64),
            "bytes",
        ));
    }
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some(measure::REF_KERNEL_FLAG) {
        println!("{}", measure::ref_kernel());
        return;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <weekly_round|churn_campaign|oprf_ingest> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = adapter::enforce_fresh_state() {
        eprintln!("perfbench: fresh-state check failed: {e}");
        std::process::exit(1);
    }
    let run = match args.workload.as_str() {
        "weekly_round" => rounds::weekly_round,
        "churn_campaign" => rounds::churn_campaign,
        "oprf_ingest" => ingest::oprf_ingest,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let m = run(args.seed, args.seconds, args.trace);

    println!(
        "workload {} seed {} seconds {} trace {} threads {} (host parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        adapter::THREADS,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "setup_s median over {} set-ups: {:?}",
        m.setup_s.len(),
        m.setup_s
    );
    println!(
        "ops attempted {} failed {}; plain ops {}, traced ops {}; host.ref_kernel_ms median {:.4} over {} samples",
        m.attempted,
        m.failed,
        m.op_ms.len(),
        m.traced.len(),
        median(&m.kernel_ms),
        m.kernel_ms.len()
    );
    if !m.op_ms.is_empty() {
        let mut sorted = m.op_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
        println!(
            "latency_ms samples: min {:.2} q1 {:.2} median {:.2} q3 {:.2} max {:.2}",
            at(0.0),
            at(0.25),
            median(&m.op_ms),
            at(0.75),
            at(1.0)
        );
    }
    for p in &m.problems {
        println!("self-check failed: {p}");
    }
    let metrics = if args.trace {
        per_layer(&m)
    } else {
        end_to_end(&m)
    };
    for (name, value, unit) in &metrics {
        let samples = match name.as_str() {
            "latency_ms" => m.op_ms.len(),
            "setup_s" => m.setup_s.len(),
            _ if args.trace => m.traced.len(),
            _ => 1,
        };
        println!("{name:<32} {value:>16.4} {unit:<6} n={samples}");
    }
    let correct = m.problems.is_empty() && m.failed == 0 && m.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted.max(1),
        m.failed,
        body.join(", ")
    );
}
