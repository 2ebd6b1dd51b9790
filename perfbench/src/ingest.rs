//! The `oprf_ingest` workload: fresh clients map their whole first-week
//! batch through a 2048-bit OPRF service, two clients in flight in a
//! closed loop on two long-lived load threads.
//!
//! The load threads live as long as the set-up, so the warm-up ops warm
//! the same per-thread arithmetic workspaces the timed ops use. The
//! closed loop runs in steps: each step starts one client per thread,
//! clients of similar batch size together, and the next step starts
//! when both have finished. Steps run in waves
//! of one batch per client; the host reference kernel is timed between
//! waves, while the load threads are idle. In a traced run a client's
//! batch is traced in every other wave, so each client has a plain and
//! a traced op to pair.
//!
//! `latency_ms` here is the upper quartile of the plain ops' wall time
//! per ad ID mapped. Per ad ID because that is the paper's per-ad
//! mapping latency, and because a whole batch's time mostly measures
//! how many ads the seed's client happened to see. The upper quartile,
//! and steps that wait for both threads, because on a shared host one
//! of the two cores often runs these RSA ops about 1.8x slower than the
//! other for tens of seconds: with half of the samples from each core,
//! a median falls between the two modes and jumps with the host, while
//! the upper quartile and the step time follow the slower core, as a
//! round's fork-join report build does.

use crate::adapter::{OprfRig, THREADS};
use crate::alloc;
use crate::measure::{
    derive, Measured, TracedOp, CLIENT_SEED, MIN_OPS, OPRF_KEY_SEED, REPEAT_TRACED_OPS,
};
use crate::seam::{AllocScope, OpKind, OpTrace};
use ew_core::AdKey;
use ew_simnet::{DriverScale, WeeklyDriver};
use std::collections::{BTreeSet, HashMap};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A load thread that has not answered in this long is gone.
const LOAD_THREAD_TIMEOUT: Duration = Duration::from_secs(120);

/// One client's first-week batch.
struct Batch {
    id: u32,
    urls: Vec<String>,
    /// Distinct URLs: the ad IDs the op maps.
    distinct: u64,
}

/// What the load threads share.
struct Shared {
    rig: OprfRig,
    batches: Vec<Batch>,
    seed: u64,
}

#[derive(Debug, Clone, Copy)]
struct Job {
    index: u64,
    batch: usize,
    traced: bool,
}

/// One finished op.
struct OprfOp {
    job: Job,
    ms: f64,
    keys: Vec<AdKey>,
    trace: Option<OpTrace>,
}

impl Shared {
    /// One op: a fresh client, seeded by the op's index, maps its batch.
    fn op(&self, job: Job) -> OprfOp {
        let b = &self.batches[job.batch];
        let mut client = self
            .rig
            .fresh_client(b.id, derive(self.seed, CLIENT_SEED ^ (job.index << 8)));
        let urls: Vec<&str> = b.urls.iter().map(String::as_str).collect();
        let t0 = Instant::now();
        let (keys, trace) = if job.traced {
            let mut trace = OpTrace::start(OpKind::Oprf, AllocScope::Thread);
            let keys = self.rig.map_batch(&mut client, &urls, Some(&mut trace));
            trace.finish();
            (keys, Some(trace))
        } else {
            (self.rig.map_batch(&mut client, &urls, None), None)
        };
        OprfOp {
            job,
            ms: t0.elapsed().as_secs_f64() * 1e3,
            keys,
            trace,
        }
    }
}

/// The long-lived load threads.
struct LoadThreads {
    jobs: Vec<mpsc::Sender<Job>>,
    results: mpsc::Receiver<(usize, OprfOp)>,
    handles: Vec<JoinHandle<()>>,
}

impl LoadThreads {
    fn start(shared: &Arc<Shared>) -> Self {
        let (result_tx, results) = mpsc::channel();
        let mut jobs = Vec::new();
        let mut handles = Vec::new();
        for worker in 0..THREADS {
            let (job_tx, job_rx) = mpsc::channel::<Job>();
            let shared = Arc::clone(shared);
            let result_tx = result_tx.clone();
            handles.push(std::thread::spawn(move || {
                for job in job_rx {
                    if result_tx.send((worker, shared.op(job))).is_err() {
                        break;
                    }
                }
            }));
            jobs.push(job_tx);
        }
        LoadThreads {
            jobs,
            results,
            handles,
        }
    }

    /// One step of the closed loop: starts up to one job per thread and
    /// returns (thread, op) for each once every one has finished.
    fn step(&self, jobs: &[Job]) -> Vec<(usize, OprfOp)> {
        assert!(jobs.len() <= THREADS, "one job per load thread");
        for (worker, job) in jobs.iter().enumerate() {
            self.jobs[worker].send(*job).expect("load thread alive");
        }
        (0..jobs.len())
            .map(|_| {
                self.results
                    .recv_timeout(LOAD_THREAD_TIMEOUT)
                    .expect("load thread answered")
            })
            .collect()
    }
}

impl Drop for LoadThreads {
    fn drop(&mut self) {
        // Closing the job channels ends the threads' loops.
        self.jobs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

struct Ingest {
    shared: Arc<Shared>,
    reference: HashMap<String, AdKey>,
    threads: LoadThreads,
}

impl Ingest {
    fn build(seed: u64) -> Result<Self, String> {
        let driver = WeeklyDriver::new(seed, DriverScale::Fraction(20), 25);
        let log = driver.week(0);
        let scenario = driver.scenario();
        let mut batches: Vec<Batch> = (0..driver.cohort() as u32)
            .map(|id| Batch {
                id,
                urls: Vec::new(),
                distinct: 0,
            })
            .collect();
        for r in log.records() {
            if let Some(batch) = batches.get_mut(r.user as usize) {
                batch.urls.push(scenario.campaigns[r.ad as usize].ad.url());
            }
        }
        batches.retain(|b| !b.urls.is_empty());
        for batch in &mut batches {
            batch.distinct = batch.urls.iter().collect::<BTreeSet<_>>().len() as u64;
        }
        let rig = OprfRig::new(derive(seed, OPRF_KEY_SEED));
        let reference = reference_mapping(&rig, &batches);
        let shared = Arc::new(Shared { rig, batches, seed });
        let threads = LoadThreads::start(&shared);
        let ingest = Ingest {
            shared,
            reference,
            threads,
        };
        // Warm-up: every load thread maps the largest batch once, so its
        // arithmetic workspaces reach full size before any timed op and
        // no timed op's allocations depend on what the thread ran before.
        let largest = (0..ingest.batches().len())
            .max_by_key(|&b| ingest.batches()[b].distinct)
            .expect("the week has impressions");
        let warm: Vec<Job> = (0..THREADS)
            .map(|k| Job {
                index: u64::MAX - k as u64,
                batch: largest,
                traced: false,
            })
            .collect();
        for (_, op) in ingest.threads.step(&warm) {
            ingest.check(&op)?;
        }
        Ok(ingest)
    }

    fn batches(&self) -> &[Batch] {
        &self.shared.batches
    }

    /// The oracle: every URL maps to its reference ad ID.
    fn check(&self, op: &OprfOp) -> Result<u64, String> {
        let batch = &self.batches()[op.job.batch];
        if op.keys.len() != batch.urls.len() {
            return Err(format!(
                "client {}: {} keys for {} URLs",
                batch.id,
                op.keys.len(),
                batch.urls.len()
            ));
        }
        for (url, key) in batch.urls.iter().zip(&op.keys) {
            if self.reference.get(url) != Some(key) {
                return Err(format!("client {}: {url} mapped to {key}", batch.id));
            }
        }
        Ok(batch.distinct)
    }
}

/// The untimed reference mapping of every distinct URL, split over
/// [`THREADS`] scoped threads.
fn reference_mapping(rig: &OprfRig, batches: &[Batch]) -> HashMap<String, AdKey> {
    let unique: Vec<&String> = batches
        .iter()
        .flat_map(|b| &b.urls)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let chunk = unique.len().div_ceil(THREADS).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = unique
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|url| ((*url).clone(), rig.reference_key(url)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}

pub fn oprf_ingest(seed: u64, seconds: f64, traced: bool) -> Measured {
    let mut measured = Measured::default();
    let ingest = match measured.set_up(|| Ingest::build(seed)) {
        Ok(ingest) => ingest,
        Err(e) => {
            measured.fail(format!("set-up: {e}"));
            return measured;
        }
    };
    let clients = ingest.batches().len();
    // Steps pair clients of similar batch size, so a step's time does not
    // depend on which of the two cores got the larger batch.
    let mut by_size: Vec<usize> = (0..clients).collect();
    by_size.sort_by_key(|&b| std::cmp::Reverse(ingest.batches()[b].distinct));
    alloc::set_counting(traced);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut busy = [0f64; THREADS];
    let mut plain_by_batch: HashMap<usize, f64> = HashMap::new();
    let mut traced_by_batch: HashMap<usize, f64> = HashMap::new();
    let mut traced_jobs: Vec<Job> = Vec::new();
    let mut wave = 0u64;
    loop {
        measured.time_ref_kernel();
        let served_before = ingest.shared.rig.requests_served();
        let mut mapped = 0u64;
        let jobs: Vec<Job> = by_size
            .iter()
            .map(|&batch| Job {
                index: wave * clients as u64 + batch as u64,
                batch,
                traced: traced && (batch as u64 + wave) % 2 == 1,
            })
            .collect();
        for step in jobs.chunks(THREADS) {
            if Instant::now() >= deadline && measured.attempted as usize >= MIN_OPS {
                break;
            }
            let t0 = Instant::now();
            let ops = ingest.threads.step(step);
            let wall = t0.elapsed().as_secs_f64();
            let mut items = 0u64;
            for (worker, op) in ops {
                busy[worker] += op.ms;
                measured.attempted += 1;
                let batch = &ingest.batches()[op.job.batch];
                mapped += batch.distinct;
                match ingest.check(&op) {
                    Ok(n) => items += n,
                    Err(e) => {
                        measured.failed += 1;
                        eprintln!("op {} failed: {e}", op.job.index);
                    }
                }
                match op.trace {
                    Some(trace) => {
                        if trace.counts.oprf_elements != batch.distinct {
                            measured.fail(format!(
                                "op {}: seam saw {} elements, the batch has {}",
                                op.job.index, trace.counts.oprf_elements, batch.distinct
                            ));
                        }
                        traced_by_batch.insert(op.job.batch, op.ms);
                        traced_jobs.push(op.job);
                        measured.traced.push(TracedOp {
                            trace,
                            counters: Default::default(),
                            ms: op.ms,
                        });
                    }
                    None => {
                        plain_by_batch.insert(op.job.batch, op.ms);
                        measured.op_ms.push(op.ms / batch.distinct as f64);
                    }
                }
            }
            if !traced {
                measured.items += items;
                measured.timed_s += wall;
            }
        }
        let served = ingest.shared.rig.requests_served() - served_before;
        if served != mapped {
            measured.fail(format!(
                "wave {wave}: the server counted {served} evaluations, the ops mapped {mapped}"
            ));
        }
        wave += 1;
        if Instant::now() >= deadline && measured.attempted as usize >= MIN_OPS {
            break;
        }
    }
    alloc::set_counting(false);
    measured.latency_ms = Some(upper_quartile(&measured.op_ms));
    let mean = busy.iter().sum::<f64>() / THREADS as f64;
    if mean > 0.0 {
        measured.busy_ratio = Some(busy.iter().copied().fold(0.0, f64::max) / mean);
    }
    if traced {
        for (batch, &t) in &traced_by_batch {
            if let Some(&p) = plain_by_batch.get(batch) {
                measured.pairs.push((p, t));
            }
        }
        measured.reconcile_intervals();
        repeat_traced(&mut measured, &ingest, &traced_jobs);
    }
    measured
}

/// The upper quartile (nearest rank) of `values`, 0 if empty.
fn upper_quartile(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n => sorted[(3 * n).div_ceil(4) - 1],
    }
}

/// Runs the first traced ops again, with fresh clients seeded as
/// before, on the same warm load threads, and compares their counts.
fn repeat_traced(measured: &mut Measured, ingest: &Ingest, traced_jobs: &[Job]) {
    alloc::set_counting(true);
    let jobs: Vec<Job> = traced_jobs
        .iter()
        .take(REPEAT_TRACED_OPS)
        .copied()
        .collect();
    let mut again: Vec<OprfOp> = jobs
        .chunks(THREADS)
        .flat_map(|step| ingest.threads.step(step))
        .map(|(_, op)| op)
        .collect();
    alloc::set_counting(false);
    again.sort_by_key(|op| jobs.iter().position(|j| j.index == op.job.index));
    let problems: Vec<String> = measured
        .traced
        .iter()
        .zip(&again)
        .filter_map(|(first, repeat)| {
            let repeat = &repeat.trace.as_ref().expect("traced job").counts;
            (first.trace.counts != *repeat).then(|| {
                format!(
                    "counts differ between two runs of one op at one seed: {:?} vs {repeat:?}",
                    first.trace.counts
                )
            })
        })
        .collect();
    for p in problems {
        measured.fail(p);
    }
}
