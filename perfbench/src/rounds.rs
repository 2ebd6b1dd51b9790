//! The two round workloads, `weekly_round` and `churn_campaign`: one op
//! at a time on the driving thread. In a traced run odd-numbered ops go
//! through the bus seam; afterwards a second set-up at the same seed
//! repeats the first traced ops and their counts must match exactly.

use crate::adapter::{ClusterRig, Counters, RoundResult, MIN_CLIENTS};
use crate::alloc;
use crate::measure::{
    derive, Measured, TracedOp, CAMPAIGN_SEED, MIN_OPS, REPEAT_TRACED_OPS, SYSTEM_SEED, WARMUP_OPS,
};
use crate::oracle;
use crate::seam::{AllocScope, OpCounts, OpKind, OpTrace};
use ew_core::GlobalView;
use ew_simnet::{ChurnCampaign, ChurnConfig, DriverScale, ImpressionLog, WeeklyDriver};
use ew_system::{InProcBus, WireBus};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Epochs the churn schedule holds (far more than a run consumes).
const CAMPAIGN_EPOCHS: u32 = 400;

fn counters_delta(before: Counters, after: Counters) -> Counters {
    Counters {
        routed: after.routed - before.routed,
        // Every op opens a round, and opening a round restarts the
        // round log at sequence 1: the op's records are all of them.
        journal_seq: after.journal_seq,
        control_seq: after.control_seq - before.control_seq,
    }
}

/// A workload whose ops run one at a time on the driving thread.
trait Sequential {
    /// The timed op.
    fn op(&mut self, trace: Option<&mut OpTrace>) -> RoundResult;
    /// The untimed oracle check of the op just run; returns its items.
    fn check(&mut self, result: &RoundResult) -> Result<u64, String>;
    fn counters(&self) -> Counters;
    /// True when the workload has no further input.
    fn exhausted(&self) -> bool {
        false
    }
}

fn run_sequential(
    workload: &mut impl Sequential,
    seconds: f64,
    traced: bool,
    max_ops: Option<usize>,
    measured: &mut Measured,
) {
    let started = Instant::now();
    let mut i = 0usize;
    while (started.elapsed().as_secs_f64() < seconds || i < MIN_OPS)
        && max_ops.is_none_or(|m| i < m)
        && !workload.exhausted()
    {
        measured.time_ref_kernel();
        let seam = traced && i % 2 == 1;
        let before = workload.counters();
        let (result, ms, trace) = if seam {
            alloc::set_counting(true);
            let t0 = Instant::now();
            let mut trace = OpTrace::start(OpKind::Round, AllocScope::Global);
            let result = workload.op(Some(&mut trace));
            trace.finish();
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            alloc::set_counting(false);
            (result, ms, Some(trace))
        } else {
            let t0 = Instant::now();
            let result = workload.op(None);
            (result, t0.elapsed().as_secs_f64() * 1e3, None)
        };
        let after = workload.counters();
        measured.attempted += 1;
        match workload.check(&result) {
            Ok(items) => {
                if trace.is_none() {
                    measured.items += items;
                    measured.timed_s += ms / 1e3;
                }
            }
            Err(e) => {
                measured.failed += 1;
                eprintln!("op {i} failed: {e}");
            }
        }
        if let (Some(_), Some(&plain)) = (&trace, measured.op_ms.last()) {
            measured.pairs.push((plain, ms));
        }
        match trace {
            Some(trace) => measured.traced.push(TracedOp {
                trace,
                counters: counters_delta(before, after),
                ms,
            }),
            None => measured.op_ms.push(ms),
        }
        i += 1;
    }
}

/// The counts of a traced op that must repeat exactly at one seed.
fn exact_counts(op: &TracedOp) -> (OpCounts, Counters) {
    (op.trace.counts.clone(), op.counters)
}

/// Repeats the first traced ops on a second set-up at the same seed.
fn check_repeat<W: Sequential>(measured: &mut Measured, second: Result<W, String>) {
    let mut second = match second {
        Ok(w) => w,
        Err(e) => return measured.fail(format!("second set-up: {e}")),
    };
    let traced = measured.traced.len().min(REPEAT_TRACED_OPS);
    let mut again = Measured::default();
    run_sequential(&mut second, 0.0, true, Some(2 * traced), &mut again);
    let mismatches: Vec<String> = measured
        .traced
        .iter()
        .zip(&again.traced)
        .enumerate()
        .filter(|(_, (first, repeat))| exact_counts(first) != exact_counts(repeat))
        .map(|(k, (first, repeat))| {
            format!(
                "traced op {k}: counts differ between two set-ups at one seed: {:?} vs {:?}",
                exact_counts(first),
                exact_counts(repeat)
            )
        })
        .collect();
    for m in mismatches {
        measured.fail(m);
    }
    if again.failed > 0 {
        measured.fail("second set-up: an op failed its oracle check".into());
    }
}

fn round_reconcile(measured: &mut Measured) {
    measured.reconcile_intervals();
    let mut problems = Vec::new();
    for (k, op) in measured.traced.iter().enumerate() {
        if op.trace.counts.envelopes != op.counters.routed {
            problems.push(format!(
                "traced op {k}: seam saw {} uplink envelopes, telemetry routed {}",
                op.trace.counts.envelopes, op.counters.routed
            ));
        }
    }
    for p in problems {
        measured.fail(p);
    }
}

/// Round numbers are process-wide, so no round number is ever replayed.
static NEXT_ROUND: AtomicU64 = AtomicU64::new(1);

struct Weekly {
    rig: ClusterRig<WireBus>,
    reference: GlobalView,
    cohort: usize,
    last_round: u64,
}

impl Weekly {
    fn build(seed: u64) -> Result<Self, String> {
        let driver = WeeklyDriver::new(seed, DriverScale::Fraction(20), 25);
        let log = driver.week(0);
        let cohort = driver.cohort();
        let rig = ClusterRig::weekly(derive(seed, SYSTEM_SEED), driver.scenario(), &log, cohort);
        let everyone: BTreeSet<u32> = (0..cohort as u32).collect();
        let reference =
            oracle::reference_view(&log, &everyone, |ad| rig.ad_key_of(ad), rig.view_params())?;
        let mut weekly = Weekly {
            rig,
            reference,
            cohort,
            last_round: 0,
        };
        for _ in 0..WARMUP_OPS {
            let result = weekly.op(None);
            weekly.check(&result)?;
        }
        Ok(weekly)
    }
}

impl Sequential for Weekly {
    fn op(&mut self, trace: Option<&mut OpTrace>) -> RoundResult {
        let round = NEXT_ROUND.fetch_add(1, Ordering::Relaxed);
        self.rig.round(round, trace)
    }

    fn check(&mut self, result: &RoundResult) -> Result<u64, String> {
        if result.round <= self.last_round {
            return Err(format!("round {} replayed", result.round));
        }
        self.last_round = result.round;
        if result.reports != self.cohort || !result.missing.is_empty() {
            return Err(format!(
                "round {}: {} reports, missing {:?}",
                result.round, result.reports, result.missing
            ));
        }
        if result.view != self.reference {
            return Err(format!(
                "round {}: view differs from the reference",
                result.round
            ));
        }
        Ok(result.reports as u64)
    }

    fn counters(&self) -> Counters {
        self.rig.counters()
    }
}

pub fn weekly_round(seed: u64, seconds: f64, traced: bool) -> Measured {
    measure(|| Weekly::build(seed), seconds, traced)
}

struct Churn {
    rig: ClusterRig<InProcBus>,
    log: ImpressionLog,
    campaign: ChurnCampaign,
    /// Index of the next epoch to run.
    cursor: usize,
    last_round: u64,
}

impl Churn {
    fn build(seed: u64) -> Result<Self, String> {
        let driver = WeeklyDriver::new(seed, DriverScale::Fraction(10), 48);
        let log = driver.week(0);
        let rig = ClusterRig::campaign(
            derive(seed, SYSTEM_SEED),
            driver.scenario(),
            &log,
            driver.cohort(),
        );
        let campaign = ChurnCampaign::generate(ChurnConfig {
            population: 48,
            initial: 20,
            min_clients: MIN_CLIENTS,
            epochs: CAMPAIGN_EPOCHS,
            join_rate: 0.10,
            leave_rate: 0.05,
            drop_rate: 0.05,
            flappy: 0,
            collapse_at: 0,
            seed: derive(seed, CAMPAIGN_SEED),
        });
        let mut churn = Churn {
            rig,
            log,
            campaign,
            cursor: 0,
            last_round: 0,
        };
        for _ in 0..WARMUP_OPS {
            let result = churn.op(None);
            churn.check(&result)?;
        }
        Ok(churn)
    }
}

impl Sequential for Churn {
    fn op(&mut self, trace: Option<&mut OpTrace>) -> RoundResult {
        let spec = &self.campaign.epochs()[self.cursor];
        self.cursor += 1;
        self.rig.epoch(spec, trace)
    }

    fn check(&mut self, result: &RoundResult) -> Result<u64, String> {
        let e = self.cursor - 1;
        if result.collapsed {
            return Err(format!("epoch {e} collapsed"));
        }
        if result.round <= self.last_round {
            return Err(format!("epoch {e}: round {} replayed", result.round));
        }
        self.last_round = result.round;
        let roster = self.campaign.roster_of(e);
        if result.members != roster {
            return Err(format!(
                "epoch {e}: roster {:?}, scheduled {roster:?}",
                result.members
            ));
        }
        let spec = &self.campaign.epochs()[e];
        let mut missing = result.missing.clone();
        missing.sort_unstable();
        if missing != spec.drops {
            return Err(format!(
                "epoch {e}: missing {missing:?}, dropped {:?}",
                spec.drops
            ));
        }
        let reporters: BTreeSet<u32> = roster
            .iter()
            .copied()
            .filter(|u| !spec.drops.contains(u))
            .collect();
        if result.reports != reporters.len() {
            return Err(format!(
                "epoch {e}: {} reports from {} reporters",
                result.reports,
                reporters.len()
            ));
        }
        let reference = oracle::reference_view(
            &self.log,
            &reporters,
            |ad| self.rig.ad_key_of(ad),
            self.rig.view_params(),
        )?;
        if result.view != reference {
            return Err(format!("epoch {e}: view differs from the reference"));
        }
        Ok(result.reports as u64)
    }

    fn counters(&self) -> Counters {
        self.rig.counters()
    }

    fn exhausted(&self) -> bool {
        self.cursor >= self.campaign.epochs().len()
    }
}

pub fn churn_campaign(seed: u64, seconds: f64, traced: bool) -> Measured {
    measure(|| Churn::build(seed), seconds, traced)
}

/// Sets up, measures for `seconds` and, in a traced run, reconciles
/// the traced ops and repeats the first of them on a second set-up.
fn measure<W: Sequential>(
    build: impl Fn() -> Result<W, String>,
    seconds: f64,
    traced: bool,
) -> Measured {
    let mut measured = Measured::default();
    match measured.set_up(&build) {
        Ok(mut workload) => {
            run_sequential(&mut workload, seconds, traced, None, &mut measured);
            if traced {
                drop(workload);
                round_reconcile(&mut measured);
                check_repeat(&mut measured, build());
            }
        }
        Err(e) => measured.fail(format!("set-up: {e}")),
    }
    measured
}
