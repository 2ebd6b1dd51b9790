//! Every call the benchmark makes into the system's entry points:
//! `EyewnderSystem`, the aggregation cluster, the epoch coordinator,
//! the OPRF service and the client. A change to those entry points
//! changes this file only.

use crate::seam::{OpTrace, Seam};
use ew_core::{AdKey, GlobalView};
use ew_crypto::group::ModpGroup;
use ew_proto::ShardMap;
use ew_simnet::{EpochChurn, ImpressionLog, Scenario};
use ew_sketch::CmsParams;
use ew_system::ids::AdIdMapper;
use ew_system::{
    Client, ClusterBackend, Coordinator, EpochConfig, EyewnderSystem, InProcBus, OprfService,
    RoutingBus, ServiceBus, SystemConfig, WireBus,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Worker threads every workload pins (the host's core count).
pub const THREADS: usize = 2;
/// Backend shards of the aggregation cluster.
pub const BACKENDS: usize = 4;
/// RSA modulus of the `oprf_ingest` service (the deployment size).
pub const OPRF_RSA_BITS: usize = 2048;
/// Admission threshold of the campaign coordinator.
pub const MIN_CLIENTS: u32 = 4;

/// The sketch and enumeration parameters the round oracle rebuilds.
#[derive(Debug, Clone, Copy)]
pub struct ViewParams {
    pub cms: CmsParams,
    pub capacity: u64,
    pub policy: ew_core::ThresholdPolicy,
}

/// Public counters read around each op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// `TelemetryService::totals().routed`.
    pub routed: u64,
    /// The round log's last sequence number.
    pub journal_seq: u64,
    /// The control journal's last sequence number.
    pub control_seq: u64,
}

/// A resident system with a long-lived cluster backend and bus.
pub struct ClusterRig<L: ServiceBus> {
    sys: EyewnderSystem,
    backend: ClusterBackend,
    bus: RoutingBus<L>,
    coordinator: Option<Coordinator>,
}

fn system(seed: u64, cohort: usize) -> EyewnderSystem {
    let config = SystemConfig {
        seed,
        ..SystemConfig::default()
    }
    .with_threads(THREADS)
    .with_cluster_backends(BACKENDS);
    EyewnderSystem::new(config, cohort)
}

fn cluster(sys: &EyewnderSystem) -> (ShardMap, ClusterBackend) {
    let map = sys.cluster_map();
    let backend = sys.new_cluster(&map);
    (map, backend)
}

impl ClusterRig<WireBus> {
    /// `weekly_round`: enrolled cohort with `log` ingested, a 4-shard
    /// cluster behind a lossless wire routing bus.
    pub fn weekly(seed: u64, scenario: &Scenario, log: &ImpressionLog, cohort: usize) -> Self {
        let mut sys = system(seed, cohort);
        sys.ingest(scenario, log);
        let (map, backend) = cluster(&sys);
        let bus = RoutingBus::over_wire(map, None, None);
        ClusterRig {
            sys,
            backend,
            bus,
            coordinator: None,
        }
    }
}

impl ClusterRig<InProcBus> {
    /// `churn_campaign`: enrolled cohort with `log` ingested, a 4-shard
    /// cluster behind an in-proc routing bus and a genesis coordinator.
    pub fn campaign(seed: u64, scenario: &Scenario, log: &ImpressionLog, cohort: usize) -> Self {
        let mut sys = system(seed, cohort);
        sys.ingest(scenario, log);
        let (map, backend) = cluster(&sys);
        let bus = RoutingBus::in_proc(map, None);
        let coordinator = Coordinator::new(EpochConfig::default().with_min_clients(MIN_CLIENTS));
        ClusterRig {
            sys,
            backend,
            bus,
            coordinator: Some(coordinator),
        }
    }
}

/// What one op produced that the oracle checks.
#[derive(Debug)]
pub struct RoundResult {
    /// The round number the op drove.
    pub round: u64,
    pub view: GlobalView,
    pub reports: usize,
    pub missing: Vec<u32>,
    /// The epoch's roster (campaign ops only).
    pub members: Vec<u32>,
    pub collapsed: bool,
}

impl<L: ServiceBus> ClusterRig<L> {
    /// One clustered round with no silent clients, optionally traced.
    pub fn round(&mut self, round: u64, trace: Option<&mut OpTrace>) -> RoundResult {
        let outcome = match trace {
            Some(trace) => {
                let mut seam = Seam::new(&mut self.bus, trace);
                self.sys
                    .run_round_clustered_on(&mut self.backend, &mut seam, round, &[])
            }
            None => self
                .sys
                .run_round_clustered_on(&mut self.backend, &mut self.bus, round, &[]),
        };
        RoundResult {
            round: outcome.round,
            view: outcome.view,
            reports: outcome.reports,
            missing: outcome.missing,
            members: Vec::new(),
            collapsed: false,
        }
    }

    /// One campaign epoch, optionally traced.
    pub fn epoch(&mut self, spec: &EpochChurn, trace: Option<&mut OpTrace>) -> RoundResult {
        let coordinator = self
            .coordinator
            .as_mut()
            .expect("campaign rig has a coordinator");
        let schedule = std::slice::from_ref(spec);
        let mut outcomes = match trace {
            Some(trace) => {
                let mut seam = Seam::new(&mut self.bus, trace);
                self.sys.run_epochs_clustered_on(
                    &mut self.backend,
                    &mut seam,
                    coordinator,
                    schedule,
                )
            }
            None => self.sys.run_epochs_clustered_on(
                &mut self.backend,
                &mut self.bus,
                coordinator,
                schedule,
            ),
        };
        let outcome = outcomes.pop().expect("one epoch scheduled, one outcome");
        match outcome.outcome {
            Some(round) => RoundResult {
                round: outcome.round,
                view: round.view,
                reports: round.reports,
                missing: round.missing,
                members: outcome.members,
                collapsed: outcome.collapsed,
            },
            None => RoundResult {
                round: outcome.round,
                view: GlobalView::default(),
                reports: 0,
                missing: outcome.dropped,
                members: outcome.members,
                collapsed: true,
            },
        }
    }

    pub fn counters(&self) -> Counters {
        Counters {
            routed: self.sys.telemetry().totals().routed,
            journal_seq: self.backend.log().last_seq(),
            control_seq: self.backend.control_log().last_seq(),
        }
    }

    /// The ad ID ingestion learned for a simulator ad.
    pub fn ad_key_of(&self, sim_ad: u64) -> Option<AdKey> {
        self.sys.ad_key_of(sim_ad)
    }

    pub fn view_params(&self) -> ViewParams {
        ViewParams {
            cms: self.sys.config.cms,
            capacity: self.sys.config.ad_capacity,
            policy: self.sys.config.policy,
        }
    }
}

/// The OPRF front-end plus what fresh clients need.
pub struct OprfRig {
    service: OprfService,
    group: ModpGroup,
    mapper: AdIdMapper,
}

impl OprfRig {
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let service = OprfService::generate(&mut rng, OPRF_RSA_BITS);
        let defaults = SystemConfig::default();
        let group = ModpGroup::generate(&mut rng, defaults.group_bits);
        OprfRig {
            service,
            group,
            mapper: AdIdMapper::new(defaults.ad_capacity),
        }
    }

    /// A client with an empty ID cache; `seed` drives its blinding.
    pub fn fresh_client(&self, id: u32, seed: u64) -> Client {
        Client::new(
            id,
            &self.group,
            self.service.public().clone(),
            self.mapper,
            seed,
        )
    }

    /// One client's whole batch over its own lossless wire bus.
    pub fn map_batch(
        &self,
        client: &mut Client,
        urls: &[&str],
        trace: Option<&mut OpTrace>,
    ) -> Vec<AdKey> {
        let mut bus = WireBus::perfect();
        match trace {
            Some(trace) => {
                let mut seam = Seam::new(&mut bus, trace);
                client.map_ads_on(urls, &self.service, &mut seam)
            }
            None => client.map_ads_on(urls, &self.service, &mut bus),
        }
    }

    /// The untimed, non-oblivious reference mapping of one URL.
    pub fn reference_key(&self, url: &str) -> AdKey {
        self.mapper
            .to_ad_id(&self.service.evaluate_direct(url.as_bytes()))
    }

    pub fn requests_served(&self) -> u64 {
        self.service.requests_served()
    }
}

/// Environment variables that make the system export telemetry files.
const EXPORT_VARS: [&str; 2] = ["EW_TELEMETRY_JSON", "EW_BENCH_JSON"];

/// Turns off the system's flight recorder and telemetry export on this
/// thread and checks that both are off. Call before any other thread
/// starts.
pub fn enforce_fresh_state() -> Result<(), String> {
    for var in EXPORT_VARS {
        std::env::remove_var(var);
    }
    ew_system::trace::disable();
    if let Some(var) = EXPORT_VARS.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!("{var} is still set"));
    }
    if ew_system::trace::is_enabled() {
        return Err("the flight recorder is still on".into());
    }
    Ok(())
}
