//! The traced run's probe: a [`ServiceBus`] decorator that timestamps
//! every `send`, `drain`, `on_phase` and `take_metrics` call and charges
//! each interval between two calls to the layer the round machine or
//! the OPRF exchange is in.
//!
//! Intervals tile the op: from [`OpTrace::start`] to [`OpTrace::finish`]
//! every nanosecond lands in exactly one layer, so the per-layer times
//! of one op sum to its traced wall time. The probe's own bookkeeping
//! (encoding an envelope to count its bytes) is charged to
//! [`Layer::TraceSelf`]. Allocations counted by [`crate::alloc`] are
//! charged to the same intervals.

use crate::alloc;
use ew_proto::transport::TransportError;
use ew_proto::{Envelope, Message, NodeId};
use ew_system::{ReplayMetrics, RoundPhase, ServiceBus};
use std::time::Instant;

/// The layers an op's wall time is split into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Op start to `on_phase(Open)`: joins, admission and warmup ticks,
    /// `begin_epoch`, blinding re-sync.
    Admit,
    /// `on_phase(Open)` to `on_phase(Reports)`: opening the round.
    Open,
    /// `on_phase(Reports)` to the first uplink send: blinding, CMS
    /// build, envelope.
    Report,
    /// Uplink sends and the loop between them: routing, plus
    /// encode/frame/CRC on a wire link.
    Send,
    /// The backend drain: deframe and decode.
    Drain,
    /// Drain to `on_phase(Recovery)`: `absorb_batch`.
    Absorb,
    /// `on_phase(Recovery)` to `on_phase(Finalize)`: notices,
    /// adjustments from cached streams, adjustment absorb.
    Recovery,
    /// `on_phase(Finalize)` to `take_metrics`: view merge, unblind,
    /// enumeration, and on a campaign the coordinator's closing ticks.
    Finalize,
    /// `take_metrics` to the op's return: telemetry, store, view install.
    Tail,
    /// OPRF op start to the request send: batch blinding.
    Blind,
    /// OPRF request and response sends (encode, frame, CRC).
    OprfSend,
    /// Request drain to response send: the server's evaluation.
    Eval,
    /// OPRF request and response drains (deframe, decode).
    OprfDrain,
    /// Response drain to the op's return: unblinding and ID mapping.
    Finish,
    /// The probe's own bookkeeping.
    TraceSelf,
}

/// Every layer, in report order.
pub const LAYERS: [Layer; 15] = [
    Layer::Admit,
    Layer::Open,
    Layer::Report,
    Layer::Send,
    Layer::Drain,
    Layer::Absorb,
    Layer::Recovery,
    Layer::Finalize,
    Layer::Tail,
    Layer::Blind,
    Layer::OprfSend,
    Layer::Eval,
    Layer::OprfDrain,
    Layer::Finish,
    Layer::TraceSelf,
];

impl Layer {
    /// The metric stem: `<stem>_ms`, `alloc.count.<stem>`, ...
    pub fn name(self) -> &'static str {
        match self {
            Layer::Admit => "coordinator.admit",
            Layer::Open => "cluster.open",
            Layer::Report => "client.report",
            Layer::Send => "cluster.send",
            Layer::Drain => "cluster.drain",
            Layer::Absorb => "cluster.absorb",
            Layer::Recovery => "client.recovery",
            Layer::Finalize => "cluster.finalize",
            Layer::Tail => "system.tail",
            Layer::Blind => "oprf_client.blind",
            Layer::OprfSend => "oprf_wire.send",
            Layer::Eval => "oprf_server.eval",
            Layer::OprfDrain => "oprf_wire.drain",
            Layer::Finish => "oprf_client.finish",
            Layer::TraceSelf => "trace.self",
        }
    }

    fn index(self) -> usize {
        LAYERS
            .iter()
            .position(|&l| l == self)
            .expect("every layer is listed")
    }
}

/// What kind of op is traced: it fixes the first layer and how sends
/// and drains are read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A clustered round or a one-epoch campaign slice.
    Round,
    /// One client's OPRF batch.
    Oprf,
}

/// Which allocation counters an op is charged from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocScope {
    /// Process-wide: the op is the only work running (its worker
    /// threads included).
    Global,
    /// The calling thread's: concurrent ops run on other threads.
    Thread,
}

/// The exact counts one traced op produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Data-plane envelopes sent to the backend.
    pub envelopes: u64,
    /// Σ `Envelope::encode().len()` of those envelopes.
    pub upload_bytes: u64,
    /// Blinded elements sent to the OPRF front-end.
    pub oprf_elements: u64,
    /// Allocations per layer.
    pub allocs: [u64; LAYERS.len()],
    /// Requested bytes per layer.
    pub alloc_bytes: [u64; LAYERS.len()],
}

/// One op's interval ledger.
#[derive(Debug)]
pub struct OpTrace {
    kind: OpKind,
    scope: AllocScope,
    /// Nanoseconds per layer.
    pub nanos: [u64; LAYERS.len()],
    /// Exact counts.
    pub counts: OpCounts,
    /// Op start to finish.
    pub wall_nanos: u64,
    start: Instant,
    last: Instant,
    last_alloc: (u64, u64),
    gap: Layer,
    phase: Option<RoundPhase>,
    drained: bool,
}

impl OpTrace {
    /// Starts the ledger; call immediately before the op.
    pub fn start(kind: OpKind, scope: AllocScope) -> Self {
        let last_alloc = match scope {
            AllocScope::Global => alloc::global(),
            AllocScope::Thread => alloc::local(),
        };
        let now = Instant::now();
        OpTrace {
            kind,
            scope,
            nanos: [0; LAYERS.len()],
            counts: OpCounts::default(),
            wall_nanos: 0,
            start: now,
            last: now,
            last_alloc,
            gap: match kind {
                OpKind::Round => Layer::Admit,
                OpKind::Oprf => Layer::Blind,
            },
            phase: None,
            drained: false,
        }
    }

    /// Closes the ledger; call immediately after the op returns.
    pub fn finish(&mut self) {
        let now = Instant::now();
        self.charge(self.gap, now);
        self.wall_nanos = now.duration_since(self.start).as_nanos() as u64;
    }

    /// Σ of the per-layer intervals; equals `wall_nanos` by construction.
    pub fn interval_sum(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Charges everything since the last boundary to `layer`.
    fn charge(&mut self, layer: Layer, now: Instant) {
        let i = layer.index();
        self.nanos[i] += now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        let (count, bytes) = match self.scope {
            AllocScope::Global => alloc::global(),
            AllocScope::Thread => alloc::local(),
        };
        self.counts.allocs[i] += count - self.last_alloc.0;
        self.counts.alloc_bytes[i] += bytes - self.last_alloc.1;
        self.last_alloc = (count, bytes);
    }

    /// The layer a `send` to `dest` runs in, and the one after it.
    fn send_layers(&self, dest: NodeId) -> (Layer, Layer) {
        match self.kind {
            OpKind::Oprf => (Layer::OprfSend, Layer::OprfSend),
            OpKind::Round => match (self.phase, dest) {
                (Some(RoundPhase::Reports), NodeId::Backend) if !self.drained => {
                    (Layer::Send, Layer::Send)
                }
                _ => (self.gap, self.gap),
            },
        }
    }

    /// The layer a `drain` of `dest` runs in, and the one after it.
    fn drain_layers(&mut self, dest: NodeId) -> (Layer, Layer) {
        match self.kind {
            OpKind::Oprf => match dest {
                NodeId::Oprf => (Layer::OprfDrain, Layer::Eval),
                _ => (Layer::OprfDrain, Layer::Finish),
            },
            OpKind::Round => match (self.phase, dest) {
                (Some(RoundPhase::Reports), NodeId::Backend) if !self.drained => {
                    self.drained = true;
                    (Layer::Drain, Layer::Absorb)
                }
                _ => (self.gap, self.gap),
            },
        }
    }
}

fn phase_layer(phase: RoundPhase) -> Layer {
    match phase {
        RoundPhase::Open => Layer::Open,
        RoundPhase::Reports => Layer::Report,
        RoundPhase::Recovery => Layer::Recovery,
        RoundPhase::Finalize => Layer::Finalize,
    }
}

/// The decorator: forwards every call to `inner` and records it in
/// `trace`.
pub struct Seam<'a, B: ServiceBus> {
    inner: &'a mut B,
    trace: &'a mut OpTrace,
}

impl<'a, B: ServiceBus> Seam<'a, B> {
    pub fn new(inner: &'a mut B, trace: &'a mut OpTrace) -> Self {
        Seam { inner, trace }
    }
}

impl<B: ServiceBus> ServiceBus for Seam<'_, B> {
    fn send(&mut self, dest: NodeId, env: Envelope) -> Result<(), TransportError> {
        self.trace.charge(self.trace.gap, Instant::now());
        match (&env.msg, dest) {
            (Message::Report { .. } | Message::Adjustment { .. }, NodeId::Backend) => {
                self.trace.counts.envelopes += 1;
                self.trace.counts.upload_bytes += env.encode().len() as u64;
            }
            (Message::OprfBatchRequest { blinded, .. }, NodeId::Oprf) => {
                self.trace.counts.oprf_elements += blinded.len() as u64;
            }
            _ => {}
        }
        self.trace.charge(Layer::TraceSelf, Instant::now());
        let (during, after) = self.trace.send_layers(dest);
        let sent = self.inner.send(dest, env);
        self.trace.charge(during, Instant::now());
        self.trace.gap = after;
        sent
    }

    fn drain(&mut self, dest: NodeId) -> (Vec<Envelope>, usize) {
        self.trace.charge(self.trace.gap, Instant::now());
        let (during, after) = self.trace.drain_layers(dest);
        let drained = self.inner.drain(dest);
        self.trace.charge(during, Instant::now());
        self.trace.gap = after;
        drained
    }

    fn on_phase(&mut self, phase: RoundPhase) {
        self.trace.charge(self.trace.gap, Instant::now());
        self.trace.phase = Some(phase);
        self.inner.on_phase(phase);
        self.trace.gap = phase_layer(phase);
        self.trace.charge(self.trace.gap, Instant::now());
    }

    fn take_metrics(&mut self) -> Option<ReplayMetrics> {
        self.trace.charge(self.trace.gap, Instant::now());
        let metrics = self.inner.take_metrics();
        self.trace.gap = Layer::Tail;
        self.trace.charge(Layer::Tail, Instant::now());
        metrics
    }
}
