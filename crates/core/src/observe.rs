//! One observation stream for the walk path.
//!
//! Every protocol step a walk reports is one [`Event`]: a [`Comp`]onent,
//! an interval of simulated time (`start == end` for an instant) and a
//! typed [`Detail`]. The component's row in the [`Comp`] table names its
//! span, category and telemetry channels; the typed detail yields the
//! span's detail string and, when it is a [`ProtoStep`], the transcript
//! entry.
//!
//! The [`Observer`] owns the three sinks — the protocol transcript
//! ([`System::trace_next`]), the span recorder and the telemetry sampler —
//! and fans each event out to whichever are armed. Walk code reaches it
//! only through `System::emit`, plus `open`/`close` for enclosing spans,
//! inside the walks' `TRACED = true` monomorphization; the `trace`
//! feature compiles the two recorder sinks in or out here and nowhere
//! else. Adding a component takes one row in the [`Comp`] table and one
//! emit at its site.

// Without the `trace` feature only the transcript reads the table and
// the details, so parts of both are unused there.
#![cfg_attr(not(feature = "trace"), allow(dead_code))]

use crate::error::SimError;
use crate::system::{AccessOutcome, ProtoStep, System};
use hswx_engine::trace::SpanId;
#[cfg(feature = "trace")]
use hswx_engine::{trace::EventSink as _, SpanRecorder, TelemetryHub, TelemetrySampler};
use hswx_engine::SimTime;
use hswx_mem::{CoreId, NodeId, RowOutcome};
use hswx_topology::Endpoint;

/// A walk component: its span name (empty for transcript- or
/// telemetry-only events) and category, the telemetry channel counting the
/// event at its start (bytes for a QPI hop, 1 otherwise), and the one
/// accumulating its interval as busy time. The associated constants are
/// the component table.
#[derive(Clone, Copy)]
pub(crate) struct Comp(&'static str, &'static str, Option<&'static str>, Option<&'static str>);

impl Comp {
    pub(crate) const READ: Comp = Comp("read", "walk", None, None);
    pub(crate) const WRITE: Comp = Comp("write", "walk", None, None);
    pub(crate) const F_RECLAIM: Comp = Comp("f_reclaim", "coherence", None, None);
    pub(crate) const SNOOP: Comp = Comp("snoop", "coherence", None, None);
    pub(crate) const HOME_AGENT: Comp = Comp("home_agent", "coherence", None, None);
    pub(crate) const RING_HOP: Comp = Comp("ring_hop", "ring", None, Some("ring.busy_ps"));
    pub(crate) const QPI_HOP: Comp = Comp("qpi_hop", "qpi", Some("qpi.bytes"), Some("qpi.busy_ps"));
    pub(crate) const CRC_REPLAY: Comp =
        Comp("qpi_crc_replay", "qpi", Some("qpi.crc_replays"), Some("qpi.replay_busy_ps"));
    pub(crate) const L1_HIT: Comp = Comp("l1_hit", "core", None, None);
    pub(crate) const L2_HIT: Comp = Comp("l2_hit", "core", None, None);
    pub(crate) const L3_ARRAY: Comp = Comp("l3_array", "mem", None, None);
    pub(crate) const L3_PORT: Comp = Comp("l3_port", "mem", None, None);
    pub(crate) const FILL: Comp = Comp("fill", "core", None, None);
    pub(crate) const PROBE_CORE: Comp = Comp("probe_core", "coherence", None, None);
    pub(crate) const CBO_TAG: Comp = Comp("cbo_tag", "coherence", None, Some("cbo.tag_busy_ps"));
    pub(crate) const INV_CORE: Comp = Comp("inv_core", "coherence", None, None);
    pub(crate) const INV_SNOOP: Comp = Comp("inv_snoop", "coherence", None, None);
    pub(crate) const TRACKER_WAIT: Comp = Comp("tracker_wait", "coherence", None, Some("ha.tracker_wait_ps"));
    pub(crate) const HA_PIPELINE: Comp = Comp("ha_pipeline", "coherence", None, Some("ha.pipeline_busy_ps"));
    pub(crate) const HITME_REREAD: Comp = Comp("hitme_reread", "coherence", Some("recovery.hitme_rereads"), None);
    pub(crate) const HITME_HIT: Comp = Comp("hitme_lookup", "coherence", Some("hitme.hits"), None);
    pub(crate) const HITME_MISS: Comp = Comp("hitme_lookup", "coherence", Some("hitme.misses"), None);
    pub(crate) const HITME_ALLOCATE_SHARED: Comp = Comp("hitme_allocate_shared", "coherence", None, None);
    pub(crate) const DIR_ECC_REREAD: Comp = Comp("dir_ecc_reread", "mem", Some("recovery.dir_rereads"), None);
    // Nobody remote holds the line: the speculative memory read already
    // has the data (a directory "hit").
    pub(crate) const DIR_REMOTE_INVALID: Comp =
        Comp("dir_read", "coherence", Some("directory.remote_invalid"), None);
    pub(crate) const DIR_SNOOP_NEEDED: Comp =
        Comp("dir_read", "coherence", Some("directory.snoop_needed"), None);
    pub(crate) const DRAM_ROW: Comp = Comp("dram_row", "mem", None, Some("dram.busy_ps"));
    pub(crate) const DRAM_WB: Comp = Comp("dram_wb", "mem", None, Some("dram.busy_ps"));
    pub(crate) const MEM_CTL: Comp = Comp("mem_ctl", "mem", None, None);
    pub(crate) const WC_DRAIN: Comp = Comp("wc_drain", "mem", None, Some("core.wc_drain_ps"));
    /// A transcript-only protocol step (CA lookup, home request, peer
    /// forward, memory reply).
    pub(crate) const STEP: Comp = Comp("", "", None, None);
    pub(crate) const CANCELLED: Comp = Comp("", "", Some("cancel.aborts"), None);
    pub(crate) const POISON_BLOCKED: Comp = Comp("", "", Some("cancel.poison_blocked"), None);
}

/// What an event knows beyond its component and interval.
pub(crate) enum Detail {
    None,
    /// The event is this protocol step (and feeds the transcript).
    Step(ProtoStep),
    Hop { from: Endpoint, to: Endpoint, bytes: u64 },
    Dram { row: RowOutcome, channel: usize },
    Alloc { requester: NodeId, home: NodeId },
    Core(CoreId),
    Node(NodeId),
}

/// One observed walk step.
pub(crate) struct Event {
    pub(crate) comp: Comp,
    pub(crate) start: SimTime,
    pub(crate) end: SimTime,
    pub(crate) detail: Detail,
}

impl Event {
    /// The span's detail string.
    #[cfg(feature = "trace")]
    fn label(&self) -> Option<String> {
        Some(match &self.detail {
            Detail::Hop { from, to, bytes } => format!("{from:?}\u{2192}{to:?} {bytes}B"),
            Detail::Dram { row, channel } => format!("{row:?} ch{channel}"),
            Detail::Alloc { requester, home } => {
                format!("requester=node{} home=node{}", requester.0, home.0)
            }
            Detail::Core(c) => format!("core{}", c.0),
            Detail::Node(n) | Detail::Step(ProtoStep::SnoopPeer { node: n }) => format!("node{}", n.0),
            Detail::Step(ProtoStep::LocalCoreProbe { target, forwarded }) => {
                format!("core{} fwd={forwarded}", target.0)
            }
            Detail::Step(ProtoStep::PeerCoreProbe { node, target, forwarded }) => {
                format!("node{} core{} fwd={forwarded}", node.0, target.0)
            }
            Detail::Step(ProtoStep::HitMeLookup { clean: Some(clean), .. }) => format!("hit clean={clean}"),
            Detail::Step(ProtoStep::HitMeLookup { clean: None, .. }) => "miss".to_string(),
            Detail::Step(ProtoStep::DirectoryRead { state }) => format!("{state:?}"),
            _ => return None,
        })
    }
}

/// The walk path's three observation sinks. All start disarmed (the
/// sampler is armed at construction when an ambient telemetry hub is
/// installed); any armed sink routes walks through the `TRACED`
/// monomorphization.
#[derive(Default)]
pub(crate) struct Observer {
    /// Armed protocol transcript.
    log: Option<Vec<(SimTime, ProtoStep)>>,
    /// Recycled transcript storage: monitor-armed walks move this buffer
    /// into `log` and return it on success, so steady-state monitoring
    /// allocates nothing per walk.
    scratch: Vec<(SimTime, ProtoStep)>,
    /// Whether `log` arrived out of time order (tracked at push, so
    /// collection sorts only when needed).
    unsorted: bool,
    /// `log` was armed by the monitor for the current walk only
    /// (discarded on success, attached to the error on failure).
    auto: bool,
    #[cfg(feature = "trace")]
    tracer: Option<Box<SpanRecorder>>,
    #[cfg(feature = "trace")]
    sampler: Option<Box<TelemetrySampler>>,
    /// Ambient telemetry hub captured at construction; the sampler is
    /// folded into it exactly once, on drop or explicit flush.
    #[cfg(feature = "trace")]
    hub: Option<std::sync::Arc<TelemetryHub>>,
}

impl Observer {
    /// Disarmed sinks, plus a sampler when an ambient telemetry hub is
    /// installed on this thread.
    pub(crate) fn new() -> Self {
        #[cfg(feature = "trace")]
        {
            let hub = TelemetryHub::ambient();
            let sampler = hub.as_ref().map(|h| Box::new(h.sampler()));
            Observer { hub, sampler, ..Default::default() }
        }
        #[cfg(not(feature = "trace"))]
        Observer::default()
    }

    /// Whether any sink is armed, i.e. whether the next op must run the
    /// `TRACED = true` copy of the walk.
    #[inline(always)]
    pub(crate) fn armed(&self) -> bool {
        #[cfg(feature = "trace")]
        if self.tracer.is_some() || self.sampler.is_some() {
            return true;
        }
        self.log.is_some()
    }

    /// Fan one event out to every armed sink.
    #[cold]
    #[inline(never)]
    pub(crate) fn emit(&mut self, ev: Event) {
        self.record_step(&ev);
        #[cfg(feature = "trace")]
        {
            let Comp(name, cat, count, busy) = ev.comp;
            if let Some(tr) = self.tracer.as_deref_mut().filter(|_| !name.is_empty()) {
                let id = tr.leaf(name, cat, ev.start, ev.end);
                if let Some(label) = ev.label() {
                    tr.detail(id, label);
                }
            }
            if let Some(s) = self.sampler.as_deref_mut() {
                if let Some(channel) = count {
                    let n = if let Detail::Hop { bytes, .. } = ev.detail { bytes } else { 1 };
                    s.record(channel, ev.start, n);
                }
                if let Some(channel) = busy {
                    s.record_span(channel, ev.start, ev.end);
                }
            }
        }
    }

    /// Open an enclosing span at `ev.start` (recording its transcript
    /// step); pair with [`close`](Self::close).
    pub(crate) fn open(&mut self, ev: Event) -> Option<SpanId> {
        self.record_step(&ev);
        #[cfg(feature = "trace")]
        if let Some(tr) = self.tracer.as_deref_mut() {
            let Comp(name, cat, ..) = ev.comp;
            let id = tr.begin(name, cat, ev.start);
            if let Some(label) = ev.label() {
                tr.detail(id, label);
            }
            return Some(id);
        }
        None
    }

    /// Close a span opened by [`open`](Self::open).
    #[allow(unused_variables)]
    pub(crate) fn close(&mut self, id: SpanId, at: SimTime) {
        #[cfg(feature = "trace")]
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.end(id, at);
        }
    }

    /// Close a walk's root span and file the walk record: the reported
    /// `[issued, done]` interval drives exact latency attribution. An
    /// aborted walk only closes its root, keeping the span stack
    /// balanced; it has no latency to attribute.
    #[allow(unused_variables)]
    pub(crate) fn close_walk(
        &mut self,
        root: Option<SpanId>,
        issued: SimTime,
        res: &Result<AccessOutcome, SimError>,
    ) {
        #[cfg(feature = "trace")]
        if let (Some(root), Some(tr)) = (root, self.tracer.as_deref_mut()) {
            match res {
                Ok(out) => {
                    tr.detail(root, format!("source={:?}", out.source));
                    tr.end(root, out.done);
                    tr.record_walk(root, issued, out.done);
                }
                Err(_) => tr.end(root, issued),
            }
        }
    }

    fn record_step(&mut self, ev: &Event) {
        let (Some(log), Detail::Step(step)) = (&mut self.log, &ev.detail) else { return };
        // A private hit is stamped at issue, every other step when it
        // completes.
        let at = if let ProtoStep::PrivateHit { .. } = step { ev.start } else { ev.end };
        if log.last().is_some_and(|&(last, _)| at < last) {
            self.unsorted = true;
        }
        log.push((at, step.clone()));
    }

    /// Arm the transcript for the current walk only, unless the user
    /// already armed it.
    pub(crate) fn arm_for_walk(&mut self) {
        if self.log.is_none() {
            self.log = Some(std::mem::take(&mut self.scratch));
            self.unsorted = false;
            self.auto = true;
        }
    }

    /// The transcript for an error: consume a walk-armed one, or snapshot
    /// a user-armed one without disarming it.
    pub(crate) fn error_transcript(&mut self) -> Vec<(SimTime, ProtoStep)> {
        if self.auto {
            self.auto = false;
            return self.take_transcript();
        }
        self.sort();
        self.log.clone().unwrap_or_default()
    }

    /// Recycle a walk-armed transcript after a successful walk.
    pub(crate) fn discard_walk_transcript(&mut self) {
        if self.auto {
            self.auto = false;
            if let Some(mut log) = self.log.take() {
                log.clear();
                self.scratch = log;
            }
        }
    }

    /// Sort the armed transcript in place (stable, so equal-time steps
    /// keep their emission order).
    fn sort(&mut self) {
        if let (Some(log), true) = (&mut self.log, self.unsorted) {
            log.sort_by_key(|&(t, _)| t);
        }
        self.unsorted = false;
    }

    fn take_transcript(&mut self) -> Vec<(SimTime, ProtoStep)> {
        self.sort();
        self.log.take().unwrap_or_default()
    }

    /// The sampler, for snapshots (always `None` without the `trace`
    /// feature).
    pub(crate) fn sampler(&self) -> Option<&hswx_engine::TelemetrySampler> {
        #[cfg(feature = "trace")]
        return self.sampler.as_deref();
        #[cfg(not(feature = "trace"))]
        None
    }

    /// Install a sampler restored from a snapshot (dropped without the
    /// `trace` feature: the series has nowhere to live).
    #[allow(unused_variables)]
    pub(crate) fn restore_sampler(&mut self, sampler: hswx_engine::TelemetrySampler) {
        #[cfg(feature = "trace")]
        {
            self.sampler = Some(Box::new(sampler));
        }
    }
}

impl System {
    /// Arm the protocol transcript: the steps of every access until
    /// [`take_trace`](Self::take_trace) is called are recorded.
    pub fn trace_next(&mut self) {
        self.obs.log = Some(Vec::new());
        self.obs.unsorted = false;
    }

    /// Collect the recorded `(time, step)` protocol transcript, sorted by
    /// time, and disarm tracing.
    pub fn take_trace(&mut self) -> Vec<(SimTime, ProtoStep)> {
        self.obs.take_transcript()
    }

    /// Fold the telemetry sampler into the ambient telemetry hub captured
    /// at construction (no-op without both). Runs automatically when the
    /// system drops; calling it earlier flushes once and detaches.
    pub fn flush_telemetry(&mut self) {
        #[cfg(feature = "trace")]
        if let (Some(hub), Some(sampler)) = (self.obs.hub.take(), self.obs.sampler.take()) {
            hub.absorb(*sampler);
        }
    }
}

#[cfg(feature = "trace")]
impl System {
    /// Attach a span tracer: every subsequent walk records a
    /// causally-ordered span tree into it. Tracing is observation-only —
    /// latencies, data sources, statistics, and
    /// [`state_digest`](Self::state_digest) are bit-identical with it on
    /// or off.
    pub fn attach_tracer(&mut self, recorder: SpanRecorder) {
        self.obs.tracer = Some(Box::new(recorder));
    }

    /// Detach the tracer, returning everything it recorded.
    pub fn take_tracer(&mut self) -> Option<SpanRecorder> {
        self.obs.tracer.take().map(|b| *b)
    }

    /// Whether a span tracer is currently attached.
    pub fn tracing(&self) -> bool {
        self.obs.tracer.is_some()
    }

    /// Attach a simulated-time telemetry sampler, replacing the one
    /// captured from the ambient [`TelemetryHub`] (if any). Subsequent
    /// walks bucket component activity into it.
    pub fn attach_sampler(&mut self, sampler: TelemetrySampler) {
        self.obs.sampler = Some(Box::new(sampler));
    }

    /// Detach the telemetry sampler, returning everything it bucketed.
    /// A detached sampler is *not* folded into the ambient hub on drop.
    pub fn take_sampler(&mut self) -> Option<TelemetrySampler> {
        self.obs.sampler.take().map(|b| *b)
    }

    /// Whether a telemetry sampler is currently attached.
    pub fn sampling(&self) -> bool {
        self.obs.sampler.is_some()
    }
}
