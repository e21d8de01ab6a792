//! The discrete-event simulation engine.
//!
//! A deployment is a pipeline of queueing stages. Each stage has a
//! bounded FIFO, `servers` parallel executors (cores, NIC cores, or a
//! pipeline slot), and a [`ServiceModel`] that decides each packet's
//! verdict and service time. Packets flow source → stage 0 → stage 1 →
//! … → sink; stage queues drop on overflow (overload loss), NF verdicts
//! drop by policy (counted separately — a firewall denying a packet did
//! its job).
//!
//! Time is `u64` nanoseconds. Events are totally ordered by
//! `(time, sequence)` so runs are exactly reproducible.
//!
//! ## Memory discipline: events and packets by handle
//!
//! A scheduled event is two things (DESIGN.md §10): the event queue
//! entry, a packed `(t_ns, seq)` key plus a slot, which is all the heap
//! moves, and one `Event` in the run's free-listed event slab at index
//! `slot`, touched only at dispatch. Packets live in a second
//! free-listed slab: a packet is written there once, as it enters
//! stage 0, and events, stage queues, batch results and fused hops
//! carry its `u32` handle until it leaves at a drop or at the sink. A
//! slot is freed the moment its event fires or its packet leaves, so
//! resident memory is O(live events + packets in the pipeline), not
//! O(total events). Every run builds its own slabs and scratch buffers.
//!
//! The run loop pops one event at a time and dispatches it. Zero-latency
//! forwards (a stage settling a packet into the next stage at the same
//! timestamp) are *fused*: they ride a FIFO straight back into the loop
//! instead of re-enqueueing through the queue, while still minting seqs.
//! A queued event at the current time goes ahead of a hop only when its
//! seq is lower, so the processing order — and therefore every report
//! and trace — is bit-identical to the unfused reference path
//! ([`Engine::with_fusion`]).
//!
//! Workload arrivals are injected lazily from the stub iterator
//! (arrival times are monotone), so a week-long simulated run holds one
//! pending arrival at a time instead of the whole packet sequence.
//! Batch result buffers are pooled and reused across the kernel
//! invocations of one run.
//!
//! A run's state is one private struct, `Run`, whose methods dispatch
//! events. Every drop goes through `Run::drop_packet`, and every server
//! freed by a completion or an outage's end is refilled by `Run::refill`.

use crate::fault::{FaultAction, FaultPlan};
use crate::nf::NfVerdict;
use crate::packet::Packet;
use crate::sched::EventScheduler;
use crate::service::ServiceModel;
use crate::stats::SinkStats;
use apples_obs::span::SpanToken;
use apples_obs::{Phase, RunObserver, TraceDrop, TraceFault};
use apples_workload::WorkloadSpec;
use std::collections::VecDeque;

/// Where a stage's forwarded packets go next.
pub enum NextHop {
    /// The next stage in configuration order, or the sink after the
    /// last stage (the default linear pipeline).
    Linear,
    /// Straight to the sink.
    Sink,
    /// Flow-hash fan-out (ECMP, RSS): a packet goes to stage
    /// `first + flow_hash % count`, so every packet of a flow lands on
    /// the same one of `count` consecutive stages. [`Engine::new`]
    /// checks that the range is non-empty and inside the pipeline.
    FlowHash {
        /// The first stage of the range.
        first: usize,
        /// How many stages the range spans.
        count: u32,
    },
}

/// Batch-processing policy for vector accelerators (GPUs, wide SIMD
/// engines): packets accumulate until `max_batch` are waiting or the
/// head of the buffer has waited `timeout_ns`, then a server processes
/// the whole batch in one `kernel_overhead_ns + per-packet` invocation.
///
/// Batching trades latency (packets wait for the batch to form) for
/// throughput (the kernel overhead amortizes) — the defining shape of
/// GPU packet processing, and a natural §4.3 subject: no amount of
/// batching hardware buys back the formation delay.
///
/// The formation timer is measured from the *head packet's enqueue
/// time*: when a server is available, no packet waits in the formation
/// buffer longer than `timeout_ns` before its batch launches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Maximum packets per batch.
    pub max_batch: usize,
    /// Flush a partial batch once its head packet has waited this long.
    pub timeout_ns: u64,
    /// Fixed per-invocation cost (kernel launch, DMA setup).
    pub kernel_overhead_ns: u64,
}

impl BatchPolicy {
    /// Creates a policy; panics on degenerate parameters.
    pub fn new(max_batch: usize, timeout_ns: u64, kernel_overhead_ns: u64) -> Self {
        assert!(max_batch > 0, "batch size must be positive");
        assert!(timeout_ns > 0, "timeout must be positive");
        BatchPolicy { max_batch, timeout_ns, kernel_overhead_ns }
    }
}

/// Configuration for one pipeline stage.
pub struct StageConfig {
    /// Stage name for reports.
    pub name: &'static str,
    /// Parallel servers (cores).
    pub servers: u32,
    /// Queue capacity in packets (excluding those in service).
    pub queue_capacity: usize,
    /// The service model.
    pub service: Box<dyn ServiceModel>,
    /// Forwarding target for packets this stage passes.
    pub next: NextHop,
    /// Batch-processing policy; `None` = serve packets one at a time.
    pub batch: Option<BatchPolicy>,
}

impl StageConfig {
    /// Creates a stage that forwards linearly (to the next stage, or the
    /// sink if it is the last one).
    pub fn new(
        name: &'static str,
        servers: u32,
        queue_capacity: usize,
        service: Box<dyn ServiceModel>,
    ) -> Self {
        StageConfig { name, servers, queue_capacity, service, next: NextHop::Linear, batch: None }
    }

    /// Overrides the forwarding target.
    pub fn with_next(mut self, next: NextHop) -> Self {
        self.next = next;
        self
    }

    /// Enables batch processing on this stage.
    pub fn with_batching(mut self, policy: BatchPolicy) -> Self {
        self.batch = Some(policy);
        self
    }
}

/// A packet's index in its run's packet slab ([`EventCore`]): what
/// events, stage queues, batch results and fused hops carry instead of
/// the packet.
type PacketHandle = u32;

struct StageState {
    cfg: StageConfig,
    /// Waiting packets, each with its enqueue timestamp (the batch
    /// formation timer is measured from the head's enqueue time).
    queue: VecDeque<(u64, PacketHandle)>,
    busy: u32,
    busy_ns: u128,
    arrivals: u64,
    served: u64,
    queue_drops: u64,
    policy_drops: u64,
    /// Packets currently inside servers (equals `busy` for per-packet
    /// stages; a multiple for batch stages).
    in_service_pkts: u64,
    /// Invalidates stale batch timers.
    batch_epoch: u64,
    /// The formation timer fired: launch partial batches too, now and,
    /// while every server is busy, as soon as one frees.
    batch_flush_pending: bool,
    /// Service-time multiplier from the fault plan (1.0 = nominal).
    slow_factor: f64,
    /// The stage is in an outage window: arrivals drop, in-flight work
    /// completes, no new work starts until recovery.
    down: bool,
    /// Packets lost to faults at this stage (outage-window arrivals).
    fault_drops: u64,
}

impl StageState {
    /// Fresh run state around a stage configuration.
    fn from_cfg(cfg: StageConfig) -> Self {
        StageState {
            cfg,
            queue: VecDeque::new(),
            busy: 0,
            busy_ns: 0,
            arrivals: 0,
            served: 0,
            queue_drops: 0,
            policy_drops: 0,
            in_service_pkts: 0,
            batch_epoch: 0,
            batch_flush_pending: false,
            slow_factor: 1.0,
            down: false,
            fault_drops: 0,
        }
    }

    /// Starts service on `pkt` at time `t`: payload synthesis (when the
    /// run has payloads on), one `serve()` call, and the Done event
    /// push. Shared by arrivals and refills — the caller has already
    /// bumped `busy`/`in_service_pkts` and emitted its dispatch hook.
    #[inline]
    fn begin_service(&mut self, stage: usize, pkt: PacketHandle, t: u64, core: &mut EventCore) {
        core.fill_payload(pkt);
        let (verdict, svc_ns) = self.cfg.service.serve(core.packet(pkt));
        let svc_ns = scaled(svc_ns, self.slow_factor);
        self.busy_ns += u128::from(svc_ns);
        core.push(t + svc_ns, Event::Done { stage, pkt, verdict, svc_ns });
    }
}

/// Per-stage outcome of a run, for utilization-driven power accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stage name.
    pub name: &'static str,
    /// Fraction of server-time spent busy, `[0, 1]`.
    pub utilization: f64,
    /// Packets that arrived at this stage.
    pub arrivals: u64,
    /// Packets that completed service here.
    pub served: u64,
    /// Packets dropped at this stage's queue.
    pub queue_drops: u64,
    /// Packets dropped here by NF policy.
    pub policy_drops: u64,
    /// Packets lost to injected faults at this stage (arrivals during
    /// an outage window).
    pub fault_drops: u64,
    /// Packets still queued or in service when the run ended.
    pub in_flight: u64,
}

impl StageReport {
    /// Total drops at this stage, all causes.
    pub fn drops(&self) -> u64 {
        self.queue_drops + self.policy_drops + self.fault_drops
    }

    /// Packet-conservation check: every arrival is served, dropped at
    /// the queue, lost to a fault, or still in flight at cutoff.
    pub fn conserves_packets(&self) -> bool {
        self.arrivals == self.served + self.queue_drops + self.fault_drops + self.in_flight
    }
}

/// Optional payload synthesis for payload-inspecting pipelines.
///
/// Payload bytes are a pure function of `(seed, packet id, length,
/// attack_prob, needles)` ([`Packet::with_payload`]), so *when* they
/// are made cannot change any output. The engine makes them as a packet
/// first enters service, and packets dropped or still queued before
/// that never pay for them.
#[derive(Clone)]
pub struct PayloadConfig {
    /// Probability a packet carries one of the needles.
    pub attack_prob: f64,
    /// Patterns to embed (the DPI experiments' ground truth).
    pub needles: Vec<Vec<u8>>,
}

/// L2–L4 header bytes: a packet's synthesized payload is its frame
/// size minus these.
const HEADER_BYTES: usize = 54;

/// One scheduled event's payload, held in [`EventCore`]'s slab at the
/// index its queue entry carries.
///
/// The 8-byte tag keeps every variant's fields 8-aligned. With the
/// default 1-byte tag, taking an 88-byte event out of the slab copied
/// its fields in unaligned 16-byte chunks that the next field loads
/// straddled, which stalled store forwarding. On today's 48-byte slots
/// a 1-byte tag measured no different, so the tag stays (DESIGN.md §10).
#[repr(u64)]
enum Event {
    /// A packet finished service at `stage`.
    Done { stage: usize, pkt: PacketHandle, verdict: NfVerdict, svc_ns: u64 },
    /// A packet arrives at `stage`: a same-time forward on the unfused
    /// path.
    Arrive { stage: usize, pkt: PacketHandle },
    /// `stage`'s batch formation timer fired; stale unless `epoch` is
    /// still the stage's current one.
    BatchTimeout { stage: usize, epoch: u64 },
    /// A batch kernel finished at `stage`: its results and the batch's
    /// total service time.
    BatchDone { stage: usize, results: Vec<(PacketHandle, NfVerdict)>, total_ns: u64 },
    /// A fault-plan transition.
    Fault(FaultAction),
}

// Size-regression guard: the queue entry must never regrow past a cache
// line (it is the entire per-event footprint inside the event queue).
const _: () = assert!(std::mem::size_of::<crate::sched::EventKey>() <= 64);

/// Bytes per *hot* event slot: one event queue entry, the packed
/// `(t_ns, seq)` key and the slot. This is what the event queue
/// actually moves per event.
pub fn hot_slot_bytes() -> usize {
    std::mem::size_of::<crate::sched::EventKey>()
}

/// Bytes per *cold* event slot: one entry of the run's event slab,
/// touched only at dispatch. (A batch's result buffer is a separate
/// allocation, amortized over the whole batch.)
pub fn cold_slot_bytes() -> usize {
    std::mem::size_of::<Option<Event>>()
}

/// A zero-latency forward waiting in the fused-hop FIFO: a packet that
/// finished service and settles into its next stage at the same
/// timestamp, carrying the seq it was minted with so the run loop can
/// order it against queued events at that timestamp.
struct FusedHop {
    seq: u64,
    stage: usize,
    pkt: PacketHandle,
}

/// One run's event state: the scheduler, the seq mint, the
/// live/peak/total accounting, the event slab, the packet slab, the
/// fused-hop FIFO, the batch result buffers, and the run's payload seed
/// and configuration.
struct EventCore<'p> {
    events: EventScheduler,
    seq: u64,
    live: usize,
    peak_live: usize,
    total: u64,
    /// Every scheduled event, at the slot its queue entry names;
    /// `None` marks a free slot, listed in `free`.
    slab: Vec<Option<Event>>,
    free: Vec<usize>,
    /// Every packet inside the pipeline, at its handle; the slots listed
    /// in `packet_free` hold departed packets with empty payloads.
    packets: Vec<Packet>,
    packet_free: Vec<PacketHandle>,
    /// Same-time forwards bypassing the scheduler (fusion on). Every
    /// hop in it sits at the time being dispatched.
    fwd: VecDeque<FusedHop>,
    /// Drained batch result buffers, reused by the next kernel launch.
    batch_pool: Vec<Vec<(PacketHandle, NfVerdict)>>,
    fused: bool,
    /// The run's payload seed and configuration, for synthesis at
    /// service start; `None` on header-only runs.
    payload: Option<(u64, &'p PayloadConfig)>,
}

impl<'p> EventCore<'p> {
    /// An empty event state for one run.
    fn new(fused: bool, payload: Option<(u64, &'p PayloadConfig)>) -> Self {
        EventCore {
            events: EventScheduler::new(),
            seq: 0,
            live: 0,
            peak_live: 0,
            total: 0,
            slab: Vec::new(),
            free: Vec::new(),
            packets: Vec::new(),
            packet_free: Vec::new(),
            fwd: VecDeque::new(),
            batch_pool: Vec::new(),
            fused,
            payload,
        }
    }

    /// Writes `pkt` into a free packet slot (or a new one) as it enters
    /// stage 0 and returns its handle.
    #[inline]
    fn admit(&mut self, pkt: Packet) -> PacketHandle {
        match self.packet_free.pop() {
            Some(handle) => {
                self.packets[handle as usize] = pkt;
                handle
            }
            None => {
                #[expect(
                    clippy::expect_used,
                    reason = "invariant: a handle indexes packets inside the pipeline at once, bounded by queue capacities far below 2^32"
                )]
                let handle = PacketHandle::try_from(self.packets.len())
                    .expect("more than u32::MAX packets inside the pipeline");
                self.packets.push(pkt);
                handle
            }
        }
    }

    /// Frees `pkt`'s slot as the packet leaves the pipeline (a drop or
    /// the sink), dropping its payload so none outlives its packet.
    #[inline]
    fn release(&mut self, pkt: PacketHandle) {
        self.packets[pkt as usize].payload = Box::default();
        self.packet_free.push(pkt);
    }

    /// The packet behind a handle.
    #[inline]
    fn packet(&self, pkt: PacketHandle) -> &Packet {
        &self.packets[pkt as usize]
    }

    /// Fills `pkt`'s payload in place as it enters service, unless the
    /// run has payloads off or the packet already carries one (a hop
    /// from an earlier stage).
    #[inline]
    fn fill_payload(&mut self, pkt: PacketHandle) {
        if let Some((seed, cfg)) = self.payload {
            let pkt = &mut self.packets[pkt as usize];
            if pkt.payload.is_empty() {
                let len = (pkt.size_bytes as usize).saturating_sub(HEADER_BYTES);
                pkt.fill_payload(len, seed, cfg.attack_prob, &cfg.needles);
            }
        }
    }

    /// Mints the next seq, counting the event as live, so
    /// `total_events` and `peak_live_events` count every event, fused
    /// hops included.
    #[inline]
    fn mint(&mut self) -> u64 {
        self.live += 1;
        if self.live > self.peak_live {
            self.peak_live = self.live;
        }
        self.total += 1;
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Counts a dispatched event.
    #[inline]
    fn retire(&mut self) {
        self.live -= 1;
    }

    /// Schedules `event` at `t`: stores it in a free slab slot (or a
    /// new one) and queues `(t, seq, slot)`. Always inlined: called out
    /// of line, it took each event (then 96 bytes) through the stack,
    /// and sim-cluster's op time read about 2% higher (DESIGN.md §10).
    #[inline(always)]
    fn push(&mut self, t: u64, event: Event) {
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slab[slot].is_none(), "free list hit a live slab slot");
                self.slab[slot] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                self.slab.len() - 1
            }
        };
        let seq = self.mint();
        self.events.push(t, seq, slot);
    }

    /// Removes the event at `slot` and frees the slot.
    #[inline]
    fn take(&mut self, slot: usize) -> Event {
        #[expect(
            clippy::expect_used,
            reason = "invariant: every queued slot was filled by push and is taken exactly once; a vacant slot here is slab corruption"
        )]
        let event = self.slab[slot].take().expect("queue entry referenced a vacant slab slot");
        self.free.push(slot);
        event
    }

    /// Routes a same-time forward: into the fused-hop FIFO (fusion on),
    /// or back through the scheduler as an Arrive event (fusion off).
    /// Both sides mint a seq, so the dispatch order is identical.
    #[inline]
    fn forward(&mut self, t: u64, stage: usize, pkt: PacketHandle) {
        if self.fused {
            let seq = self.mint();
            self.fwd.push_back(FusedHop { seq, stage, pkt });
        } else {
            self.push(t, Event::Arrive { stage, pkt });
        }
    }
}

/// The simulator: one run of a pipeline. Running consumes the engine,
/// so no service model carries state from one run into the next.
pub struct Engine {
    stages: Vec<StageState>,
    payload: Option<PayloadConfig>,
    /// Fault plan applied to the run; `None` = fault-free.
    fault_plan: Option<FaultPlan>,
    /// Zero-latency hop fusion (default on). `false` re-enqueues every
    /// hop through the scheduler — the reference path the fused/unfused
    /// property tests compare against, bit for bit.
    fused: bool,
}

/// The raw result of a run.
///
/// `PartialEq` compares every field (histogram counts included) — the
/// fused/unfused A/B tests lean on it to assert byte-identical runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Sink-side statistics over the measurement window.
    pub sink: SinkStats,
    /// Per-stage reports.
    pub stages: Vec<StageReport>,
    /// Measurement window length, ns.
    pub window_ns: u64,
    /// Packets injected into stage 0 over the whole run.
    pub injected: u64,
    /// Packets the fault plan dropped at the injection point (these
    /// never reached stage 0 and are not part of `injected`).
    pub injected_drops: u64,
    /// Packets the fault plan marked corrupted at the injection point.
    pub corrupted: u64,
    /// Total events scheduled over the run (what the old grow-forever
    /// arena would have held in memory).
    pub total_events: u64,
    /// High-water mark of simultaneously live events — the slab's
    /// actual footprint.
    pub peak_live_events: usize,
}

/// Applies a stage's fault slowdown factor to a service time. The
/// nominal case takes the exact identity path so fault-free runs are
/// bit-for-bit unchanged.
#[inline]
#[expect(clippy::float_cmp, reason = "exact sentinel: 1.0 is assigned verbatim, never computed")]
fn scaled(svc_ns: u64, factor: f64) -> u64 {
    if factor == 1.0 {
        svc_ns
    } else {
        (svc_ns as f64 * factor).ceil() as u64
    }
}

/// Maps a fault-plan action to its trace representation.
fn fault_trace(action: FaultAction) -> (usize, TraceFault) {
    match action {
        FaultAction::SlowdownStart { stage } => (stage, TraceFault::SlowdownStart),
        FaultAction::SlowdownEnd { stage } => (stage, TraceFault::SlowdownEnd),
        FaultAction::DeviceDown { stage } => (stage, TraceFault::DeviceDown),
        FaultAction::DeviceUp { stage } => (stage, TraceFault::DeviceUp),
    }
}

impl Engine {
    /// Builds an engine from stage configurations (source feeds stage 0).
    ///
    /// # Panics
    /// If there are no stages, a stage has no servers, or a
    /// [`NextHop::FlowHash`] range is empty or runs past the last stage.
    pub fn new(stages: Vec<StageConfig>) -> Self {
        assert!(!stages.is_empty(), "need at least one stage");
        for s in &stages {
            assert!(s.servers > 0, "stage '{}' needs at least one server", s.name);
            if let NextHop::FlowHash { first, count } = s.next {
                assert!(count > 0, "stage '{}' fans out over zero stages", s.name);
                let end = first.checked_add(count as usize);
                assert!(
                    end.is_some_and(|end| end <= stages.len()),
                    "stage '{}' fans out past the last stage",
                    s.name
                );
            }
        }
        Engine {
            stages: stages.into_iter().map(StageState::from_cfg).collect(),
            payload: None,
            fault_plan: None,
            fused: true,
        }
    }

    /// Enables or disables zero-latency hop fusion (default: enabled).
    /// Fused runs push same-time forwards through a FIFO straight back
    /// into the run loop; unfused runs re-enqueue them through the
    /// scheduler. Both mint seqs identically, so results, traces, and
    /// telemetry are byte-identical — the unfused path exists as the
    /// reference oracle for A/B tests and the bench's `fused_speedup`.
    pub fn with_fusion(mut self, fused: bool) -> Self {
        self.fused = fused;
        self
    }

    /// Attaches a fault plan: its windowed transitions become scheduled
    /// events and its per-packet hash decisions gate the injection
    /// point. An empty plan leaves runs bit-for-bit unchanged;
    /// `(seed, plan)` fully determines the perturbation.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Enables payload synthesis (needed when the pipeline contains DPI).
    pub fn with_payloads(mut self, cfg: PayloadConfig) -> Self {
        self.payload = Some(cfg);
        self
    }

    /// Runs `workload` for `duration_ns` of simulated time, measuring
    /// from `warmup_ns` on. Deliveries and drops before warmup are not
    /// counted; events after `duration_ns` are not processed.
    pub fn run(self, workload: &WorkloadSpec, duration_ns: u64, warmup_ns: u64) -> RunResult {
        let stream = workload.stream();
        self.run_stubs(stream, workload.flows, workload.seed, duration_ns, warmup_ns, None).0
    }

    /// [`Engine::run`] with observability hooks (tracing, telemetry,
    /// spans, time series) feeding `observer`, which comes back with
    /// everything the run recorded. The hooks never feed back into the
    /// simulation: the result equals [`Engine::run`]'s. Without an
    /// observer every hook site is a single `Option` branch.
    pub fn run_observed(
        self,
        workload: &WorkloadSpec,
        duration_ns: u64,
        warmup_ns: u64,
        observer: RunObserver,
    ) -> (RunResult, RunObserver) {
        let stream = workload.stream();
        let (result, observer) = self.run_stubs(
            stream,
            workload.flows,
            workload.seed,
            duration_ns,
            warmup_ns,
            Some(observer),
        );
        (result, observer.unwrap_or_default())
    }

    /// The run loop behind [`Engine::run`] and [`Engine::run_observed`]:
    /// the observer, when there is one, lives in the run's state and
    /// comes back with the result.
    fn run_stubs(
        self,
        stubs: impl Iterator<Item = apples_workload::PacketStub>,
        flows: usize,
        payload_seed: u64,
        duration_ns: u64,
        warmup_ns: u64,
        obs: Option<RunObserver>,
    ) -> (RunResult, Option<RunObserver>) {
        assert!(warmup_ns < duration_ns, "warmup must precede the end of the run");
        let Engine { stages, payload, fault_plan, fused } = self;
        let mut run = Run {
            stages,
            core: EventCore::new(fused, payload.as_ref().map(|cfg| (payload_seed, cfg))),
            sink: SinkStats::new(flows),
            obs,
            fault_plan,
            warmup_ns,
            injected_drops: 0,
            corrupted: 0,
        };
        if let Some(o) = run.obs.as_mut() {
            o.ensure_stages(run.stages.len());
        }

        // Materialize the fault plan's windowed transitions as ordinary
        // events before anything else runs: they get the lowest seqs, so
        // their relative order is fixed.
        if let Some(plan) = &run.fault_plan {
            for e in plan.events.iter().filter(|e| e.t_ns <= duration_ns) {
                run.core.push(e.t_ns, Event::Fault(e.action));
            }
        }

        // Arrivals are injected lazily: workload arrival times are
        // monotone, so holding the single next packet (rather than the
        // whole packet sequence) preserves event order exactly while
        // keeping memory independent of run length. That packet is
        // header-only: payloads are made at service start, so a packet
        // dropped or still queued before then never pays for one. Ids
        // number the stubs in order.
        let mut arrivals = stubs
            .take_while(move |stub| stub.t_ns < duration_ns)
            .zip(0u64..)
            .map(|(stub, id)| Packet::from_stub(id, &stub));
        let mut next_arrival = arrivals.next();
        // The time being dispatched; every fused hop sits at it.
        let mut now = 0;

        loop {
            match run.core.fwd.front().map(|hop| hop.seq) {
                // A fused hop goes next unless a queued entry at `now`
                // has a lower seq. No arrival can be due while a hop
                // waits: every arrival at or before `now` came in before
                // the first pop at `now`.
                Some(hop_seq) => {
                    if run.core.events.peek_key().is_none_or(|key| key > (now, hop_seq)) {
                        #[expect(
                            clippy::expect_used,
                            reason = "invariant: the FIFO's front matched Some directly above"
                        )]
                        let hop = run.core.fwd.pop_front().expect("checked above");
                        run.core.retire();
                        let tok = run.span_begin(Phase::Dispatch);
                        run.arrive(hop.stage, hop.pkt, now);
                        run.span_end(Phase::Dispatch, tok);
                        continue;
                    }
                }
                // Arrivals sort before simulation events at the same
                // time (they were scheduled first in program order).
                None => {
                    let due = |a: &mut Packet| {
                        run.core.events.peek_key().is_none_or(|(t, _)| a.t_arrival_ns <= t)
                    };
                    if let Some(pkt) = next_arrival.take_if(due) {
                        next_arrival = arrivals.next();
                        run.inject(pkt);
                        continue;
                    }
                }
            }

            let Some((t, seq, slot)) = run.core.events.pop() else { break };
            if t > duration_ns {
                break;
            }
            now = t;
            run.core.retire();
            let tok = run.span_begin(Phase::Dispatch);
            run.dispatch(t, seq, slot);
            run.span_end(Phase::Dispatch, tok);
        }
        run.finish(duration_ns)
    }
}

/// One run's state. The dispatch helpers are its methods, so the run
/// loop threads one value instead of its locals. `core` stays a field
/// of its own so [`StageState::begin_service`] can borrow it apart from
/// the stage it serves.
struct Run<'p> {
    stages: Vec<StageState>,
    core: EventCore<'p>,
    sink: SinkStats,
    obs: Option<RunObserver>,
    fault_plan: Option<FaultPlan>,
    warmup_ns: u64,
    injected_drops: u64,
    corrupted: u64,
}

impl Run<'_> {
    /// Opens a span when the run is observed.
    #[inline]
    fn span_begin(&mut self, phase: Phase) -> SpanToken {
        match self.obs.as_mut() {
            Some(o) => o.span_begin(phase),
            None => SpanToken::noop(),
        }
    }

    /// Closes a span opened by [`Run::span_begin`].
    #[inline]
    fn span_end(&mut self, phase: Phase, token: SpanToken) {
        if let Some(o) = self.obs.as_mut() {
            o.span_end(phase, token);
        }
    }

    /// Takes an arriving packet through the fault plan's
    /// injection-point decisions (hash decisions on the packet id,
    /// independent of schedule and of each other) and, unless the plan
    /// drops it, into stage 0.
    fn inject(&mut self, mut pkt: Packet) {
        let t = pkt.t_arrival_ns;
        if let Some(plan) = &self.fault_plan {
            if plan.drops(pkt.id) {
                self.injected_drops += 1;
                if let Some(o) = self.obs.as_mut() {
                    o.on_fault(t, || pkt.id, 0, TraceFault::InjectedDrop);
                }
                if t >= self.warmup_ns {
                    self.sink.drop(TraceDrop::Fault);
                }
                return;
            }
            if plan.corrupts(pkt.id) {
                pkt.corrupted = true;
                self.corrupted += 1;
                if let Some(o) = self.obs.as_mut() {
                    o.on_fault(t, || pkt.id, 0, TraceFault::Corrupt);
                }
            }
        }
        let pkt = self.core.admit(pkt);
        self.arrive(0, pkt, t);
    }

    /// Handles one arrival at `stage`: drop it at a down stage, serve it
    /// on a free server of a per-packet stage, drop it at a full queue,
    /// or enqueue it (and, on a batch stage, try to launch a batch).
    fn arrive(&mut self, stage: usize, pkt: PacketHandle, t: u64) {
        let st = &mut self.stages[stage];
        st.arrivals += 1;
        if let Some(o) = self.obs.as_mut() {
            o.on_stage_enter(t, || self.core.packet(pkt).id, stage);
        }
        if st.down {
            // Outage window: the device is gone; packets addressed to
            // it are lost rather than queued.
            self.drop_packet(stage, pkt, t, TraceDrop::Fault);
        } else if st.cfg.batch.is_none() && st.busy < st.cfg.servers {
            st.busy += 1;
            st.in_service_pkts += 1;
            if let Some(o) = self.obs.as_mut() {
                o.on_dispatch(t, || self.core.packet(pkt).id, stage, 0);
            }
            st.begin_service(stage, pkt, t, &mut self.core);
        } else if st.queue.len() >= st.cfg.queue_capacity {
            self.drop_packet(stage, pkt, t, TraceDrop::QueueFull);
        } else {
            st.queue.push_back((t, pkt));
            if let Some(o) = self.obs.as_mut() {
                o.on_enqueue(t, || self.core.packet(pkt).id, stage, st.queue.len());
            }
            if let Some(policy) = st.cfg.batch {
                if st.queue.len() == 1 {
                    // New head: the formation timer runs from its
                    // enqueue time (which is now).
                    self.core.push(
                        t + policy.timeout_ns,
                        Event::BatchTimeout { stage, epoch: st.batch_epoch },
                    );
                }
                self.try_flush_batches(stage, t);
            }
        }
    }

    /// Drops `pkt` at `stage` for `cause`: the stage's counter for the
    /// cause, the observer's drop hook, the sink's count inside the
    /// measurement window, and the packet's slot back to the slab.
    /// Always inlined, as the code it replaced was: left to the
    /// compiler it stayed out of line, one call more per drop.
    #[inline(always)]
    fn drop_packet(&mut self, stage: usize, pkt: PacketHandle, t: u64, cause: TraceDrop) {
        let st = &mut self.stages[stage];
        match cause {
            TraceDrop::QueueFull => st.queue_drops += 1,
            TraceDrop::Policy => st.policy_drops += 1,
            TraceDrop::Fault => st.fault_drops += 1,
        }
        if let Some(o) = self.obs.as_mut() {
            o.on_drop(t, || self.core.packet(pkt).id, stage, cause);
        }
        if t >= self.warmup_ns {
            self.sink.drop(cause);
        }
        self.core.release(pkt);
    }

    /// Puts `stage`'s free servers back to work after a completion or at
    /// the end of an outage: a batch stage launches what batches it can;
    /// a per-packet stage pulls queued packets while it is up and a
    /// server is free. A stage that is up with a non-empty queue has
    /// every server busy, so after a Done this pulls at most one packet.
    /// Always inlined, like [`Run::drop_packet`].
    #[inline(always)]
    fn refill(&mut self, stage: usize, t: u64) {
        let st = &mut self.stages[stage];
        if st.cfg.batch.is_some() {
            self.try_flush_batches(stage, t);
            return;
        }
        while !st.down && st.busy < st.cfg.servers {
            let Some((enq_t, pkt)) = st.queue.pop_front() else { break };
            st.busy += 1;
            st.in_service_pkts += 1;
            if let Some(o) = self.obs.as_mut() {
                o.on_dispatch(t, || self.core.packet(pkt).id, stage, t - enq_t);
            }
            st.begin_service(stage, pkt, t, &mut self.core);
        }
    }

    /// Starts as many batches as servers and buffered packets allow,
    /// below-max ones too while a flush is pending (the formation timer
    /// fired).
    fn try_flush_batches(&mut self, stage: usize, t: u64) {
        let st = &mut self.stages[stage];
        let Some(policy) = st.cfg.batch else { return };
        if st.down {
            // No new kernels launch during an outage; a pending flush (or
            // queued packets) will be picked up again at DeviceUp.
            return;
        }
        let force = st.batch_flush_pending;
        let mut launched = false;
        while st.busy < st.cfg.servers
            && (st.queue.len() >= policy.max_batch || (force && !st.queue.is_empty()))
        {
            let n = st.queue.len().min(policy.max_batch);
            let mut total_ns = policy.kernel_overhead_ns;
            let mut results = self.core.batch_pool.pop().unwrap_or_default();
            results.reserve(n);
            for (enq_t, pkt) in st.queue.drain(..n) {
                if let Some(o) = self.obs.as_mut() {
                    o.on_dispatch(t, || self.core.packet(pkt).id, stage, t - enq_t);
                }
                self.core.fill_payload(pkt);
                let (verdict, svc_ns) = st.cfg.service.serve(self.core.packet(pkt));
                total_ns += svc_ns;
                results.push((pkt, verdict));
            }
            let total_ns = scaled(total_ns, st.slow_factor);
            st.busy += 1;
            st.in_service_pkts += n as u64;
            st.busy_ns += u128::from(total_ns);
            st.batch_epoch += 1;
            launched = true;
            self.core.push(t + total_ns, Event::BatchDone { stage, results, total_ns });
        }
        st.batch_flush_pending = force && !st.queue.is_empty() && st.busy >= st.cfg.servers;
        // A launch invalidated the head's timer (epoch bump). If packets
        // remain, re-arm for the new head — measured from *its* enqueue
        // time, so no packet waits more than timeout_ns while a server is
        // free. (Timers for an unchanged head are still in the heap and
        // stay valid: the epoch has not moved.)
        if launched && !st.batch_flush_pending {
            if let Some(&(head_enqueued, _)) = st.queue.front() {
                let deadline = (head_enqueued + policy.timeout_ns).max(t);
                self.core.push(deadline, Event::BatchTimeout { stage, epoch: st.batch_epoch });
            }
        }
    }

    /// Routes a packet that finished service at `stage` according to its
    /// verdict: policy drop, next stage, or sink delivery.
    fn settle(&mut self, stage: usize, pkt: PacketHandle, verdict: NfVerdict, t: u64) {
        match verdict {
            NfVerdict::Drop => self.drop_packet(stage, pkt, t, TraceDrop::Policy),
            NfVerdict::Forward => {
                let dest = match self.stages[stage].cfg.next {
                    NextHop::Linear => Some(stage + 1).filter(|&next| next < self.stages.len()),
                    NextHop::Sink => None,
                    NextHop::FlowHash { first, count } => {
                        let hash = self.core.packet(pkt).flow_hash;
                        Some(first + (hash % u64::from(count)) as usize)
                    }
                };
                match dest {
                    Some(next_stage) => self.core.forward(t, next_stage, pkt),
                    None => {
                        let p = self.core.packet(pkt);
                        if t >= self.warmup_ns && p.t_arrival_ns >= self.warmup_ns {
                            self.sink.deliver(p.flow, p.wire_bits(), t - p.t_arrival_ns);
                        }
                        self.core.release(pkt);
                    }
                }
            }
        }
    }

    /// Dispatches the queued event `(t, seq)` held at `slot`.
    fn dispatch(&mut self, t: u64, seq: u64, slot: usize) {
        match self.core.take(slot) {
            Event::Done { stage, pkt, verdict, svc_ns } => {
                let st = &mut self.stages[stage];
                st.busy -= 1;
                st.in_service_pkts -= 1;
                st.served += 1;
                if let Some(o) = self.obs.as_mut() {
                    let id = || self.core.packet(pkt).id;
                    o.on_stage_exit(t, id, stage, svc_ns, verdict == NfVerdict::Forward);
                }
                self.refill(stage, t);
                self.settle(stage, pkt, verdict, t);
            }
            Event::Arrive { stage, pkt } => self.arrive(stage, pkt, t),
            Event::BatchTimeout { stage, epoch } => {
                let st = &mut self.stages[stage];
                if st.batch_epoch == epoch && !st.queue.is_empty() {
                    st.batch_flush_pending = true;
                    self.try_flush_batches(stage, t);
                }
            }
            Event::BatchDone { stage, mut results, total_ns } => {
                let st = &mut self.stages[stage];
                st.busy -= 1;
                st.in_service_pkts -= results.len() as u64;
                st.served += results.len() as u64;
                if let Some(o) = self.obs.as_mut() {
                    // Every batch member shares the batch's wall of
                    // service: the kernel is the unit of work.
                    for &(pkt, verdict) in &results {
                        let id = || self.core.packet(pkt).id;
                        o.on_stage_exit(t, id, stage, total_ns, verdict == NfVerdict::Forward);
                    }
                }
                self.refill(stage, t);
                for (pkt, verdict) in results.drain(..) {
                    self.settle(stage, pkt, verdict, t);
                }
                self.core.batch_pool.push(results);
            }
            Event::Fault(action) => {
                let fault_tok = self.span_begin(Phase::FaultApply);
                if let Some(o) = self.obs.as_mut() {
                    let (stage, kind) = fault_trace(action);
                    o.on_fault(t, || seq, stage, kind);
                }
                match action {
                    FaultAction::SlowdownStart { stage } => {
                        if let Some(plan) = &self.fault_plan {
                            self.stages[stage].slow_factor = plan.slow_factor;
                        }
                    }
                    FaultAction::SlowdownEnd { stage } => self.stages[stage].slow_factor = 1.0,
                    FaultAction::DeviceDown { stage } => self.stages[stage].down = true,
                    FaultAction::DeviceUp { stage } => {
                        self.stages[stage].down = false;
                        self.refill(stage, t);
                    }
                }
                self.span_end(Phase::FaultApply, fault_tok);
            }
        }
    }

    /// Ends the run at `duration_ns`: the per-stage reports, the
    /// scheduler's counters for the observer, and the result.
    fn finish(self, duration_ns: u64) -> (RunResult, Option<RunObserver>) {
        let Run { stages, core, sink, mut obs, warmup_ns, injected_drops, corrupted, .. } = self;
        // Every packet the loop admitted left at a drop or the sink, or
        // is still queued or in service.
        debug_assert_eq!(
            (core.packets.len() - core.packet_free.len()) as u64,
            stages.iter().map(|s| s.queue.len() as u64 + s.in_service_pkts).sum::<u64>(),
            "the packet slab leaked or lost a packet"
        );

        if let Some(o) = obs.as_mut() {
            // The scheduler's structural counters (deterministic: pure
            // functions of the event schedule).
            o.sched = core.events.counters();
        }

        let reports = stages
            .iter()
            .map(|s| StageReport {
                name: s.cfg.name,
                utilization: (s.busy_ns as f64 / (duration_ns as f64 * f64::from(s.cfg.servers)))
                    .min(1.0),
                arrivals: s.arrivals,
                served: s.served,
                queue_drops: s.queue_drops,
                policy_drops: s.policy_drops,
                fault_drops: s.fault_drops,
                in_flight: s.queue.len() as u64 + s.in_service_pkts,
            })
            .collect();

        let injected = stages[0].arrivals;
        let result = RunResult {
            sink,
            stages: reports,
            window_ns: duration_ns - warmup_ns,
            injected,
            injected_drops,
            corrupted,
            total_events: core.total + injected,
            peak_live_events: core.peak_live,
        };
        (result, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nf::firewall::{Action, Firewall};
    use crate::nf::NfChain;
    use crate::service::{LineRate, NfService};

    fn forwarding_stage(servers: u32) -> StageConfig {
        StageConfig::new("core", servers, 256, Box::new(NfService::host_core(NfChain::empty())))
    }

    /// Seqs break ties between events at one timestamp, so `mint` must
    /// hand out 0, 1, 2, … in call order. A seq taken from the clock or
    /// from an address also rises with mint order, so no simulated
    /// output shows it; this check does.
    #[test]
    fn mint_hands_out_seqs_in_call_order() {
        let mut core = EventCore::new(true, None);
        let seqs: Vec<u64> = (0..1000).map(|_| core.mint()).collect();
        assert!(seqs.iter().copied().eq(0..1000), "first seqs minted: {:?}", &seqs[..8]);
        assert_eq!((core.total, core.live), (1000, 1000));
    }

    /// A slot is freed the moment its event fires and handed to the next
    /// push, so the slab holds as many slots as events were ever
    /// scheduled at once, not one per event of the run.
    #[test]
    fn the_slab_reuses_freed_slots() {
        let mut core = EventCore::new(true, None);
        // Each step schedules one event; from the fourth step on it
        // also fires the earliest, so at most four are ever scheduled.
        for t in 0..1000u64 {
            core.push(t, Event::BatchTimeout { stage: 0, epoch: t });
            assert_eq!(core.slab.len(), (t + 1).min(4) as usize, "after the push at t = {t}");
            if t >= 3 {
                let Some((due, _, slot)) = core.events.pop() else {
                    panic!("expected an event pending at step {t}")
                };
                match core.take(slot) {
                    Event::BatchTimeout { epoch, .. } => assert_eq!(epoch, due),
                    _ => panic!("slot {slot} held another kind of event"),
                }
            }
        }
        assert_eq!((core.slab.len(), core.free.len()), (4, 1));
    }

    /// A packet's slot is freed where it leaves, with its payload, and
    /// handed to the next packet to enter, so the packet slab holds as
    /// many slots as packets were ever inside the pipeline at once.
    #[test]
    fn the_packet_slab_reuses_slots_and_drops_departed_payloads() {
        let cfg = PayloadConfig { attack_prob: 0.0, needles: Vec::new() };
        let mut core = EventCore::new(true, Some((9, &cfg)));
        let tuple =
            apples_workload::FiveTuple { src_ip: 1, dst_ip: 2, src_port: 3, dst_port: 4, proto: 6 };
        let a = core.admit(Packet::new(0, 0, tuple, 1500, 0));
        let b = core.admit(Packet::new(1, 0, tuple, 1500, 0));
        core.fill_payload(a);
        assert_eq!(core.packet(a).payload.len(), 1500 - HEADER_BYTES);
        assert!(core.packet(b).payload.is_empty(), "payloads are filled per packet");
        core.release(a);
        assert!(
            core.packets[a as usize].payload.is_empty(),
            "a departed payload outlived its packet"
        );
        let c = core.admit(Packet::new(2, 0, tuple, 64, 0));
        assert_eq!((c, core.packet(c).id, core.packets.len()), (a, 2, 2));
    }

    #[test]
    fn underloaded_pipeline_delivers_everything() {
        // 100 kpps of 64 B on one core (100 ns/packet service): ~1% load.
        let engine = Engine::new(vec![forwarding_stage(1)]);
        let wl = WorkloadSpec::cbr(100_000.0, 64, 4, 1);
        let r = engine.run(&wl, 50_000_000, 0);
        assert_eq!(r.sink.queue_drops(), 0);
        let expected = 100_000.0 * 0.05; // 5000 packets in 50 ms
        let got = r.sink.delivered_packets() as f64;
        assert!((got - expected).abs() / expected < 0.01, "delivered {got}");
        assert!(r.stages[0].utilization < 0.05);
    }

    #[test]
    fn overloaded_stage_saturates_and_drops() {
        // Service ~100 ns => capacity ~10 Mpps; offer 20 Mpps.
        let engine = Engine::new(vec![StageConfig::new(
            "core",
            1,
            64,
            Box::new(NfService::host_core(NfChain::empty())),
        )]);
        let wl = WorkloadSpec::cbr(20e6, 64, 4, 1);
        let r = engine.run(&wl, 10_000_000, 1_000_000);
        assert!(r.sink.queue_drops() > 0, "expected overload drops");
        assert!(r.sink.loss_rate() > 0.3, "loss {}", r.sink.loss_rate());
        assert!(r.stages[0].utilization > 0.95, "util {}", r.stages[0].utilization);
        // Delivered rate ~ capacity, not offered rate.
        let pps = r.sink.throughput_pps(r.window_ns);
        assert!(pps < 12e6, "delivered {pps} pps");
    }

    #[test]
    fn more_servers_raise_capacity() {
        let run_with = |servers: u32| {
            let engine = Engine::new(vec![forwarding_stage(servers)]);
            // Offer well above even 4 cores' capacity (~40 Mpps).
            let wl = WorkloadSpec::cbr(60e6, 64, 4, 1);
            let r = engine.run(&wl, 10_000_000, 1_000_000);
            r.sink.throughput_pps(r.window_ns)
        };
        let one = run_with(1);
        let four = run_with(4);
        assert!(four > 3.0 * one, "1 core {one} pps, 4 cores {four} pps");
    }

    #[test]
    fn policy_drops_are_not_loss() {
        // A deny-all firewall: every packet dropped by policy, none lost.
        let fw = Firewall::new(vec![], Action::Deny);
        let engine = Engine::new(vec![StageConfig::new(
            "fw",
            1,
            256,
            Box::new(NfService::host_core(NfChain::new(vec![Box::new(fw)]))),
        )]);
        let wl = WorkloadSpec::cbr(100_000.0, 64, 4, 1);
        let r = engine.run(&wl, 10_000_000, 0);
        assert_eq!(r.sink.delivered_packets(), 0);
        assert_eq!(r.sink.queue_drops(), 0);
        assert!(r.sink.policy_drops() > 900);
        assert_eq!(r.sink.loss_rate(), 0.0);
        assert_eq!(r.stages[0].policy_drops, r.sink.policy_drops());
    }

    #[test]
    fn latency_includes_queueing_under_load() {
        let lat_at = |rate: f64| {
            let engine = Engine::new(vec![forwarding_stage(1)]);
            let wl = WorkloadSpec {
                sizes: apples_workload::PacketSizeDist::Fixed(64),
                arrivals: apples_workload::ArrivalProcess::Poisson { rate_pps: rate },
                flows: 4,
                zipf_s: 0.0,
                seed: 3,
            };
            let r = engine.run(&wl, 20_000_000, 2_000_000);
            r.sink.latency().quantile(0.99)
        };
        let light = lat_at(1e6); // ~10% load
        let heavy = lat_at(9e6); // ~90% load
        assert!(heavy > 2 * light, "p99 light {light} ns vs heavy {heavy} ns");
    }

    #[test]
    fn multi_stage_pipelines_accumulate_latency() {
        let mk = || StageConfig::new("link", 1, 1024, Box::new(LineRate::new("10G", 10e9)));
        let one = Engine::new(vec![mk()]);
        let three = Engine::new(vec![mk(), mk(), mk()]);
        let wl = WorkloadSpec::cbr(10_000.0, 1500, 2, 1);
        let l1 = one.run(&wl, 10_000_000, 0).sink.latency().mean();
        let l3 = three.run(&wl, 10_000_000, 0).sink.latency().mean();
        assert!((l3 / l1 - 3.0).abs() < 0.1, "l1 {l1} l3 {l3}");
    }

    fn batch_stage(max_batch: usize, timeout_ns: u64, kernel_ns: u64) -> StageConfig {
        StageConfig::new(
            "gpu",
            1,
            4096,
            // 30 ns marginal per packet once the kernel is launched.
            Box::new(crate::service::FixedTime::new("gpu-kernel", NfChain::empty(), 30)),
        )
        .with_batching(BatchPolicy::new(max_batch, timeout_ns, kernel_ns))
    }

    #[test]
    fn full_batches_flush_immediately() {
        // 8 packets arrive back-to-back; batch size 4 -> two batches,
        // each kernel 10 us + 4*30 ns.
        let engine = Engine::new(vec![batch_stage(4, 1_000_000, 10_000)]);
        let wl = WorkloadSpec::cbr(100e6, 64, 4, 1); // 10 ns spacing
        let r = engine.run(&wl, 60_000, 0);
        assert!(r.sink.delivered_packets() >= 16, "{}", r.sink.delivered_packets());
        assert!(r.stages[0].conserves_packets());
        // Latency of the first delivered packets ~ one kernel, far below
        // the 1 ms timeout: the size trigger fired, not the timer.
        assert!(r.sink.latency().quantile(0.01) < 100_000);
    }

    #[test]
    fn lone_packet_waits_for_the_timeout() {
        let engine = Engine::new(vec![batch_stage(64, 50_000, 10_000)]);
        // One packet per 10 ms: every batch is a timeout flush of 1.
        let wl = WorkloadSpec::cbr(100.0, 64, 1, 1);
        let r = engine.run(&wl, 50_000_000, 0);
        assert!(r.sink.delivered_packets() >= 4);
        let lat = r.sink.latency().quantile(0.5);
        // ~ timeout (50 us) + kernel (10 us) + marginal, within the
        // histogram's ~1.6% bucket error.
        assert!((58_000..75_000).contains(&lat), "median latency {lat} ns");
    }

    #[test]
    fn remainder_after_a_full_batch_waits_from_its_own_enqueue_time() {
        // The documented bound: with a server free, no packet waits in
        // the formation buffer longer than timeout_ns. Regression test
        // for the old behavior of re-arming the timer from the *flush*
        // time, which overcharged remainder packets by however long the
        // previous batch took.
        const TIMEOUT: u64 = 50_000;
        const KERNEL: u64 = 10_000;
        // Exactly 9 packets, 100 ns apart (t = 100 .. 900), then silence:
        // batch 1 = packets 1-4 (size trigger), batch 2 = packets 5-8
        // (size trigger on BatchDone), packet 9 = a timer flush.
        let wl = WorkloadSpec::cbr(10e6, 64, 1, 1);
        let stubs = wl.packets_for(1_000);
        assert_eq!(stubs.len(), 9);
        let engine = Engine::new(vec![batch_stage(4, TIMEOUT, KERNEL)]);
        let (r, _) = engine.run_stubs(stubs.into_iter(), wl.flows, 0, 5_000_000, 0, None);
        assert_eq!(r.sink.delivered_packets(), 9);
        // Packet 9 enqueues at t=900 while batch 2 is in flight; its
        // timer must run from t=900, so its latency is timeout + kernel
        // + marginal — NOT timeout + the in-flight batch's completion.
        let worst = r.sink.latency().quantile(1.0);
        let bound = TIMEOUT + KERNEL + 4 * 30;
        assert!(
            u128::from(worst) <= u128::from(bound) * 102 / 100,
            "worst latency {worst} ns exceeds head-wait bound {bound} ns (+2% histogram error)"
        );
        assert!(worst >= TIMEOUT, "worst latency {worst} ns should include the full timeout");
    }

    #[test]
    fn batching_amortizes_kernel_overhead() {
        // Same kernel cost; batch 1 vs batch 256 at a load the former
        // cannot carry.
        let tput = |max_batch: usize| {
            let engine = Engine::new(vec![batch_stage(max_batch, 100_000, 10_000)]);
            let wl = WorkloadSpec::cbr(1e6, 64, 16, 1);
            let r = engine.run(&wl, 10_000_000, 1_000_000);
            r.sink.throughput_pps(r.window_ns)
        };
        let unbatched = tput(1); // 10.03 us per packet -> ~0.1 Mpps
        let batched = tput(256); // ~17.7 us per 256 packets -> >> 1 Mpps
        assert!(unbatched < 0.15e6, "unbatched {unbatched}");
        assert!(batched > 0.9e6, "batched {batched}");
    }

    #[test]
    fn batching_trades_latency_for_throughput() {
        // At a light load both configurations keep up, but the large
        // batch makes packets wait for the formation timeout.
        let p99 = |max_batch: usize, timeout: u64| {
            let engine = Engine::new(vec![batch_stage(max_batch, timeout, 10_000)]);
            let wl = WorkloadSpec::cbr(10_000.0, 64, 4, 1);
            let r = engine.run(&wl, 20_000_000, 2_000_000);
            r.sink.latency().quantile(0.99)
        };
        let small = p99(1, 200_000);
        let large = p99(64, 200_000);
        assert!(
            large > small + 150_000,
            "large-batch p99 {large} should exceed small-batch {small} by ~the timeout"
        );
    }

    #[test]
    fn batch_stage_conserves_packets_under_overload() {
        let engine = Engine::new(vec![batch_stage(32, 10_000, 50_000)]);
        let wl = WorkloadSpec::cbr(5e6, 700, 8, 1);
        let r = engine.run(&wl, 5_000_000, 0);
        assert!(r.stages[0].queue_drops > 0, "overload expected");
        assert!(r.stages[0].conserves_packets(), "{:?}", r.stages[0]);
        let accounted = r.sink.delivered_packets()
            + r.stages.iter().map(|s| s.queue_drops + s.policy_drops + s.in_flight).sum::<u64>();
        assert_eq!(accounted, r.injected);
    }

    #[test]
    fn batch_runs_are_deterministic() {
        let run = || {
            let engine = Engine::new(vec![batch_stage(16, 30_000, 5_000)]);
            let wl = WorkloadSpec::cbr(2e6, 200, 8, 3);
            let r = engine.run(&wl, 5_000_000, 500_000);
            (r.sink.delivered_packets(), r.sink.latency().quantile(0.99))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn packets_are_conserved_at_every_stage() {
        // Overloaded two-stage pipeline: drops, queues, and in-flight
        // packets must all be accounted for.
        let engine = Engine::new(vec![
            StageConfig::new("front", 1, 32, Box::new(NfService::host_core(NfChain::empty()))),
            StageConfig::new("back", 1, 8, Box::new(LineRate::new("1G", 1e9))),
        ]);
        let wl = WorkloadSpec::cbr(15e6, 700, 8, 1);
        let r = engine.run(&wl, 5_000_000, 0);
        assert!(r.injected > 0);
        for s in &r.stages {
            assert!(s.conserves_packets(), "stage {} leaks packets: {s:?}", s.name);
        }
        // Cross-stage conservation: what the front forwards equals what
        // the back receives.
        let front = &r.stages[0];
        let back = &r.stages[1];
        assert_eq!(front.served - front.policy_drops, back.arrivals);
        // Global: delivered + drops + in-flight across stages == injected.
        let accounted = r.sink.delivered_packets()
            + r.stages.iter().map(|s| s.queue_drops + s.policy_drops + s.in_flight).sum::<u64>();
        assert_eq!(accounted, r.injected);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let engine = Engine::new(vec![forwarding_stage(2)]);
            let wl = WorkloadSpec::cbr(5e6, 200, 16, 9);
            let r = engine.run(&wl, 5_000_000, 500_000);
            (r.sink.delivered_packets(), r.sink.latency().quantile(0.999), r.stages[0].served)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn event_memory_is_bounded_by_live_events_not_total() {
        // A long, busy run schedules hundreds of thousands of events;
        // the slab's high-water mark must stay proportional to what is
        // simultaneously in flight (a handful of service completions
        // plus queued forwards), not to the run length.
        let engine = Engine::new(vec![
            StageConfig::new("front", 2, 128, Box::new(NfService::host_core(NfChain::empty()))),
            StageConfig::new("back", 1, 128, Box::new(LineRate::new("10G", 10e9))),
        ]);
        let wl = WorkloadSpec::cbr(8e6, 200, 16, 7);
        let r = engine.run(&wl, 50_000_000, 0);
        assert!(r.total_events > 400_000, "total events {}", r.total_events);
        assert!(
            r.peak_live_events < 64,
            "peak live events {} should be O(in-flight), total {}",
            r.peak_live_events,
            r.total_events
        );
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_no_plan() {
        let wl = WorkloadSpec::cbr(5e6, 200, 16, 9);
        let a = Engine::new(vec![forwarding_stage(2)]).run(&wl, 5_000_000, 500_000);
        let b = Engine::new(vec![forwarding_stage(2)])
            .with_fault_plan(crate::fault::FaultPlan::none())
            .run(&wl, 5_000_000, 500_000);
        assert_eq!(a, b);
    }

    fn severe_plan(stages: usize) -> crate::fault::FaultPlan {
        crate::fault::FaultPlan::derive(
            1234,
            &crate::fault::FaultSpec::at_severity(1.0),
            stages,
            5_000_000,
        )
    }

    #[test]
    fn faulted_runs_conserve_packets() {
        // Outage-heavy spec so the 5 ms run reliably sees down windows.
        let spec = crate::fault::FaultSpec {
            drop_prob: 0.05,
            corrupt_prob: 0.0,
            slowdown: None,
            outage: Some(crate::fault::OutageSpec { mtbf_ns: 800_000, mttr_ns: 400_000 }),
        };
        let plan = crate::fault::FaultPlan::derive(1234, &spec, 2, 5_000_000);
        let mk = || {
            Engine::new(vec![
                StageConfig::new("front", 2, 64, Box::new(NfService::host_core(NfChain::empty()))),
                StageConfig::new("back", 1, 64, Box::new(LineRate::new("10G", 10e9))),
            ])
            .with_fault_plan(plan.clone())
        };
        let wl = WorkloadSpec::cbr(4e6, 400, 8, 5);
        let r = mk().run(&wl, 5_000_000, 0);
        assert!(r.injected_drops > 0, "severity-1 plan must drop at the injection point");
        let total_fault_drops: u64 = r.stages.iter().map(|s| s.fault_drops).sum();
        assert!(total_fault_drops > 0, "outage windows must drop arrivals");
        for s in &r.stages {
            assert!(s.conserves_packets(), "stage {} leaks packets: {s:?}", s.name);
        }
        let accounted = r.sink.delivered_packets()
            + r.stages
                .iter()
                .map(|s| s.queue_drops + s.policy_drops + s.fault_drops + s.in_flight)
                .sum::<u64>();
        assert_eq!(accounted, r.injected);
    }

    #[test]
    fn faulted_runs_replay_from_seed_and_plan_alone() {
        let mk = || Engine::new(vec![forwarding_stage(2)]).with_fault_plan(severe_plan(1));
        let wl = WorkloadSpec::cbr(4e6, 400, 8, 5);
        let a = mk().run(&wl, 5_000_000, 500_000);
        let b = mk().run(&wl, 5_000_000, 500_000);
        assert_eq!(a, b, "(seed, FaultPlan) must fully determine the run");
    }

    #[test]
    fn faulted_batch_stage_conserves_and_replays() {
        let mk =
            || Engine::new(vec![batch_stage(16, 30_000, 5_000)]).with_fault_plan(severe_plan(1));
        let wl = WorkloadSpec::cbr(2e6, 200, 8, 3);
        let a = mk().run(&wl, 5_000_000, 0);
        let b = mk().run(&wl, 5_000_000, 0);
        assert_eq!(a, b);
        assert!(a.stages[0].conserves_packets(), "{:?}", a.stages[0]);
    }

    #[test]
    fn slowdown_windows_degrade_throughput() {
        // Pure slowdown (no loss, no outage): the run must deliver
        // strictly less than the fault-free run at a load near capacity.
        let spec = crate::fault::FaultSpec {
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            slowdown: Some(crate::fault::SlowdownSpec {
                mean_period_ns: 400_000,
                duration_ns: 300_000,
                factor: 8.0,
            }),
            outage: None,
        };
        let plan = crate::fault::FaultPlan::derive(7, &spec, 1, 10_000_000);
        assert!(!plan.events.is_empty());
        let wl = WorkloadSpec::cbr(8e6, 64, 8, 5);
        let clean = Engine::new(vec![forwarding_stage(1)]).run(&wl, 10_000_000, 1_000_000);
        let slowed = Engine::new(vec![forwarding_stage(1)])
            .with_fault_plan(plan)
            .run(&wl, 10_000_000, 1_000_000);
        assert!(
            slowed.sink.delivered_packets() < clean.sink.delivered_packets() * 95 / 100,
            "slowdown should cost >5% of deliveries: clean {} vs slowed {}",
            clean.sink.delivered_packets(),
            slowed.sink.delivered_packets()
        );
        assert_eq!(slowed.injected_drops, 0);
    }

    #[test]
    fn corruption_with_fail_closed_chain_raises_policy_drops() {
        use crate::nf::firewall::{Action, Firewall};
        let mk = |corrupt_prob: f64| {
            let fw =
                Firewall::new(vec![crate::nf::firewall::Rule::any(Action::Allow)], Action::Allow);
            let plan = crate::fault::FaultPlan {
                seed: 5,
                drop_prob: 0.0,
                corrupt_prob,
                slow_factor: 1.0,
                events: Vec::new(),
            };
            Engine::new(vec![StageConfig::new(
                "fw",
                1,
                256,
                Box::new(NfService::host_core(NfChain::new(vec![Box::new(fw)]))),
            )])
            .with_fault_plan(plan)
        };
        let wl = WorkloadSpec::cbr(100_000.0, 64, 4, 1);
        let clean = mk(0.0).run(&wl, 10_000_000, 0);
        assert_eq!(clean.sink.policy_drops(), 0);
        assert_eq!(clean.corrupted, 0);
        let noisy = mk(0.2).run(&wl, 10_000_000, 0);
        assert!(noisy.corrupted > 0);
        assert_eq!(
            noisy.sink.policy_drops(),
            noisy.corrupted,
            "every corrupted packet must be dropped by the fail-closed firewall"
        );
    }

    #[test]
    #[should_panic(expected = "warmup")]
    fn warmup_must_precede_end() {
        let engine = Engine::new(vec![forwarding_stage(1)]);
        let wl = WorkloadSpec::cbr(1000.0, 64, 1, 1);
        let _ = engine.run(&wl, 1000, 1000);
    }

    #[test]
    fn pipelines_longer_than_4096_stages_run_and_conserve_packets() {
        // 4,097 forwarding stages in a line; each packet crosses all of
        // them in about 410 us, so a 2 ms run delivers most of its 20.
        const STAGES: usize = 4097;
        let engine = Engine::new((0..STAGES).map(|_| forwarding_stage(1)).collect());
        let wl = WorkloadSpec::cbr(10_000.0, 64, 4, 1);
        let r = engine.run(&wl, 2_000_000, 0);
        assert_eq!(r.stages.len(), STAGES);
        assert!(r.stages[STAGES - 1].served > 0, "packets must reach the last stage");
        assert!(r.sink.delivered_packets() > 0);
        assert!(r.stages.iter().all(StageReport::conserves_packets));
        for pair in r.stages.windows(2) {
            assert_eq!(pair[0].served - pair[0].policy_drops, pair[1].arrivals);
        }
        let accounted = r.sink.delivered_packets()
            + r.stages.iter().map(|s| s.queue_drops + s.policy_drops + s.in_flight).sum::<u64>();
        assert_eq!(accounted, r.injected);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_pipeline_rejected() {
        let _ = Engine::new(vec![]);
    }

    /// A flow-hash fan-out is checked once, when the engine is built: a
    /// range ending past the last stage would otherwise index out of
    /// bounds only when some flow first hashed there.
    #[test]
    #[should_panic(expected = "fans out past the last stage")]
    fn flow_hash_past_the_last_stage_rejected() {
        let splitter = forwarding_stage(1).with_next(NextHop::FlowHash { first: 1, count: 3 });
        let _ = Engine::new(vec![splitter, forwarding_stage(1), forwarding_stage(1)]);
    }

    /// A fan-out over zero stages would divide by zero on the first
    /// forwarded packet.
    #[test]
    #[should_panic(expected = "fans out over zero stages")]
    fn flow_hash_over_zero_stages_rejected() {
        let splitter = forwarding_stage(1).with_next(NextHop::FlowHash { first: 1, count: 0 });
        let _ = Engine::new(vec![splitter, forwarding_stage(1)]);
    }
}
