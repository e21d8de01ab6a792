//! Structured sim-time tracing: typed events in a bounded ring buffer.
//!
//! Events are keyed on `(t_ns, seq, stage)` — the same total order the
//! event engine schedules by — and never on slab slots or addresses, so
//! a trace is byte-identical wherever the run executes. The ring bound
//! keeps memory flat on long runs: when full, the oldest events are
//! overwritten and counted, never silently lost.

/// Why a traced packet left the pipeline early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceDrop {
    /// A stage's bounded queue was full (overload loss).
    QueueFull,
    /// A network function's policy denied it (firewall deny, IDS block).
    Policy,
    /// The fault layer lost it (injection-point loss or a down device).
    Fault,
}

impl TraceDrop {
    /// Stable label used in exported trace files.
    pub fn label(self) -> &'static str {
        match self {
            TraceDrop::QueueFull => "queue-full",
            TraceDrop::Policy => "policy",
            TraceDrop::Fault => "fault",
        }
    }
}

/// A fault-plan action applied to a stage, as seen by the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFault {
    /// A transient slowdown began (service times scale up).
    SlowdownStart,
    /// The slowdown ended (service factor back to 1).
    SlowdownEnd,
    /// The device went down (outage begins).
    DeviceDown,
    /// The device came back up (outage ends).
    DeviceUp,
    /// A per-packet injection-point drop fired.
    InjectedDrop,
    /// A per-packet corruption fired.
    Corrupt,
}

impl TraceFault {
    /// Stable label used in exported trace files.
    pub fn label(self) -> &'static str {
        match self {
            TraceFault::SlowdownStart => "slowdown-start",
            TraceFault::SlowdownEnd => "slowdown-end",
            TraceFault::DeviceDown => "device-down",
            TraceFault::DeviceUp => "device-up",
            TraceFault::InjectedDrop => "injected-drop",
            TraceFault::Corrupt => "corrupt",
        }
    }
}

/// The event taxonomy. Payloads carry only deterministic quantities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A packet was queued at a stage; `depth` is the queue depth
    /// *after* the push.
    Enqueue {
        /// Stage index in the deployment's stage list.
        stage: u32,
        /// Queue depth after this packet was pushed.
        depth: u32,
    },
    /// A packet left a stage queue and entered service after waiting
    /// `wait_ns` in the queue.
    Dispatch {
        /// Stage index.
        stage: u32,
        /// Sim-time nanoseconds the packet spent queued.
        wait_ns: u64,
    },
    /// A packet arrived at a stage (before any queue/serve decision).
    StageEnter {
        /// Stage index.
        stage: u32,
    },
    /// A packet finished service at a stage.
    StageExit {
        /// Stage index.
        stage: u32,
        /// Sim-time nanoseconds of service this completion took.
        service_ns: u64,
        /// Whether the stage forwarded the packet (`false` = denied).
        forwarded: bool,
    },
    /// A packet was dropped.
    Drop {
        /// Stage index.
        stage: u32,
        /// Why it was dropped.
        reason: TraceDrop,
    },
    /// A fault-plan action was applied.
    Fault {
        /// Stage index the action targeted.
        stage: u32,
        /// Which action.
        fault: TraceFault,
    },
}

impl TraceKind {
    /// The stage this event belongs to.
    pub fn stage(&self) -> u32 {
        match *self {
            TraceKind::Enqueue { stage, .. }
            | TraceKind::Dispatch { stage, .. }
            | TraceKind::StageEnter { stage }
            | TraceKind::StageExit { stage, .. }
            | TraceKind::Drop { stage, .. }
            | TraceKind::Fault { stage, .. } => stage,
        }
    }

    /// Stable short name used in exported trace files.
    pub fn label(&self) -> &'static str {
        match self {
            TraceKind::Enqueue { .. } => "enqueue",
            TraceKind::Dispatch { .. } => "dispatch",
            TraceKind::StageEnter { .. } => "arrive",
            TraceKind::StageExit { .. } => "service",
            TraceKind::Drop { .. } => "drop",
            TraceKind::Fault { .. } => "fault",
        }
    }
}

/// One trace record: where in sim-time, which scheduled event, what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated nanoseconds since run start.
    pub t_ns: u64,
    /// Deterministic discriminator: the packet id for packet-scoped
    /// events, the scheduler sequence number for fault actions. Either
    /// way it is schedule-invariant — never a slab slot or address.
    pub seq: u64,
    /// What happened.
    pub kind: TraceKind,
}

/// Bounded ring-buffer trace sink.
///
/// Keeps the most recent `capacity` events; older events are overwritten
/// and tallied in [`Tracer::overwritten`] so exports can say exactly
/// what the bound cost. Iteration yields oldest → newest.
#[derive(Debug, Clone)]
pub struct Tracer {
    buf: Vec<TraceEvent>,
    head: usize,
    emitted: u64,
    capacity: usize,
}

impl Tracer {
    /// Creates a tracer bounded at `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Tracer { buf: Vec::with_capacity(capacity.min(4096)), head: 0, emitted: 0, capacity }
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The ring bound this tracer was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events emitted into the tracer, including overwritten ones.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// How many events the ring bound discarded (oldest-first).
    pub fn overwritten(&self) -> u64 {
        self.emitted - self.buf.len() as u64
    }

    /// Retained events, oldest → newest.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf[self.head..].iter().chain(self.buf[..self.head].iter())
    }

    /// Records one event, overwriting the oldest when the ring is full.
    #[inline]
    pub fn emit(&mut self, ev: TraceEvent) {
        self.emitted += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, seq: u64) -> TraceEvent {
        TraceEvent { t_ns: t, seq, kind: TraceKind::StageEnter { stage: 0 } }
    }

    #[test]
    fn ring_keeps_most_recent_in_order() {
        let mut tr = Tracer::with_capacity(3);
        for i in 0..5 {
            tr.emit(ev(i, i));
        }
        let seqs: Vec<u64> = tr.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(tr.emitted(), 5);
        assert_eq!(tr.overwritten(), 2);
        assert_eq!(tr.capacity(), 3);
    }

    #[test]
    fn under_capacity_keeps_everything() {
        let mut tr = Tracer::with_capacity(8);
        for i in 0..3 {
            tr.emit(ev(10 + i, i));
        }
        assert_eq!(tr.len(), 3);
        assert!(!tr.is_empty());
        assert_eq!(tr.overwritten(), 0);
        let seqs: Vec<u64> = tr.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut tr = Tracer::with_capacity(0);
        tr.emit(ev(1, 1));
        tr.emit(ev(2, 2));
        assert_eq!(tr.len(), 1);
        assert_eq!(tr.events().next().map(|e| e.seq), Some(2));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(TraceDrop::QueueFull.label(), "queue-full");
        assert_eq!(TraceFault::DeviceDown.label(), "device-down");
        let k = TraceKind::Drop { stage: 3, reason: TraceDrop::Policy };
        assert_eq!(k.label(), "drop");
        assert_eq!(k.stage(), 3);
    }
}
