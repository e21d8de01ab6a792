//! Simulated packets.
//!
//! A [`Packet`] carries its wire size, flow identity (an IPv4 5-tuple
//! from the workload generator and that tuple's hash), arrival
//! timestamp, and — only when a payload-inspecting function is in the
//! pipeline — synthesized payload bytes. Packets enter the engine
//! header-only; the engine fills the payload in place (the bytes
//! [`Packet::with_payload`] would attach) when a packet first enters
//! service, so packets dropped or still queued before then never carry
//! one. A payload is a plain boxed byte slice owned by its packet: no
//! packet is cloned inside the pipeline, and the empty payload
//! allocates nothing.

use apples_rng::Rng;
use apples_workload::{FiveTuple, PacketStub};

/// A packet traversing the simulated pipeline.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Monotonic packet id (generation order).
    pub id: u64,
    /// Flow index within the workload's population.
    pub flow: u32,
    /// The flow's 5-tuple.
    pub tuple: FiveTuple,
    /// `tuple.hash64()`, computed once per flow by the workload's
    /// population: what ECMP and RSS steering and sketches key on.
    pub flow_hash: u64,
    /// Frame size on the wire, bytes.
    pub size_bytes: u32,
    /// Arrival time at the first stage, simulated nanoseconds.
    pub t_arrival_ns: u64,
    /// L4 payload bytes (empty unless synthesized for DPI workloads,
    /// which happens as the packet first enters service).
    pub payload: Box<[u8]>,
    /// Set by the fault-injection layer when the packet was corrupted
    /// in transit; NFs apply their fail-open/fail-closed policy to it.
    pub corrupted: bool,
}

impl Packet {
    /// Creates a packet without payload bytes (header-only processing),
    /// hashing its tuple.
    pub fn new(id: u64, flow: u32, tuple: FiveTuple, size_bytes: u32, t_arrival_ns: u64) -> Self {
        Packet {
            id,
            flow,
            tuple,
            flow_hash: tuple.hash64(),
            size_bytes,
            t_arrival_ns,
            payload: Box::default(),
            corrupted: false,
        }
    }

    /// The header-only packet `id` for a generated stub, taking the
    /// tuple's hash from the stub rather than hashing again.
    #[inline]
    pub(crate) fn from_stub(id: u64, stub: &PacketStub) -> Self {
        Packet {
            id,
            flow: stub.flow,
            tuple: stub.tuple,
            flow_hash: stub.flow_hash,
            size_bytes: stub.size_bytes,
            t_arrival_ns: stub.t_ns,
            payload: Box::default(),
            corrupted: false,
        }
    }

    /// Attaches a synthesized payload of `len` bytes, deterministic in
    /// `(seed, id)`. With probability `attack_prob`, one of `needles` is
    /// embedded at a random offset — the DPI experiments' ground truth.
    pub fn with_payload<N: AsRef<[u8]>>(
        mut self,
        len: usize,
        seed: u64,
        attack_prob: f64,
        needles: &[N],
    ) -> Self {
        self.fill_payload(len, seed, attack_prob, needles);
        self
    }

    /// [`Packet::with_payload`] in place: the engine fills a packet's
    /// payload where the packet sits in its run's packet slab. Out of
    /// line, so the engine's payload check inlines at each service start.
    #[inline(never)]
    pub(crate) fn fill_payload<N: AsRef<[u8]>>(
        &mut self,
        len: usize,
        seed: u64,
        attack_prob: f64,
        needles: &[N],
    ) {
        let mut rng = Rng::seed_from_u64(seed ^ self.id.wrapping_mul(0x9E3779B97F4A7C15));
        let mut buf = vec![0u8; len];
        // Printable-ish filler so needles are unambiguous.
        for b in buf.iter_mut() {
            *b = rng.range_u8_inclusive(b'a', b'z');
        }
        if !needles.is_empty() && len > 0 && rng.gen_bool(attack_prob) {
            let needle = needles[rng.range_usize(0, needles.len())].as_ref();
            if needle.len() <= len {
                let off = rng.range_usize(0, len - needle.len() + 1);
                buf[off..off + needle.len()].copy_from_slice(needle);
            }
        }
        self.payload = buf.into_boxed_slice();
    }

    /// Wire bits including Ethernet preamble + inter-frame gap (20 B),
    /// the quantity that occupies a link, summed in `u64` so no frame
    /// size wraps. Per-event on the engine's hot path, hence the inline
    /// hint.
    #[inline]
    pub fn wire_bits(&self) -> u64 {
        (u64::from(self.size_bytes) + 20) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple() -> FiveTuple {
        FiveTuple { src_ip: 0x0A000001, dst_ip: 0xC0A80001, src_port: 1234, dst_port: 80, proto: 6 }
    }

    #[test]
    fn header_only_packets_have_empty_payload() {
        let p = Packet::new(1, 0, tuple(), 64, 100);
        assert!(p.payload.is_empty());
        assert_eq!(p.size_bytes, 64);
    }

    #[test]
    fn wire_bits_include_overhead() {
        let p = Packet::new(1, 0, tuple(), 64, 0);
        assert_eq!(p.wire_bits(), (64 + 20) * 8);
    }

    #[test]
    fn wire_bits_do_not_wrap_at_the_largest_frame() {
        // A u32 sum would wrap to 19 bytes here (and panic in debug).
        let p = Packet::new(1, 0, tuple(), u32::MAX, 0);
        assert_eq!(p.wire_bits(), (u64::from(u32::MAX) + 20) * 8);
        assert_eq!(
            Packet::new(1, 0, tuple(), u32::MAX - 20, 0).wire_bits(),
            u64::from(u32::MAX) * 8
        );
    }

    #[test]
    fn packets_carry_their_tuples_hash() {
        use apples_workload::{ArrivalProcess, PacketSizeDist, WorkloadSpec};
        assert_eq!(Packet::new(1, 0, tuple(), 64, 0).flow_hash, tuple().hash64());
        let spec = WorkloadSpec {
            sizes: PacketSizeDist::Imix,
            arrivals: ArrivalProcess::Poisson { rate_pps: 1e6 },
            flows: 512,
            zipf_s: 1.0,
            seed: 71,
        };
        let stubs = spec.packets_for(2_000_000);
        assert!(stubs.len() > 1_000, "{} stubs", stubs.len());
        for (id, stub) in (0u64..).zip(&stubs) {
            let minted = Packet::from_stub(id, stub);
            let built = Packet::new(id, stub.flow, stub.tuple, stub.size_bytes, stub.t_ns);
            assert_eq!(minted.flow_hash, stub.tuple.hash64(), "stub {id}");
            assert_eq!(built.flow_hash, minted.flow_hash, "stub {id}");
            assert_eq!(
                (minted.id, minted.flow, minted.tuple, minted.size_bytes, minted.t_arrival_ns),
                (built.id, built.flow, built.tuple, built.size_bytes, built.t_arrival_ns)
            );
        }
    }

    #[test]
    fn payload_is_deterministic_per_seed_and_id() {
        let none: &[&[u8]] = &[];
        let a = Packet::new(7, 0, tuple(), 256, 0).with_payload(200, 99, 0.0, none);
        let b = Packet::new(7, 0, tuple(), 256, 0).with_payload(200, 99, 0.0, none);
        assert_eq!(a.payload, b.payload);
        let c = Packet::new(8, 0, tuple(), 256, 0).with_payload(200, 99, 0.0, none);
        assert_ne!(a.payload, c.payload);
    }

    #[test]
    fn attack_probability_controls_needle_insertion() {
        let needles: &[&[u8]] = &[b"EVILPATTERN"];
        let contains = |prob: f64| {
            (0..500)
                .filter(|i| {
                    let p = Packet::new(*i, 0, tuple(), 512, 0).with_payload(400, 1, prob, needles);
                    p.payload.windows(11).any(|w| w == b"EVILPATTERN")
                })
                .count()
        };
        assert_eq!(contains(0.0), 0);
        let hits = contains(0.5);
        assert!(hits > 150 && hits < 350, "hits {hits}");
    }

    #[test]
    fn needle_longer_than_payload_is_skipped() {
        let needles: &[&[u8]] = &[b"AVERYLONGNEEDLE"];
        let p = Packet::new(1, 0, tuple(), 64, 0).with_payload(4, 1, 1.0, needles);
        assert_eq!(p.payload.len(), 4);
    }
}
