//! Dev probe decomposing forward-2stage per-packet cost into stub
//! generation, packet minting, raw event-queue traffic, and the full engine
//! run. Not wired into CI; run with
//! `cargo run --release -p apples-bench --example hotpath_probe`.

use apples_bench::wallclock::WallClock;
use apples_simnet::engine::StageConfig;
use apples_simnet::nf::NfChain;
use apples_simnet::sched::EventScheduler;
use apples_simnet::service::{LineRate, NfService};
use apples_simnet::{Engine, Packet};
use apples_workload::WorkloadSpec;

fn forward_pipeline() -> Engine {
    Engine::new(vec![
        StageConfig::new("front", 2, 128, Box::new(NfService::host_core(NfChain::empty()))),
        StageConfig::new("back", 1, 128, Box::new(LineRate::new("10G", 10e9))),
    ])
}

fn main() {
    let wl = WorkloadSpec::cbr(8e6, 200, 16, 7);
    let sim_ns = 50_000_000u64;

    // 1. Stub generation alone.
    let t0 = WallClock::start();
    let mut n = 0u64;
    let mut acc = 0u64;
    for s in wl.stream().take_while(|s| s.t_ns < sim_ns) {
        n += 1;
        acc = acc.wrapping_add(u64::from(s.size_bytes) + s.t_ns);
    }
    let gen_ms = t0.elapsed_ms();
    println!(
        "stub-gen: {n} stubs in {gen_ms:.1} ms = {:.0} ns/stub (acc {acc})",
        gen_ms * 1e6 / n as f64
    );

    // 2. Stub gen + Packet::new + a sink-shaped accumulation.
    let t0 = WallClock::start();
    let mut bits = 0u64;
    for (i, s) in wl.stream().take_while(|s| s.t_ns < sim_ns).enumerate() {
        let p = Packet::new(i as u64, s.flow, s.tuple, s.size_bytes, s.t_ns);
        bits = bits.wrapping_add(p.wire_bits());
    }
    let pkt_ms = t0.elapsed_ms();
    println!("stub+packet: {pkt_ms:.1} ms = {:.0} ns/pkt (bits {bits})", pkt_ms * 1e6 / n as f64);

    // 3. Raw event queue at engine-like occupancy: 2 pushes + drains per
    //    packet at ~125 ns spacing.
    let t0 = WallClock::start();
    let mut s = EventScheduler::new();
    let mut seq = 0u64;
    let mut now = 0u64;
    let mut bucket = Vec::new();
    let mut pops = 0u64;
    for i in 0..n {
        let t = i * 125;
        s.push(t + 100, seq, 0);
        seq += 1;
        s.push(t + 180, seq, 0);
        seq += 1;
        while s.peek_time().is_some_and(|pt| pt <= t) {
            s.drain_bucket(&mut bucket);
            pops += bucket.len() as u64;
            now = now.max(t);
        }
    }
    while !s.is_empty() {
        s.drain_bucket(&mut bucket);
        pops += bucket.len() as u64;
    }
    let queue_ms = t0.elapsed_ms();
    println!(
        "queue 2ev/pkt: {queue_ms:.1} ms = {:.0} ns/pkt ({pops} pops, cursor {now})",
        queue_ms * 1e6 / n as f64
    );

    // 4. Full engine run (fused).
    let mut engine = forward_pipeline();
    let t0 = WallClock::start();
    let r = engine.run(&wl, sim_ns, 0);
    let run_ms = t0.elapsed_ms();
    println!(
        "engine run: {run_ms:.1} ms = {:.0} ns/pkt, {:.0} ns/event ({} events)",
        run_ms * 1e6 / n as f64,
        run_ms * 1e6 / r.total_events as f64,
        r.total_events
    );
}
