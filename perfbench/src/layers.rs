//! The traced run: one op broken down by layer, timed from outside.
//!
//! It breaks down the ops of the run's first traffic seed, `--seed`
//! itself. Each iteration times one untraced op, one op through
//! `Deployment::run_observed` with every observer feature off (for the
//! scheduler's event count), and then each layer's public functions on
//! the op's own inputs. Every column is reduced to its 10th percentile,
//! like `op_p10_ms`. An op covers the spec, the deployment's constructor
//! and `run`, so every layer row lies inside it; op time the rows do not
//! explain is the engine's own remainder, sign kept.

use crate::ops::Ops;
use crate::stats::quantile;
use apples_bench::scenarios::ips_needles;
use apples_bench::wallclock::WallClock;
use apples_obs::ObsConfig;
use apples_simnet::nf::NfChain;
use apples_simnet::packet::Packet;
use apples_workload::PacketStub;
use std::fmt::Write;
use std::hint::black_box;

/// L2–L4 header bytes the engine strips before synthesizing a payload.
const HEADER_BYTES: usize = 54;

/// An observer with every feature off: it only folds in the scheduler's
/// counters.
const COUNTERS_ONLY: ObsConfig =
    ObsConfig { trace_capacity: 0, telemetry: false, spans: false, timeseries: false };

/// Builds a packet from a stub the way the engine's arrival path does.
fn mint(stub: &PacketStub, id: u64, seed: u64, payload: Option<(f64, &[&[u8]])>) -> Packet {
    let pkt = Packet::new(id, stub.flow, stub.tuple, stub.size_bytes, stub.t_ns);
    match payload {
        Some((prob, needles)) => {
            let len = (stub.size_bytes as usize).saturating_sub(HEADER_BYTES);
            pkt.with_payload(len, seed, prob, needles)
        }
        None => pkt,
    }
}

/// Host milliseconds of each timed call, one entry per iteration.
#[derive(Default)]
struct Columns {
    op: Vec<f64>,
    traced: Vec<f64>,
    gen: Vec<f64>,
    mint: Vec<f64>,
    nf: Vec<f64>,
    fault: Vec<f64>,
    build: Vec<f64>,
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order,
/// and a readable table of them.
pub struct Breakdown {
    /// `(name, value)` for every per-layer metric.
    pub metrics: Vec<(&'static str, f64)>,
    /// The layer table, summing to the op time.
    pub table: String,
}

fn p10(xs: &[f64]) -> f64 {
    quantile(xs, 0.1).unwrap_or(f64::NAN)
}

fn share(x: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        x / whole
    } else {
        0.0
    }
}

/// Runs traced iterations for `seconds` (at least `min_iters`).
pub fn traced_run(ops: &mut Ops, seconds: u64, min_iters: usize) -> Breakdown {
    let w = ops.w;
    let seed = ops.traffic[0].seed;
    let stubs_n = ops.traffic[0].expect.stubs;
    let first = ops.traffic[0].first.clone().expect("set-up records each seed's first op");
    let needle_bytes = ips_needles();
    let needle_refs: Vec<&[u8]> = needle_bytes.iter().map(Vec::as_slice).collect();
    let payload = w.attack_prob.map(|p| (p, needle_refs.as_slice()));
    let stubs: Vec<PacketStub> = w.spec(seed).stream().take_while(|s| s.t_ns < w.run_ns).collect();
    let payload_bytes: u64 = match payload {
        Some(_) => stubs
            .iter()
            .map(|s| s.size_bytes.saturating_sub(HEADER_BYTES as u32))
            .map(u64::from)
            .sum(),
        None => 0,
    };

    // The NF layer's input: the op's surviving packets with their fault
    // marks, enough for the busiest stage (untimed).
    let calls: Vec<usize> =
        w.chains.iter().map(|&(stage, _)| first.stages[stage].served as usize).collect();
    let most = calls.iter().copied().max().unwrap_or(0);
    let plan = (w.build)().fault_plan(seed, w.run_ns);
    let mut nf_input = Vec::with_capacity(most);
    for (id, stub) in (0u64..).zip(&stubs) {
        if nf_input.len() == most {
            break;
        }
        if plan.as_ref().is_some_and(|p| p.drops(id)) {
            continue;
        }
        let mut pkt = mint(stub, id, seed, payload);
        pkt.corrupted = plan.as_ref().is_some_and(|p| p.corrupts(id));
        nf_input.push(pkt);
    }

    let mut col = Columns::default();
    let mut stage_nf: Vec<Vec<f64>> = vec![Vec::new(); w.chains.len()];
    let mut events = None;
    let clock = WallClock::start();
    while col.op.len() < min_iters || clock.elapsed_ms() < seconds as f64 * 1e3 {
        col.op.push(ops.timed_op(0));

        let t = WallClock::start();
        let d = (w.build)();
        let (m, obs) = d.run_observed(&w.spec(seed), w.run_ns, w.warmup_ns, &COUNTERS_ONLY);
        col.traced.push(t.elapsed_ms());
        ops.record(0, black_box(m));
        if *events.get_or_insert(obs.sched.pushes) != obs.sched.pushes {
            eprintln!("{}: scheduler push count changed between observed ops", w.name);
            ops.failed += 1;
        }

        let t = WallClock::start();
        let d = (w.build)();
        let chains: Vec<NfChain> = w.chains.iter().map(|&(_, chain)| chain()).collect();
        drop(black_box(chains));
        col.build.push(t.elapsed_ms());

        let t = WallClock::start();
        let plan = d.fault_plan(seed, w.run_ns);
        let (mut drops, mut corrupted) = (0u64, 0u64);
        if let Some(p) = &plan {
            for id in 0..stubs_n {
                if p.drops(id) {
                    drops += 1;
                } else if p.corrupts(id) {
                    corrupted += 1;
                }
            }
        }
        black_box(&plan);
        col.fault.push(t.elapsed_ms());
        if (drops, corrupted) != (first.injected_drops, first.corrupted) {
            eprintln!("{}: the fault plan's decisions disagree with the op's counts", w.name);
            ops.failed += 1;
        }

        let t = WallClock::start();
        let mut generated = 0u64;
        for stub in w.spec(seed).stream().take_while(|s| s.t_ns < w.run_ns) {
            black_box(stub);
            generated += 1;
        }
        col.gen.push(t.elapsed_ms());
        if generated != stubs_n {
            eprintln!("{}: the stream generated {generated} stubs", w.name);
            ops.failed += 1;
        }

        let t = WallClock::start();
        for (id, stub) in (0u64..).zip(&stubs) {
            black_box(mint(stub, id, seed, payload));
        }
        col.mint.push(t.elapsed_ms());

        let mut nf_ms = 0.0;
        for ((&(_, chain), &n), times) in w.chains.iter().zip(&calls).zip(&mut stage_nf) {
            let mut chain = chain();
            let t = WallClock::start();
            for pkt in nf_input.iter().cycle().take(n) {
                black_box(chain.run(black_box(pkt)));
            }
            let ms = t.elapsed_ms();
            times.push(ms);
            nf_ms += ms;
        }
        col.nf.push(nf_ms);
    }

    let op = p10(&col.op);
    let traced = p10(&col.traced);
    let (gen, mint_ms, nf, fault, build) =
        (p10(&col.gen), p10(&col.mint), p10(&col.nf), p10(&col.fault), p10(&col.build));
    let self_ms = op - (gen + mint_ms + nf + fault + build);
    let nf_calls: u64 = calls.iter().map(|&n| n as u64).sum();
    let events = events.unwrap_or(0);
    let served: u64 = first.stages.iter().map(|s| s.served).sum();
    let queue_drops: u64 = first.stages.iter().map(|s| s.queue_drops).sum();
    let entered = first.stages[0].arrivals;
    let payload_used = if payload.is_some() { share(nf_calls as f64, stubs_n as f64) } else { 0.0 };

    let metrics = vec![
        ("trace.op_ms", op),
        ("trace.overhead", share(traced, op)),
        ("workload.gen_ms", gen),
        ("workload.stubs", stubs_n as f64),
        ("packet.mint_ms", mint_ms),
        ("packet.payload_mb", payload_bytes as f64 / 1e6),
        ("packet.payload_used", payload_used),
        ("nf.calls", nf_calls as f64),
        ("nf.ns_per_call", share(nf * 1e6, nf_calls as f64)),
        ("nf.ms", nf),
        ("fault.plan_ms", fault),
        ("fault.injected_drops", first.injected_drops as f64),
        ("fault.corrupted", first.corrupted as f64),
        ("system.build_ms", build),
        ("engine.events", events as f64),
        ("engine.served", served as f64),
        ("engine.queue_drops", queue_drops as f64),
        ("engine.queue_drop_share", share(queue_drops as f64, entered as f64)),
        ("engine.self_ms", self_ms),
        ("engine.self_ns_per_event", share(self_ms * 1e6, events as f64)),
    ];

    let mut t = String::new();
    let _ = writeln!(t, "{} traced iterations; every time is the p10 over them", col.op.len());
    let _ = writeln!(t, "{:<9}{:<52}{:>10}{:>8}", "layer", "public call timed", "ms", "share");
    let mut row = |layer: &str, call: String, ms: f64| {
        let _ = writeln!(t, "{layer:<9}{call:<52}{ms:>10.3}{:>7.1}%", 100.0 * share(ms, op));
    };
    row("workload", format!("spec + WorkloadSpec::stream ({stubs_n} stubs)"), gen);
    row(
        "packet",
        format!("Packet::new + with_payload ({:.1} MB)", payload_bytes as f64 / 1e6),
        mint_ms,
    );
    row("nf", format!("NfChain::run x {nf_calls}"), nf);
    row("fault", "Deployment::fault_plan + per-packet decisions".to_owned(), fault);
    row("system", "constructor + chain factories".to_owned(), build);
    row("engine", format!("remainder: dispatch, scheduler, stats ({events} events)"), self_ms);
    row("op", "spec + constructor + Deployment::run".to_owned(), op);
    for ((&(stage, _), n), times) in w.chains.iter().zip(&calls).zip(&stage_nf) {
        let ms = p10(times);
        let per_call = share(ms * 1e6, *n as f64);
        let _ =
            writeln!(t, "  nf stage {stage} {}: {n} calls, {per_call:.1} ns/call", w.stages[stage]);
    }
    let layers = [
        ("workload", gen),
        ("packet", mint_ms),
        ("nf", nf),
        ("fault", fault),
        ("system", build),
        ("engine", self_ms),
    ];
    let largest =
        layers.into_iter().max_by(|a, b| a.1.total_cmp(&b.1)).map_or("none", |(name, _)| name);
    let _ = writeln!(t, "largest layer: {largest}");
    if payload.is_some() {
        let _ = writeln!(
            t,
            "packet.payload_used: {nf_calls} payloads scanned / {stubs_n} synthesized = {:.1}%",
            100.0 * payload_used
        );
    }
    let _ = writeln!(
        t,
        "engine.queue_drop_share: {queue_drops} queue drops / {entered} arrivals = {:.1}%",
        100.0 * share(queue_drops as f64, entered as f64)
    );
    let _ = writeln!(
        t,
        "trace.overhead: observed op {traced:.3} ms / untraced op {op:.3} ms = {:.3}",
        share(traced, op)
    );
    Breakdown { metrics, table: t }
}
