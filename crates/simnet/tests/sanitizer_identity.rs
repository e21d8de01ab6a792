//! The order-sanitizer's own identity gate: a sanitized run — with or
//! without the interleaving perturber — must produce **byte-identical**
//! measurements to a plain run, with batching, multi-stage offload
//! pipelines, unfused hops, and fault plans in play.
//!
//! The perturber delivers every same-timestamp equivalence class in a
//! shuffled (but seeded) order and restores canonical order with the
//! seq-keyed merge. If any engine path secretly depends on the buffer
//! order before that merge, these tests break.

use apples_obs::ObsConfig;
use apples_simnet::fault::FaultSpec;
use apples_simnet::nf::dpi::{Dpi, MatchPolicy};
use apples_simnet::nf::firewall::{synth_rules, Action, Firewall};
use apples_simnet::nf::NfChain;
use apples_simnet::system::{Deployment, Measurement, RunOpts};
use apples_simnet::{OrderSanitizer, SanitizerReport};
use apples_workload::{ArrivalProcess, PacketSizeDist, WorkloadSpec};

const RUN_NS: u64 = 10_000_000;
const WARMUP_NS: u64 = 1_000_000;

fn firewall_chain(rules: usize) -> impl Fn() -> NfChain {
    move || NfChain::new(vec![Box::new(Firewall::new(synth_rules(rules, 0.05, 7), Action::Deny))])
}

/// Runs `d` with `sanitizer` shadowing the dispatch walk.
fn run_sanitized(
    d: &Deployment,
    wl: &WorkloadSpec,
    sanitizer: OrderSanitizer,
) -> (Measurement, SanitizerReport) {
    let opts = RunOpts { sanitizer: Some(sanitizer), ..RunOpts::default() };
    let out = d.run_with(wl, RUN_NS, WARMUP_NS, opts);
    (out.measurement, out.sanitizer.expect("an attached sanitizer hands back its report"))
}

type Contender = (&'static str, Box<dyn Fn() -> Deployment>);

/// The three contender shapes the worked example compares.
fn deployments() -> Vec<Contender> {
    vec![
        ("base-2c", Box::new(|| Deployment::cpu_host("base-2c", 2, firewall_chain(100)))),
        (
            "smartnic",
            Box::new(|| {
                Deployment::smartnic_offload("smartnic", 4, firewall_chain(100), 1, NfChain::empty)
            }),
        ),
        (
            "switch-2c",
            Box::new(|| {
                Deployment::switch_frontend("switch-2c", firewall_chain(100), 2, NfChain::empty)
            }),
        ),
    ]
}

fn assert_identical(name: &str, plain: &Measurement, sanitized: &Measurement, mode: &str) {
    assert_eq!(
        plain.throughput_bps.to_bits(),
        sanitized.throughput_bps.to_bits(),
        "{name}/{mode}: throughput diverged"
    );
    assert_eq!(
        plain.mean_latency_ns.to_bits(),
        sanitized.mean_latency_ns.to_bits(),
        "{name}/{mode}: mean latency diverged"
    );
    assert_eq!(
        plain.p99_latency_ns.to_bits(),
        sanitized.p99_latency_ns.to_bits(),
        "{name}/{mode}: p99 diverged"
    );
    assert_eq!(plain.policy_drops, sanitized.policy_drops, "{name}/{mode}: drops diverged");
    assert_eq!(plain.stages, sanitized.stages, "{name}/{mode}: stage reports diverged");
}

#[test]
fn sanitized_runs_are_byte_identical_across_contenders() {
    let wl = WorkloadSpec::cbr(2e6, 1500, 16, 5);
    for (name, mk) in deployments() {
        let plain = mk().run(&wl, RUN_NS, WARMUP_NS);
        // Check-only sanitizer.
        let (checked, rep) = run_sanitized(&mk(), &wl, OrderSanitizer::new());
        assert_identical(name, &plain, &checked, "check");
        assert!(rep.events > 0, "{name}: sanitizer saw no events");
        assert_eq!(rep.perturbed, 0, "{name}: check-only mode must not perturb");
        // Perturbed sanitizer: shuffled equivalence classes, same bytes.
        let (perturbed, _) = run_sanitized(&mk(), &wl, OrderSanitizer::with_perturbation(0xD15F));
        assert_identical(name, &plain, &perturbed, "perturb");
    }
}

#[test]
fn batched_pipelines_exercise_the_perturber_on_multi_event_classes() {
    // A GPU batcher with unfused hops is the worst case for the seq
    // merge: every kernel completion re-enqueues its whole batch at one
    // timestamp, so the walk's re-drain tails are genuinely multi-event
    // and the perturber has real equivalence classes to shuffle.
    use apples_simnet::engine::BatchPolicy;
    let wl = WorkloadSpec::cbr(8e6, 1500, 16, 5);
    let mk = |fused: bool| {
        move || {
            Deployment::gpu_offload(
                "gpu-batch",
                BatchPolicy::new(32, 100_000, 15_000),
                firewall_chain(50),
            )
            .with_fusion(fused)
        }
    };
    for fused in [true, false] {
        let make = mk(fused);
        let plain = make().run(&wl, RUN_NS, WARMUP_NS);
        let (perturbed, rep) =
            run_sanitized(&make(), &wl, OrderSanitizer::with_perturbation(0xBEEF));
        assert_identical("gpu-batch", &plain, &perturbed, "perturb");
        if !fused {
            assert!(rep.max_bucket > 1, "batch completions must collide timestamps");
            assert!(rep.perturbed > 0, "perturber must have shuffled at least one class");
        }
    }
}

#[test]
fn sanitized_runs_survive_fault_plans_and_unfused_hops() {
    let wl = WorkloadSpec::cbr(2e6, 1500, 16, 5);
    let mk = || {
        Deployment::cpu_host("faulted", 2, firewall_chain(50))
            .with_faults(FaultSpec::at_severity(0.8))
    };
    let plain = mk().run(&wl, RUN_NS, WARMUP_NS);
    let (perturbed, _) = run_sanitized(&mk(), &wl, OrderSanitizer::with_perturbation(7));
    assert_identical("faulted", &plain, &perturbed, "perturb");
    assert_eq!(plain.injected_drops, perturbed.injected_drops);
    assert_eq!(plain.fault_drops, perturbed.fault_drops);

    // Unfused hops re-enqueue through the event queue: a different event
    // population for the sanitizer to check, same bytes out.
    let mk2 = || {
        Deployment::smartnic_offload("unfused", 4, firewall_chain(50), 1, NfChain::empty)
            .with_fusion(false)
    };
    let unfused_plain = mk2().run(&wl, RUN_NS, WARMUP_NS);
    let (unfused_perturbed, rep) = run_sanitized(&mk2(), &wl, OrderSanitizer::with_perturbation(7));
    assert_identical("unfused", &unfused_plain, &unfused_perturbed, "perturb");
    assert!(rep.events > 0);
}

#[test]
fn perturbation_seed_does_not_leak_into_results() {
    // Different perturbation seeds shuffle differently but must land on
    // the same canonical order — and therefore the same bytes.
    let wl = WorkloadSpec::cbr(2e6, 1500, 16, 5);
    let mk = || Deployment::cpu_host("seeds", 2, firewall_chain(100));
    let (a, ra) = run_sanitized(&mk(), &wl, OrderSanitizer::with_perturbation(1));
    let (b, rb) = run_sanitized(&mk(), &wl, OrderSanitizer::with_perturbation(0xFFFF_FFFF));
    assert_identical("seeds", &a, &b, "cross-seed");
    // Both perturbed the same population of events.
    assert_eq!(ra.events, rb.events);
    assert_eq!(ra.buckets, rb.buckets);
}

#[test]
fn observed_perturbed_runs_keep_the_bytes() {
    // Everything `xp run --sanitize` attaches to one run at once —
    // telemetry, spans and the time series, plus the perturber. Bursty
    // Poisson arrivals of IMIX frames collide on timestamps, so the
    // perturber has classes to shuffle; under CBR the largest class is
    // one event.
    let wl = WorkloadSpec {
        sizes: PacketSizeDist::Imix,
        arrivals: ArrivalProcess::Poisson { rate_pps: 4e6 },
        flows: 64,
        zipf_s: 1.0,
        seed: 5,
    }
    .with_overload_bursts(3.0, 500_000, 2_000_000);
    let dpi_chain =
        || NfChain::new(vec![Box::new(Dpi::new(&Dpi::demo_signatures(), MatchPolicy::Block))]);
    let needles: Vec<Vec<u8>> = Dpi::demo_signatures().iter().map(|s| s.to_vec()).collect();
    let shapes: Vec<Contender> = vec![
        (
            "cluster",
            Box::new(|| Deployment::replicated_cluster("cluster", 4, 2, 0.1, firewall_chain(100))),
        ),
        (
            "smartnic-dpi",
            Box::new(move || {
                Deployment::smartnic_offload("smartnic-dpi", 4, dpi_chain, 1, NfChain::empty)
                    .with_payloads(0.05, needles.clone())
            }),
        ),
    ];
    let observer = ObsConfig { trace_capacity: 0, telemetry: true, spans: true, timeseries: true };
    for (name, mk) in shapes {
        let plain = mk().run(&wl, RUN_NS, WARMUP_NS);
        let opts = RunOpts {
            observer: Some(observer.clone()),
            sanitizer: Some(OrderSanitizer::with_perturbation(0xD15F)),
        };
        let out = mk().run_with(&wl, RUN_NS, WARMUP_NS, opts);
        assert_eq!(
            out.measurement.fingerprint(),
            plain.fingerprint(),
            "{name}: observed perturbed run diverged from the plain run"
        );
        let rep = out.sanitizer.expect("an attached sanitizer hands back its report");
        assert!(rep.perturbed > 0, "{name}: the perturber never fired");
        let obs = out.observer.expect("an attached observer is handed back");
        assert!(obs.timeseries.is_some_and(|ts| ts.total_dispatches() > 0), "{name}");
    }
}
