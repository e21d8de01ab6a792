//! One op: build the workload's traffic spec and deployment through the
//! program's constructors and make one `Deployment::run` call. The op's
//! time covers all three, so work moved out of `run` into a constructor
//! still counts. Every op, timed or not, is checked and counted.
//!
//! A run draws its ops from [`SEEDS_PER_RUN`] traffic seeds made from
//! `--seed`, in turn. One traffic seed alone moves op time by several
//! percent (on sim-faults the outage windows fall differently), so a
//! run reports the mean over its traffic seeds of each seed's p10.
//!
//! Setting up a traffic seed means building its spec and deployment and
//! running its first op, checked like any other. That first op fills
//! the caches and becomes the seed's reference measurement. The arrival
//! count the checks expect is taken beforehand and is not timed. Each
//! cycle of timed ops starts by setting up one more traffic seed, never
//! used before in the run, so set-ups sample the same phases of the host
//! as the ops do.

use crate::check::{check_op, fingerprint, Expect};
use crate::workloads::Workload;
use apples_bench::wallclock::WallClock;
use apples_simnet::system::Measurement;
use std::hint::black_box;

/// Traffic seeds per run that the timed ops cycle through.
const SEEDS_PER_RUN: usize = 5;

/// The `k`-th traffic seed of a run: `run_seed` itself first, so the
/// default seed replays the source experiment's traffic, then seeds
/// drawn from it.
fn traffic_seed(run_seed: u64, k: u64) -> u64 {
    run_seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// One op on traffic `seed`.
pub fn op(w: &Workload, seed: u64) -> Measurement {
    (w.build)().run(&w.spec(seed), w.run_ns, w.warmup_ns)
}

/// One traffic seed and what its ops must reproduce.
pub struct Traffic {
    /// The workload seed.
    pub seed: u64,
    /// What every op on this traffic must reproduce.
    pub expect: Expect,
    /// The first measurement on this traffic.
    pub first: Option<Measurement>,
}

impl Traffic {
    /// Checks one op's measurement. The first one becomes the reference
    /// every later op must match bit for bit.
    fn check(&mut self, m: Measurement) -> Result<(), String> {
        let verdict = check_op(&m, &self.expect);
        if self.first.is_none() {
            self.expect.reference = Some(fingerprint(&m));
            self.first = Some(m);
        }
        verdict
    }
}

/// The ops of one run and their accounting.
pub struct Ops {
    /// The workload being run.
    pub w: &'static Workload,
    /// The traffic seeds the timed ops cycle through, `--seed` first.
    pub traffic: Vec<Traffic>,
    /// `--seed`, from which every traffic seed is drawn.
    run_seed: u64,
    /// Traffic seeds drawn so far.
    drawn: u64,
    /// Every set-up of the run, s.
    pub setup_s: Vec<f64>,
    /// Ops run, set-up ops included.
    pub attempted: u64,
    /// Ops that failed a check.
    pub failed: u64,
}

impl Ops {
    /// Sets up the traffic seeds the timed ops cycle through.
    pub fn new(w: &'static Workload, seed: u64) -> Self {
        let mut ops = Ops {
            w,
            traffic: Vec::new(),
            run_seed: seed,
            drawn: 0,
            setup_s: Vec::new(),
            attempted: 0,
            failed: 0,
        };
        for _ in 0..SEEDS_PER_RUN {
            let t = ops.set_up();
            ops.traffic.push(t);
        }
        ops
    }

    /// Sets up the run's next traffic seed and records how long it took.
    fn set_up(&mut self) -> Traffic {
        let w = self.w;
        let seed = traffic_seed(self.run_seed, self.drawn);
        self.drawn += 1;
        let stubs = w.spec(seed).stream().take_while(|s| s.t_ns < w.run_ns).count() as u64;
        let expect = Expect {
            stages: w.stages,
            stubs,
            mean_arrivals: w.mean_arrivals(),
            pinned: w.pinned(seed).map(str::to_owned),
            reference: None,
        };
        let mut t = Traffic { seed, expect, first: None };
        let clock = WallClock::start();
        let m = op(w, seed);
        self.setup_s.push(clock.elapsed_ms() / 1e3);
        let verdict = t.check(black_box(m));
        self.count(seed, verdict);
        t
    }

    fn count(&mut self, seed: u64, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            if self.failed == 0 {
                eprintln!("{} seed {seed}: op {} failed: {why}", self.w.name, self.attempted);
            }
            self.failed += 1;
        }
    }

    /// Checks and counts one op's measurement on traffic `k`.
    pub fn record(&mut self, k: usize, m: Measurement) {
        let verdict = self.traffic[k].check(m);
        self.count(self.traffic[k].seed, verdict);
    }

    /// One timed op on traffic `k`; returns its host milliseconds.
    pub fn timed_op(&mut self, k: usize) -> f64 {
        let clock = WallClock::start();
        let m = op(self.w, self.traffic[k].seed);
        let ms = clock.elapsed_ms();
        self.record(k, black_box(m));
        ms
    }

    /// Runs cycles of timed ops for `seconds`, and at least `min_ops` per
    /// traffic seed. A cycle sets up a fresh traffic seed, then times one
    /// op on each of the run's traffic seeds. Returns each seed's op
    /// times, ms.
    pub fn timed_ops(&mut self, seconds: u64, min_ops: usize) -> Vec<Vec<f64>> {
        let clock = WallClock::start();
        let mut times = vec![Vec::new(); self.traffic.len()];
        while times.iter().any(|t| t.len() < min_ops) || clock.elapsed_ms() < seconds as f64 * 1e3 {
            self.set_up();
            for (k, t) in times.iter_mut().enumerate() {
                t.push(self.timed_op(k));
            }
        }
        times
    }
}

/// The process's resident-set high-water mark (VmHWM), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_seeds_start_with_the_run_seed_and_differ() {
        let seeds: Vec<u64> = (0..1000).map(|k| traffic_seed(71, k)).collect();
        assert_eq!(seeds[0], 71);
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        assert!((0..1000).all(|k| !seeds.contains(&traffic_seed(72, k))), "runs share no seed");
    }
}
