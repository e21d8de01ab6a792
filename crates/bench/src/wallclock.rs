//! The one sanctioned wall-clock in the workspace.
//!
//! Everything simulated is deterministic and must never read host time
//! (lint rule D2, `clippy.toml`). The single legitimate use is the
//! micro-benchmark timing its own harness — and that goes through this
//! helper, so D2 is enforced with exactly one `#[expect]` instead of a
//! file-wide exemption.

use std::time::Instant;

/// A started wall-clock measurement.
///
/// ```
/// let clock = apples_bench::wallclock::WallClock::start();
/// let _elapsed = clock.elapsed_ms();
/// ```
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// Starts a measurement.
    #[expect(
        clippy::disallowed_methods,
        reason = "the micro-benchmark's sanctioned wall-clock read; simulated time never flows through here"
    )]
    pub fn start() -> Self {
        WallClock { start: Instant::now() }
    }

    /// Milliseconds of wall time since [`WallClock::start`].
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotone_nonnegative() {
        let clock = WallClock::start();
        let a = clock.elapsed_ms();
        let b = clock.elapsed_ms();
        assert!(a >= 0.0);
        assert!(b >= a);
    }
}
