//! Per-cycle-phase wall-time breakdown (`DSN_PHASE_TIMING=1`).
//!
//! When enabled, the step loop stamps an [`Instant`] between phases and
//! accumulate the deltas here; the report is printed to stderr when the
//! run finishes. Timing never touches simulation state, so an instrumented
//! run produces bit-identical [`crate::RunStats`] — it only answers "where
//! do the cycles go", which is what drives the saturated hot-path layout
//! decisions documented in DESIGN.md §8.

use std::time::{Duration, Instant};

/// Wall-time accumulators for the per-cycle phases. `wheel` covers the
/// faults and the delay-line drain (credit returns + link arrivals + route
/// expiries); `route` is routing + VC allocation;
/// `arbitrate` is switch allocation + flit sends; `eject` the ejection
/// scan; `inject` covers batch, retry and host injection.
#[derive(Debug, Default)]
pub(crate) struct PhaseTimers {
    pub wheel: Duration,
    pub inject: Duration,
    pub route: Duration,
    pub arbitrate: Duration,
    pub eject: Duration,
    /// Cycles actually stepped (idle-skipped cycles count once).
    pub cycles: u64,
}

impl PhaseTimers {
    /// Advance the running stamp and credit the elapsed slice to the phase
    /// selected by `pick`.
    #[inline]
    pub fn mark(&mut self, last: &mut Instant, pick: Phase) {
        let now = Instant::now();
        let d = now - *last;
        *last = now;
        match pick {
            Phase::Wheel => self.wheel += d,
            Phase::Inject => self.inject += d,
            Phase::Route => self.route += d,
            Phase::Arbitrate => self.arbitrate += d,
            Phase::Eject => self.eject += d,
        }
    }

    /// Multi-line stderr report, one row per phase plus the total.
    pub fn report(&self) -> String {
        let total = self.wheel + self.inject + self.route + self.arbitrate + self.eject;
        let pct = |d: Duration| {
            if total.is_zero() {
                0.0
            } else {
                100.0 * d.as_secs_f64() / total.as_secs_f64()
            }
        };
        let row = |name: &str, d: Duration| {
            format!(
                "  {name:<12} {:>10.3}s  {:>5.1}%\n",
                d.as_secs_f64(),
                pct(d)
            )
        };
        let mut out = format!(
            "[phase-timing] cycles={} ({:.0} cycles/s in-phase)\n",
            self.cycles,
            if total.is_zero() {
                0.0
            } else {
                self.cycles as f64 / total.as_secs_f64()
            }
        );
        out.push_str(&row("wheel-drain", self.wheel));
        out.push_str(&row("inject", self.inject));
        out.push_str(&row("route", self.route));
        out.push_str(&row("arbitrate", self.arbitrate));
        out.push_str(&row("eject", self.eject));
        out.push_str(&format!(
            "  {:<12} {:>10.3}s\n",
            "total",
            total.as_secs_f64()
        ));
        out
    }
}

/// Which accumulator a [`PhaseTimers::mark`] call credits.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Phase {
    Wheel,
    Inject,
    Route,
    Arbitrate,
    Eject,
}

/// Whether the `DSN_PHASE_TIMING` environment switch is on (any value but
/// `0`). It is read at each simulator's construction, so sims built deep
/// inside sweeps, and child processes, inherit it.
pub(crate) fn env_enabled() -> bool {
    std::env::var_os("DSN_PHASE_TIMING").is_some_and(|v| v != *"0")
}
