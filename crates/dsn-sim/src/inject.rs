//! Open-loop injection sampling: independent per-host RNG streams with
//! geometric-skip (inverse-CDF) gap sampling.
//!
//! The Figure 10 workload is a Bernoulli process per host: inject with
//! probability *r* each cycle. Drawing one `gen_bool(r)` per host per cycle
//! costs O(hosts) RNG draws per cycle even when almost nothing is injected.
//! The gap between consecutive injections of one host is geometric,
//! `P(gap = k) = r (1 - r)^(k-1)` for `k >= 1`, so sampling the *gap*
//! directly by inverting the geometric CDF — `gap = 1 + floor(ln(1-u) /
//! ln(1-r))` — produces a statistically identical process at O(1) draws per
//! injection.
//!
//! Each host owns its own `SmallRng` stream (seeded by mixing the run seed
//! with the host index), so the traffic a host emits does not depend on how
//! other hosts are iterated, so any simulator that fires the hosts due in a
//! cycle in ascending order — the engine's calendar heap, or a plain scan
//! of every host — draws the same traffic. The test suite's spec simulator
//! relies on that to reproduce the engine's [`crate::RunStats`].

use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;

/// Sentinel for "this host never injects" (rate 0).
pub(crate) const NEVER: u64 = u64::MAX;

/// Per-host injection schedule for an open-loop workload.
#[derive(Debug, Clone)]
pub struct Injector {
    rate: f64,
    /// Next injection cycle per host; [`NEVER`] when the rate is zero.
    next: Vec<u64>,
    /// One RNG stream per host: destination picks and gap draws.
    rngs: Vec<SmallRng>,
}

impl Injector {
    /// Build for `hosts` endpoints injecting at `rate` packets per cycle
    /// per host (clamped to `[0, 1]`). The first injection cycle of each
    /// host is `gap - 1`, so cycle 0 fires with probability `rate`.
    pub fn new(seed: u64, hosts: usize, rate: f64) -> Self {
        let rate = if rate.is_finite() {
            rate.clamp(0.0, 1.0)
        } else {
            0.0
        };
        let mut next = Vec::with_capacity(hosts);
        let mut rngs = Vec::with_capacity(hosts);
        for h in 0..hosts {
            let mut rng = SmallRng::seed_from_u64(mix(seed, h as u64));
            next.push(match gap(&mut rng, rate) {
                Some(g) => g - 1,
                None => NEVER,
            });
            rngs.push(rng);
        }
        Injector { rate, next, rngs }
    }

    /// Offered load in packets per cycle per host (clamped to `[0, 1]`).
    #[inline]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The cycle of this host's next injection (`u64::MAX` = no more).
    #[inline]
    pub fn next_cycle(&self, host: usize) -> u64 {
        self.next[host]
    }

    /// The host's RNG stream (for destination picks at injection time).
    #[inline]
    pub fn rng_mut(&mut self, host: usize) -> &mut SmallRng {
        &mut self.rngs[host]
    }

    /// Record that `host` injected at `now` and draw its next gap.
    #[inline]
    pub fn advance(&mut self, host: usize, now: u64) {
        debug_assert_eq!(self.next[host], now);
        self.next[host] = match gap(&mut self.rngs[host], self.rate) {
            Some(g) => now.saturating_add(g),
            None => NEVER,
        };
    }
}

/// SplitMix64 finalizer over the run seed and host index, so per-host
/// streams are decorrelated even for adjacent seeds/hosts. Shared with
/// the flow layer (`crate::flow`), which salts the seed so its streams
/// never collide with the injector's.
pub(crate) fn mix(seed: u64, host: u64) -> u64 {
    let mut z = seed ^ host.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One geometric gap (`>= 1` cycles) at injection probability `rate`;
/// `None` when the rate is zero (never inject). Shared with the flow
/// layer's arrival processes (`crate::flow`).
pub(crate) fn gap(rng: &mut SmallRng, rate: f64) -> Option<u64> {
    if rate <= 0.0 {
        return None;
    }
    if rate >= 1.0 {
        return Some(1);
    }
    let u: f64 = rng.gen_f64(); // [0, 1)
                                // Inverse CDF of Geometric(rate) on {1, 2, ...}. `1 - u > 0`, and the
                                // float->int cast saturates, so extreme draws stay well-defined.
    Some(1 + ((1.0 - u).ln() / (1.0 - rate).ln()).floor() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_matches_bernoulli_rate() {
        // Mean of Geometric(p) is 1/p; long-run injection frequency must
        // track the Bernoulli rate.
        let mut rng = SmallRng::seed_from_u64(7);
        for &p in &[0.01f64, 0.1, 0.5] {
            let n = 20_000;
            let total: u64 = (0..n).map(|_| gap(&mut rng, p).unwrap()).sum();
            let mean = total as f64 / n as f64;
            let expect = 1.0 / p;
            assert!(
                (mean - expect).abs() / expect < 0.05,
                "p={p}: mean gap {mean} vs {expect}"
            );
        }
    }

    #[test]
    fn gap_bounds() {
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(gap(&mut rng, 0.0), None);
        assert_eq!(gap(&mut rng, 1.0), Some(1));
        assert_eq!(gap(&mut rng, 2.0), Some(1));
        for _ in 0..1000 {
            assert!(gap(&mut rng, 0.3).unwrap() >= 1);
        }
    }

    #[test]
    fn injector_deterministic_and_monotone() {
        let mut a = Injector::new(42, 8, 0.05);
        let mut b = Injector::new(42, 8, 0.05);
        for h in 0..8 {
            assert_eq!(a.next_cycle(h), b.next_cycle(h));
            let mut t = a.next_cycle(h);
            for _ in 0..50 {
                a.advance(h, t);
                b.advance(h, t);
                assert_eq!(a.next_cycle(h), b.next_cycle(h));
                assert!(a.next_cycle(h) > t, "gaps are at least one cycle");
                t = a.next_cycle(h);
            }
        }
    }

    #[test]
    fn zero_rate_never_fires() {
        let inj = Injector::new(9, 4, 0.0);
        for h in 0..4 {
            assert_eq!(inj.next_cycle(h), NEVER);
        }
    }

    #[test]
    fn host_streams_differ() {
        let inj = Injector::new(11, 64, 0.1);
        let first: Vec<u64> = (0..64).map(|h| inj.next_cycle(h)).collect();
        // Not all hosts fire on the same cycle (streams decorrelated).
        assert!(first.iter().any(|&t| t != first[0]));
    }

    #[test]
    fn cycle_zero_fires_at_rate() {
        // P(first injection at cycle 0) must equal the rate.
        let inj = Injector::new(1234, 20_000, 0.25);
        let zeros = (0..20_000).filter(|&h| inj.next_cycle(h) == 0).count();
        let frac = zeros as f64 / 20_000.0;
        assert!((frac - 0.25).abs() < 0.02, "cycle-0 fraction {frac}");
    }
}
