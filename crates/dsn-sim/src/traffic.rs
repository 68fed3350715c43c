//! Synthetic traffic patterns (Section VII.A of the paper, following Dally
//! & Towles): *uniform random*, *bit reversal* and *neighboring* (90% of
//! packets to 2-D-array neighbors, 10% uniform), plus *tornado*, the
//! adversarial pattern for rings and tori that the routing comparison
//! runs.

use rand::rngs::SmallRng;
use rand::Rng;

/// Share of neighboring-pattern packets sent to a 2-D-array neighbor
/// (the paper's 90%).
const NEIGHBORING_LOCAL: f64 = 0.9;

/// Destination-selection pattern over `hosts` endpoints.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficPattern {
    /// Uniform random over all other hosts.
    Uniform,
    /// `dest = bit_reverse(src)` over `ceil(log2 hosts)` bits; self-sends
    /// fall back to uniform.
    BitReversal,
    /// With probability 0.9, send to one of the four neighbors of the
    /// source in a 2-D array layout of all hosts; otherwise uniform.
    Neighboring,
    /// Tornado: `dest = (src + ceil(hosts/2) - 1) mod hosts` — the classic
    /// adversarial pattern for rings and tori (Dally & Towles).
    Tornado,
}

impl TrafficPattern {
    /// The paper's neighboring pattern (90% local).
    pub fn neighboring_paper() -> Self {
        TrafficPattern::Neighboring
    }

    /// Pick a destination host for a packet from `src`, never equal to
    /// `src`.
    ///
    /// # Panics
    /// Panics if `hosts < 2` or `src >= hosts`.
    pub fn pick(&self, src: usize, hosts: usize, rng: &mut SmallRng) -> usize {
        assert!(hosts >= 2, "need at least two hosts");
        assert!(src < hosts, "src out of range");
        let dest = match self {
            TrafficPattern::Uniform => uniform_other(src, hosts, rng),
            TrafficPattern::BitReversal => {
                let bits = usize::BITS - (hosts - 1).leading_zeros();
                let mut d = src.reverse_bits() >> (usize::BITS - bits);
                if d >= hosts || d == src {
                    d = uniform_other(src, hosts, rng);
                }
                d
            }
            TrafficPattern::Neighboring => {
                if rng.gen_bool(NEIGHBORING_LOCAL) {
                    array_neighbor(src, hosts, rng)
                } else {
                    uniform_other(src, hosts, rng)
                }
            }
            TrafficPattern::Tornado => {
                let d = (src + hosts.div_ceil(2) - 1) % hosts;
                if d == src {
                    uniform_other(src, hosts, rng)
                } else {
                    d
                }
            }
        };
        debug_assert_ne!(dest, src);
        debug_assert!(dest < hosts);
        dest
    }

    /// Short display name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            TrafficPattern::Uniform => "uniform",
            TrafficPattern::BitReversal => "bit-reversal",
            TrafficPattern::Neighboring => "neighboring",
            TrafficPattern::Tornado => "tornado",
        }
    }
}

fn uniform_other(src: usize, hosts: usize, rng: &mut SmallRng) -> usize {
    let d = rng.gen_range(0..hosts - 1);
    if d >= src {
        d + 1
    } else {
        d
    }
}

/// A random 2-D-array neighbor of `src` on the most-square grid of all
/// hosts (the paper's "neighboring nodes in 2-D array layout").
fn array_neighbor(src: usize, hosts: usize, rng: &mut SmallRng) -> usize {
    // most-square factorization
    let mut rows = (hosts as f64).sqrt() as usize;
    while rows > 1 && !hosts.is_multiple_of(rows) {
        rows -= 1;
    }
    if rows <= 1 {
        return uniform_other(src, hosts, rng);
    }
    let cols = hosts / rows;
    let (r, c) = (src / cols, src % cols);
    let mut candidates = [0usize; 4];
    let mut k = 0;
    if r > 0 {
        candidates[k] = (r - 1) * cols + c;
        k += 1;
    }
    if r + 1 < rows {
        candidates[k] = (r + 1) * cols + c;
        k += 1;
    }
    if c > 0 {
        candidates[k] = r * cols + (c - 1);
        k += 1;
    }
    if c + 1 < cols {
        candidates[k] = r * cols + (c + 1);
        k += 1;
    }
    if k == 0 {
        uniform_other(src, hosts, rng)
    } else {
        candidates[rng.gen_range(0..k)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(12345)
    }

    #[test]
    fn uniform_covers_and_avoids_self() {
        let mut r = rng();
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let d = TrafficPattern::Uniform.pick(3, 8, &mut r);
            assert_ne!(d, 3);
            seen[d] = true;
        }
        assert_eq!(seen.iter().filter(|&&s| s).count(), 7);
    }

    #[test]
    fn bit_reversal_exact() {
        let mut r = rng();
        // 256 hosts = 8 bits: src 0b00000001 -> 0b10000000 = 128.
        assert_eq!(TrafficPattern::BitReversal.pick(1, 256, &mut r), 128);
        assert_eq!(TrafficPattern::BitReversal.pick(128, 256, &mut r), 1);
        // palindromic src (0) falls back to uniform, never self
        let d = TrafficPattern::BitReversal.pick(0, 256, &mut r);
        assert_ne!(d, 0);
    }

    #[test]
    fn neighboring_is_mostly_local() {
        let mut r = rng();
        let pat = TrafficPattern::neighboring_paper();
        let hosts = 256; // 16x16 array
        let src = 17 * 16 / 16 * 16 + 5; // interior-ish
        let src = src.min(hosts - 1);
        let mut local = 0;
        let n = 2000;
        for _ in 0..n {
            let d = pat.pick(src, hosts, &mut r);
            let (r1, c1) = (src / 16, src % 16);
            let (r2, c2) = (d / 16, d % 16);
            if r1.abs_diff(r2) + c1.abs_diff(c2) == 1 {
                local += 1;
            }
        }
        let frac = local as f64 / n as f64;
        assert!(frac > 0.85, "local fraction {frac}");
    }

    #[test]
    fn tornado_is_half_rotation() {
        let mut r = rng();
        // hosts = 16: dest = src + 7 mod 16
        assert_eq!(TrafficPattern::Tornado.pick(0, 16, &mut r), 7);
        assert_eq!(TrafficPattern::Tornado.pick(10, 16, &mut r), 1);
    }

    #[test]
    fn names_stable() {
        assert_eq!(TrafficPattern::Uniform.name(), "uniform");
        assert_eq!(TrafficPattern::neighboring_paper().name(), "neighboring");
        assert_eq!(TrafficPattern::Tornado.name(), "tornado");
    }
}
