//! Static channel-load analysis — the traffic-balance study of
//! Section VII.B ("our custom routing makes traffic significantly more
//! balanced than using up*/down* routing").
//!
//! Under all-to-all (uniform) traffic, each ordered pair contributes one
//! unit of flow along its route; the per-directed-channel totals expose the
//! imbalance a routing function induces. For deterministic routing the
//! route is unique; for up*/down* we split flow *equally across all minimal
//! legal next hops* (the idealized behavior of an adaptive router), which
//! is both deterministic and the most charitable reading of up*/down*.

use crate::deadlock::walk_channels;
use crate::dsn_routing::Rule;
use crate::updown::{UdPhase, UpDown};
use dsn_core::dsn::Dsn;
use dsn_core::graph::Graph;

/// Summary statistics of a per-channel load vector.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadStats {
    /// Number of directed channels considered (all of them, including
    /// idle ones).
    pub channels: usize,
    /// Total flow units routed (= sum of route lengths).
    pub total: f64,
    /// Mean channel load.
    pub mean: f64,
    /// Maximum channel load — the bottleneck that caps throughput.
    pub max: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Gini coefficient of the load distribution (0 = perfectly even).
    pub gini: f64,
}

impl LoadStats {
    /// Bottleneck ratio `max / mean`; lower is better balanced, and the
    /// saturation throughput of uniform traffic scales as `1 / max`.
    pub fn max_over_mean(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.max / self.mean
        }
    }

    /// Compute from a raw per-channel load vector.
    pub fn from_loads(loads: &[f64]) -> LoadStats {
        let n = loads.len();
        if n == 0 {
            return LoadStats {
                channels: 0,
                total: 0.0,
                mean: 0.0,
                max: 0.0,
                std: 0.0,
                gini: 0.0,
            };
        }
        let total: f64 = loads.iter().sum();
        let mean = total / n as f64;
        let max = loads.iter().copied().fold(0.0f64, f64::max);
        let var = loads.iter().map(|&l| (l - mean) * (l - mean)).sum::<f64>() / n as f64;
        let mut sorted = loads.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Gini = (2 * sum_i i*x_i) / (n * sum x) - (n + 1) / n  (1-indexed)
        let gini = if total > 0.0 {
            let weighted: f64 = sorted
                .iter()
                .enumerate()
                .map(|(i, &x)| (i as f64 + 1.0) * x)
                .sum();
            (2.0 * weighted) / (n as f64 * total) - (n as f64 + 1.0) / n as f64
        } else {
            0.0
        };
        LoadStats {
            channels: n,
            total,
            mean,
            max,
            std: var.sqrt(),
            gini,
        }
    }
}

/// Channel loads induced by the DSN custom routing under all-to-all
/// traffic (one unit per ordered pair; deterministic single path).
pub fn dsn_custom_loads(dsn: &Dsn) -> Vec<f64> {
    let g = dsn.graph();
    let n = dsn.n();
    let mut loads = vec![0.0f64; g.channel_count()];
    for s in 0..n {
        for t in (0..n).filter(|&t| t != s) {
            for (ch, _) in walk_channels(dsn, g, s, t, Rule::Basic, 1, |_, _| None) {
                loads[ch] += 1.0;
            }
        }
    }
    loads
}

/// Channel loads induced by up*/down* routing under all-to-all traffic,
/// with flow split equally over all minimal legal next hops (idealized
/// adaptive behavior). Exact fractional-flow computation per destination.
pub fn updown_loads(g: &Graph, ud: &UpDown) -> Vec<f64> {
    let n = g.node_count();
    let mut loads = vec![0.0f64; g.channel_count()];
    // Flow over states (node, phase); phase 0 = Up, 1 = Down.
    let mut flow = vec![0.0f64; 2 * n];
    for t in 0..n {
        flow.iter_mut().for_each(|f| *f = 0.0);
        // Each source injects 1 unit in the Up phase.
        for s in 0..n {
            if s != t {
                flow[2 * s] += 1.0;
            }
        }
        // Process states in decreasing legal distance so every incoming
        // contribution arrives before a state is expanded.
        let mut order: Vec<usize> = (0..2 * n)
            .filter(|&st| {
                let (v, ph) = (st / 2, st % 2);
                let phase = if ph == 0 { UdPhase::Up } else { UdPhase::Down };
                v != t && ud.distance_phased(v, phase, t) != u32::MAX
            })
            .collect();
        order.sort_by_key(|&st| {
            let (v, ph) = (st / 2, st % 2);
            let phase = if ph == 0 { UdPhase::Up } else { UdPhase::Down };
            std::cmp::Reverse(ud.distance_phased(v, phase, t))
        });
        for st in order {
            let (v, ph) = (st / 2, st % 2);
            let f = flow[st];
            if f == 0.0 {
                continue;
            }
            let phase = if ph == 0 { UdPhase::Up } else { UdPhase::Down };
            let hops = ud.next_hops(g, v, phase, t);
            let share = f / hops.len() as f64;
            for (e, next_phase) in hops {
                let ch = g.channel_id(e, v);
                loads[ch] += share;
                let u = g.edge(e).other(v);
                if u != t {
                    let next_ph = match next_phase {
                        UdPhase::Up => 0,
                        UdPhase::Down => 1,
                    };
                    flow[2 * u + next_ph] += share;
                }
            }
        }
    }
    loads
}

/// Convenience: balance comparison on one DSN instance. Returns
/// `(custom, updown)` load statistics.
pub fn balance_comparison(dsn: &Dsn) -> (LoadStats, LoadStats) {
    let g = dsn.graph();
    let custom = LoadStats::from_loads(&dsn_custom_loads(dsn));
    let ud = UpDown::new(g, 0);
    let updown = LoadStats::from_loads(&updown_loads(g, &ud));
    (custom, updown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsn_routing::route;
    use dsn_core::ring::Ring;

    #[test]
    fn load_stats_of_uniform_vector() {
        let s = LoadStats::from_loads(&[2.0, 2.0, 2.0, 2.0]);
        assert_eq!(s.max, 2.0);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.std, 0.0);
        assert!(s.gini.abs() < 1e-12);
        assert!((s.max_over_mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn load_stats_of_skewed_vector() {
        let s = LoadStats::from_loads(&[0.0, 0.0, 0.0, 4.0]);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.mean, 1.0);
        assert!(s.gini > 0.7, "gini {}", s.gini);
        assert_eq!(s.max_over_mean(), 4.0);
    }

    #[test]
    fn custom_loads_conserve_total() {
        // Total load = sum over pairs of route length.
        let dsn = Dsn::new(64, 5).unwrap();
        let loads = dsn_custom_loads(&dsn);
        let total: f64 = loads.iter().sum();
        let expected: f64 = {
            let mut sum = 0.0;
            for s in 0..64 {
                for t in 0..64 {
                    if s != t {
                        sum += route(&dsn, s, t).unwrap().hops() as f64;
                    }
                }
            }
            sum
        };
        assert!((total - expected).abs() < 1e-6);
    }

    #[test]
    fn updown_loads_conserve_total() {
        // Total fractional load = sum over pairs of legal distance
        // (all split paths have the same, minimal length).
        let g = Ring::new(12).unwrap().into_graph();
        let ud = UpDown::new(&g, 0);
        let loads = updown_loads(&g, &ud);
        let total: f64 = loads.iter().sum();
        let mut expected = 0.0f64;
        for s in 0..12 {
            for t in 0..12 {
                if s != t {
                    expected += ud.distance(s, t) as f64;
                }
            }
        }
        assert!(
            (total - expected).abs() < 1e-6,
            "total {total} vs expected {expected}"
        );
    }

    #[test]
    fn updown_root_is_hot() {
        // The classic up*/down* pathology: links near the root carry
        // disproportionate load.
        let dsn = Dsn::new(64, 5).unwrap();
        let g = dsn.graph();
        let ud = UpDown::new(g, 0);
        let loads = updown_loads(g, &ud);
        let stats = LoadStats::from_loads(&loads);
        assert!(
            stats.max_over_mean() > 2.0,
            "expected root hotspot, max/mean = {}",
            stats.max_over_mean()
        );
    }

    #[test]
    fn section7b_custom_routing_balances_better() {
        // The paper's claim: custom routing yields significantly more
        // balanced traffic than up*/down*.
        let dsn = Dsn::new(126, 6).unwrap();
        let (custom, updown) = balance_comparison(&dsn);
        assert!(
            custom.max_over_mean() < updown.max_over_mean(),
            "custom max/mean {} !< up*/down* {}",
            custom.max_over_mean(),
            updown.max_over_mean()
        );
        assert!(
            custom.gini < updown.gini,
            "custom gini {} !< up*/down* gini {}",
            custom.gini,
            updown.gini
        );
    }
}
