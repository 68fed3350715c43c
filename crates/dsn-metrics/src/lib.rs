//! # dsn-metrics — parallel graph analysis for interconnect topologies
//!
//! Exact all-pairs shortest-path analysis (diameter, average shortest path
//! length, eccentricities, hop histograms) by a bit-parallel BFS that
//! carries 64 sources per machine word, plus clustering /
//! small-world metrics. These regenerate the paper's Figures 7 and 8 and
//! back the Theorem 1–2 validation experiments.
//!
//! ```
//! use dsn_core::dsn::Dsn;
//! use dsn_metrics::apsp::path_stats;
//!
//! let dsn = Dsn::new(256, 7).unwrap();
//! let stats = path_stats(dsn.graph());
//! // Theorem 1b: diameter <= 2.5 p + r for x > p - log2 p
//! let bound = 2.5 * dsn.p() as f64 + dsn.r() as f64;
//! assert!(stats.diameter as f64 <= bound);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod apsp;
pub mod bfs;
pub mod bisection;
pub mod clustering;
pub mod connectivity;
pub mod report;

pub use apsp::{aspl, diameter, path_stats, path_stats_with, PathStats};
pub use bfs::{bfs_distances, bfs_path, distance, UNREACHABLE};
pub use bisection::{cut_size, estimate_bisection, Bisection};
pub use connectivity::{edge_connectivity, edge_disjoint_paths, path_diversity_histogram};
pub use report::{moore_aspl_bound, moore_bound, moore_efficiency, TopologyReport};
