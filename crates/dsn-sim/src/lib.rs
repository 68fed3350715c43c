//! # dsn-sim — cycle-driven flit-level interconnection network simulator
//!
//! Reimplements the evaluation vehicle of the DSN paper's Section VII: an
//! input-queued, virtual-cut-through, credit-flow-controlled network
//! simulator with 4 virtual channels, ~100 ns per-hop header latency, 20 ns
//! link delay, 33-flit packets on 96 Gbps links — plus the paper's traffic
//! patterns (uniform, bit reversal, neighboring) and routing schemes
//! (topology-agnostic adaptive with up*/down* escape, plus table-free DSN
//! custom routing for the custom-routing comparison).
//!
//! Beyond the paper's setup the simulator also provides: wormhole switching
//! ([`config::Switching`]), closed batch workloads for collective-exchange
//! makespans ([`workload::Workload`]), zero-cost-when-off telemetry
//! recording from the `dsn-telemetry` crate ([`TelemetryConfig`] /
//! [`engine::Simulator::run_with_telemetry`]; its per-packet latency
//! decomposition is the simulator's one per-packet record), a
//! whole-network stall watchdog that detects real routing deadlocks,
//! per-channel utilization accounting, a sectioned saturation search
//! ([`sweep::find_saturation_cached`]), and the paper's future-work
//! routing ([`routing::MinimalAdaptiveDsn`]).
//!
//! ```no_run
//! use std::sync::Arc;
//! use dsn_core::dsn::Dsn;
//! use dsn_sim::{config::SimConfig, engine::Simulator, routing::AdaptiveEscape,
//!               traffic::TrafficPattern};
//!
//! let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
//! let cfg = SimConfig::default();
//! let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
//! let sim = Simulator::new(g, cfg, routing, TrafficPattern::Uniform, 0.005, 42);
//! let stats = sim.run();
//! println!("avg latency {:.0} ns", stats.avg_latency_ns);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod config;
pub mod engine;
mod event;
pub mod fault;
pub mod flow;
mod inject;
mod masks;
pub mod routing;
pub mod stats;
pub mod sweep;
mod timing;
pub mod traffic;
pub mod workload;

pub use cache::RoutingCache;
pub use config::{SimConfig, Switching};
pub use dsn_telemetry::{Telemetry, TelemetryConfig, TelemetryReport};
pub use engine::{ReservedBytes, Simulator};
pub use fault::{FaultEvent, FaultKind, FaultPlan, RetryPolicy};
pub use flow::{FlowArrivals, FlowSizeDist, StagedSpec};
pub use inject::Injector;
pub use routing::{AdaptiveEscape, DsnAlgorithmic, MinimalAdaptiveDsn, SimRouting, UpDownRouting};
pub use stats::{FlowClassStats, RunStats};
pub use sweep::{find_saturation_cached, load_sweep_cached, paper_load_grid, SweepResult};
pub use traffic::TrafficPattern;
pub use workload::Workload;

#[cfg(test)]
#[path = "../tests/common/table_reference.rs"]
mod table_reference;
