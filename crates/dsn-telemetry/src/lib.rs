//! # dsn-telemetry — zero-cost-when-off observability for the DSN simulator
//!
//! A recorder the flit-level simulator drives through hooks placed in its
//! mutation helpers; the simulator's `RunStats` are bit-identical whether
//! telemetry is on or off. The subsystem collects:
//!
//! * **Windowed time series** — per-link flit counts, per-VC peak buffer
//!   depth, injection-queue peak depth, per-switch allocation conflicts,
//!   and ejected flits, in sparse fixed-width windows;
//! * **Latency histograms** — deterministic log-bucketed distributions
//!   (p50/p95/p99/max) per src→dst ring-distance class and per traffic
//!   phase ([`hist::LogHistogram`]);
//! * **Latency decomposition** — each delivered packet's latency split
//!   exactly into queueing / credit-stall / wire / ejection cycles by gap
//!   attribution ([`recorder`] module docs);
//! * **Exporters** — stable-schema JSON (`"dsn-telemetry/v2"`), long-format
//!   CSV time series, and a terminal link-utilization heatmap keyed by ring
//!   position ([`report::TelemetryReport`]).
//!
//! The crate is dependency-free and knows nothing about the simulator; the
//! simulator hands it a [`TelemetryTopo`] description at construction and
//! calls hooks. When disabled ([`Telemetry::Off`]) every hook is an inlined
//! variant check — zero measurable overhead (pinned by a Criterion row).
//!
//! The older per-packet [`trace::PacketTracer`] lives here too (folded in
//! from the simulator crate, which re-exports it at its root).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod hist;
pub mod recorder;
pub mod report;
pub mod trace;

pub use hist::{bucket_of, bucket_upper_bound, LogHistogram};
pub use recorder::{ChannelDesc, Recorder, Telemetry, TelemetryConfig, TelemetryTopo};
pub use report::{ClassReport, LinkReport, PhaseReport, Series, TelemetryReport, SCHEMA};
pub use trace::{PacketTracer, TraceEvent, TraceRecord};
