//! dsn-benchmark: end-to-end and per-layer measurements of the DSN
//! reproduction on four workloads. The binary (`src/main.rs`) is the
//! command line; this library holds the workloads, the measurement and
//! the result handling, so the smoke test can check them. See README.md.

pub mod exec;
pub mod frontend;
pub mod host;
pub mod json;
pub mod metrics;
mod pins;
pub mod workloads;
