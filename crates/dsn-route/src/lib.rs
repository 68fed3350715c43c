//! # dsn-route — routing algorithms and deadlock analysis for DSN
//!
//! Implements the paper's custom three-phase DSN routing (Figure 2), the
//! deadlock-free DSN-V / DSN-E variants of Theorem 3, topology-agnostic
//! up*/down* routing (the escape routing of the paper's simulator), and
//! dimension-order routing for the torus baseline — plus a channel
//! dependency graph (CDG) checker that machine-verifies every
//! deadlock-freedom claim by exhaustive route enumeration.
//!
//! ```
//! use dsn_core::dsn::Dsn;
//! use dsn_route::dsn_routing::route;
//!
//! let dsn = Dsn::new(256, 7).unwrap();
//! let trace = route(&dsn, 3, 200).unwrap();
//! // Fact 2: routing diameter <= 3p + r
//! assert!(trace.hops() <= 3 * dsn.p() as usize + dsn.r());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cdg;
pub mod cost;
pub mod deadlock;
pub mod dor;
pub mod dsn_routing;
pub mod ext_routing;
pub mod load;
pub mod updown;

pub use cdg::{Cdg, VirtualChannel};
pub use dsn_routing::{
    route, route_avoid_overshoot, routing_stats, RouteError, RoutePhase, RouteStep, RouteTrace,
    RoutingStats,
};
pub use updown::{UdPhase, UpDown};
