//! # dsn-core — topologies for Distributed Shortcut Networks
//!
//! Graph substrate and topology generators reproducing **"Distributed
//! Shortcut Networks: Layout-aware Low-degree Topologies Exploiting
//! Small-world Effect"** (ICPP 2013).
//!
//! The crate provides:
//!
//! * [`graph::Graph`] — a compact undirected multigraph with typed links,
//!   shared by every family and by the routing / layout / simulation crates;
//! * [`dsn::Dsn`] — the paper's contribution, the basic DSN-x-n topology,
//!   with level/height/shortcut metadata for the custom routing algorithm;
//! * [`dsn_ext`] — the Section V extensions (DSN-E, DSN-D-x, flexible DSN);
//! * baselines the paper evaluates against: [`torus::Torus`] (2-D/3-D),
//!   [`dln::Dln`] / [`dln::DlnRandom`] (the "RANDOM" DLN-2-2),
//!   [`kleinberg::Kleinberg`], [`random_regular::RandomRegular`], and the
//!   related-work classics in [`classic`];
//! * [`topology::TopologySpec`] — a uniform parametric handle used by the
//!   figure-regeneration harnesses.
//!
//! ## Quick example
//!
//! ```
//! use dsn_core::dsn::Dsn;
//!
//! let dsn = Dsn::new(1024, 9).expect("valid parameters");
//! assert_eq!(dsn.p(), 10);
//! // Fact 1: low constant degree
//! assert!(dsn.graph().max_degree() <= 5);
//! assert!(dsn.graph().avg_degree() <= 4.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod classic;
pub mod dln;
pub mod dsn;
pub mod dsn_ext;
pub mod error;
pub mod export;
pub mod fault;
pub mod graph;
pub mod kautz;
pub mod kleinberg;
pub mod parallel;
pub mod random_regular;
pub mod ring;
pub mod topology;
pub mod torus;
pub mod util;

pub use dsn::Dsn;
pub use error::{Result, TopologyError};
pub use fault::EdgeMask;
pub use graph::{Edge, EdgeId, Graph, LinkKind, NodeId};
pub use parallel::Parallelism;
pub use topology::{BuiltTopology, TopologySpec};
