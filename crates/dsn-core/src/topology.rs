//! A uniform handle over every topology family, used by the analysis,
//! layout, and benchmark crates to sweep "the same network size across
//! DSN / torus / RANDOM" the way the paper's figures do.

use crate::classic::{CubeConnectedCycles, DeBruijn, Hypercube};
use crate::dln::{Dln, DlnRandom};
use crate::dsn::Dsn;
use crate::dsn_ext::{DsnD, DsnE, FlexibleDsn};
use crate::error::{Result, TopologyError};
use crate::graph::Graph;
use crate::kleinberg::Kleinberg;
use crate::random_regular::RandomRegular;
use crate::ring::Ring;
use crate::torus::Torus;

/// A constructed topology instance: its display name plus physical graph.
#[derive(Debug, Clone)]
pub struct BuiltTopology {
    /// Human-readable name, e.g. `"DSN-9-1024"`.
    pub name: String,
    /// The physical graph.
    pub graph: Graph,
}

/// Parametric description of a topology, serializable to/parsable from a
/// short spec string for the CLI harnesses.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// DSN-x-n (basic).
    Dsn {
        /// Node count.
        n: usize,
        /// Shortcut-set size.
        x: u32,
    },
    /// DSN-E on n nodes.
    DsnE {
        /// Node count.
        n: usize,
    },
    /// DSN-D-x on n nodes.
    DsnD {
        /// Node count.
        n: usize,
        /// Skip links per super node.
        x: u32,
    },
    /// Flexible DSN: base majors + minors after major 0 spacing.
    FlexDsn {
        /// Number of major nodes (multiple of p).
        base_n: usize,
        /// Shortcut-set size.
        x: u32,
        /// Number of evenly spread minor nodes.
        minors: usize,
    },
    /// Plain ring of n nodes.
    Ring {
        /// Node count.
        n: usize,
    },
    /// Most-square 2-D torus on n nodes.
    Torus2D {
        /// Node count.
        n: usize,
    },
    /// Most-cubic 3-D torus on n nodes.
    Torus3D {
        /// Node count.
        n: usize,
    },
    /// DLN-x on n nodes.
    Dln {
        /// Node count.
        n: usize,
        /// Degree parameter.
        x: u32,
    },
    /// DLN-x-y (the paper's RANDOM baseline is DLN-2-2).
    DlnRandom {
        /// Node count.
        n: usize,
        /// Base degree parameter.
        x: u32,
        /// Random links per node.
        y: u32,
        /// RNG seed.
        seed: u64,
    },
    /// Random d-regular graph.
    RandomRegular {
        /// Node count.
        n: usize,
        /// Degree.
        d: u32,
        /// RNG seed.
        seed: u64,
    },
    /// Kleinberg side x side grid with q contacts, exponent alpha.
    Kleinberg {
        /// Grid side.
        side: usize,
        /// Long-range contacts per node.
        q: u32,
        /// RNG seed.
        seed: u64,
    },
    /// Hypercube of the given dimension.
    Hypercube {
        /// Dimension.
        dim: u32,
    },
    /// Cube-connected cycles of the given dimension.
    Ccc {
        /// Dimension.
        dim: u32,
    },
    /// de Bruijn B(base, dim).
    DeBruijn {
        /// Digit base.
        base: usize,
        /// Word length.
        dim: u32,
    },
}

impl TopologySpec {
    /// Build the topology this spec describes.
    pub fn build(&self) -> Result<BuiltTopology> {
        let (name, graph) = match *self {
            TopologySpec::Dsn { n, x } => (format!("DSN-{x}-{n}"), Dsn::new(n, x)?.into_graph()),
            TopologySpec::DsnE { n } => (format!("DSN-E-{n}"), DsnE::new(n)?.into_graph()),
            TopologySpec::DsnD { n, x } => {
                (format!("DSN-D-{x}-{n}"), DsnD::new(n, x)?.into_graph())
            }
            TopologySpec::FlexDsn { base_n, x, minors } => {
                let spread: Vec<usize> = (0..minors)
                    .map(|i| (i + 1) * base_n / (minors + 1))
                    .collect();
                (
                    format!("DSN-flex-{x}-{base_n}+{minors}"),
                    FlexibleDsn::new(base_n, x, &spread)?.into_graph(),
                )
            }
            TopologySpec::Ring { n } => (format!("Ring-{n}"), Ring::new(n)?.into_graph()),
            TopologySpec::Torus2D { n } => {
                let t = Torus::square_2d(n)?;
                (
                    format!("Torus-{}x{}", t.radices()[0], t.radices()[1]),
                    t.into_graph(),
                )
            }
            TopologySpec::Torus3D { n } => {
                let t = Torus::cube_3d(n)?;
                (
                    format!(
                        "Torus-{}x{}x{}",
                        t.radices()[0],
                        t.radices()[1],
                        t.radices()[2]
                    ),
                    t.into_graph(),
                )
            }
            TopologySpec::Dln { n, x } => (format!("DLN-{x}-{n}"), Dln::new(n, x)?.into_graph()),
            TopologySpec::DlnRandom { n, x, y, seed } => (
                format!("DLN-{x}-{y}-{n}"),
                DlnRandom::new(n, x, y, seed)?.into_graph(),
            ),
            TopologySpec::RandomRegular { n, d, seed } => (
                format!("Random-{d}-regular-{n}"),
                RandomRegular::new(n, d, seed)?.into_graph(),
            ),
            TopologySpec::Kleinberg { side, q, seed } => (
                format!("Kleinberg-{side}x{side}-q{q}"),
                Kleinberg::new(side, q, 2.0, seed)?.into_graph(),
            ),
            TopologySpec::Hypercube { dim } => (
                format!("Hypercube-{dim}"),
                Hypercube::new(dim)?.into_graph(),
            ),
            TopologySpec::Ccc { dim } => (
                format!("CCC-{dim}"),
                CubeConnectedCycles::new(dim)?.into_graph(),
            ),
            TopologySpec::DeBruijn { base, dim } => (
                format!("DeBruijn-{base}-{dim}"),
                DeBruijn::new(base, dim)?.into_graph(),
            ),
        };
        Ok(BuiltTopology { name, graph })
    }

    /// Parse a compact spec string, for CLI harnesses. Grammar (fields are
    /// `:`-separated, seeds default to 42):
    ///
    /// * `dsn:<n>[:<x>]` (x defaults to p-1) — basic DSN
    /// * `dsne:<n>`, `dsnd:<n>:<x>`, `flexdsn:<base>:<x>:<minors>`
    /// * `ring:<n>`, `torus2d:<n>`, `torus3d:<n>`
    /// * `dln:<n>:<x>`, `random:<n>[:<seed>]` (DLN-2-2),
    ///   `regular:<n>:<d>[:<seed>]`, `kleinberg:<side>:<q>[:<seed>]`
    /// * `hypercube:<dim>`, `ccc:<dim>`, `debruijn:<base>:<dim>`
    pub fn parse(spec: &str) -> Result<TopologySpec> {
        let parts: Vec<&str> = spec.split(':').collect();
        let usize_at = |i: usize| -> Result<usize> {
            parts.get(i).and_then(|s| s.parse().ok()).ok_or_else(|| {
                TopologyError::InvalidParameter {
                    name: "spec",
                    constraint: "numeric field".into(),
                    value: spec.into(),
                }
            })
        };
        let u32_at = |i: usize| -> Result<u32> { usize_at(i).map(|v| v as u32) };
        let u64_or = |i: usize, default: u64| -> u64 {
            parts.get(i).and_then(|s| s.parse().ok()).unwrap_or(default)
        };
        let family = parts
            .first()
            .copied()
            .unwrap_or_default()
            .to_ascii_lowercase();
        Ok(match family.as_str() {
            "dsn" => {
                let n = usize_at(1)?;
                let x = if parts.len() > 2 {
                    u32_at(2)?
                } else {
                    crate::util::ceil_log2(n.max(2)).saturating_sub(1).max(1)
                };
                TopologySpec::Dsn { n, x }
            }
            "dsne" => TopologySpec::DsnE { n: usize_at(1)? },
            "dsnd" => TopologySpec::DsnD { n: usize_at(1)?, x: u32_at(2)? },
            "flexdsn" => TopologySpec::FlexDsn {
                base_n: usize_at(1)?,
                x: u32_at(2)?,
                minors: usize_at(3)?,
            },
            "ring" => TopologySpec::Ring { n: usize_at(1)? },
            "torus2d" => TopologySpec::Torus2D { n: usize_at(1)? },
            "torus3d" => TopologySpec::Torus3D { n: usize_at(1)? },
            "dln" => TopologySpec::Dln { n: usize_at(1)?, x: u32_at(2)? },
            "random" => TopologySpec::DlnRandom {
                n: usize_at(1)?,
                x: 2,
                y: 2,
                seed: u64_or(2, 42),
            },
            "regular" => TopologySpec::RandomRegular {
                n: usize_at(1)?,
                d: u32_at(2)?,
                seed: u64_or(3, 42),
            },
            "kleinberg" => TopologySpec::Kleinberg {
                side: usize_at(1)?,
                q: u32_at(2)?,
                seed: u64_or(3, 42),
            },
            "hypercube" => TopologySpec::Hypercube { dim: u32_at(1)? },
            "ccc" => TopologySpec::Ccc { dim: u32_at(1)? },
            "debruijn" => TopologySpec::DeBruijn {
                base: usize_at(1)?,
                dim: u32_at(2)?,
            },
            _ => {
                return Err(TopologyError::InvalidParameter {
                    name: "spec",
                    constraint: "a known family (dsn, dsne, dsnd, flexdsn, ring, torus2d, torus3d, dln, random, regular, kleinberg, hypercube, ccc, debruijn)".into(),
                    value: spec.into(),
                })
            }
        })
    }

    /// The three degree-4 counterparts the paper's Figures 7–10 compare at a
    /// given size: basic DSN (x = p-1), most-square 2-D torus, and DLN-2-2
    /// ("RANDOM").
    pub fn paper_trio(n: usize, seed: u64) -> [TopologySpec; 3] {
        let p = crate::util::ceil_log2(n.max(2));
        [
            TopologySpec::Dsn { n, x: p - 1 },
            TopologySpec::Torus2D { n },
            TopologySpec::DlnRandom {
                n,
                x: 2,
                y: 2,
                seed,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spec_builds() {
        let specs = [
            TopologySpec::Dsn { n: 64, x: 5 },
            TopologySpec::DsnE { n: 64 },
            TopologySpec::DsnD { n: 64, x: 2 },
            TopologySpec::FlexDsn {
                base_n: 60,
                x: 5,
                minors: 4,
            },
            TopologySpec::Ring { n: 64 },
            TopologySpec::Torus2D { n: 64 },
            TopologySpec::Torus3D { n: 64 },
            TopologySpec::Dln { n: 64, x: 4 },
            TopologySpec::DlnRandom {
                n: 64,
                x: 2,
                y: 2,
                seed: 1,
            },
            TopologySpec::RandomRegular {
                n: 64,
                d: 4,
                seed: 1,
            },
            TopologySpec::Kleinberg {
                side: 8,
                q: 1,
                seed: 1,
            },
            TopologySpec::Hypercube { dim: 6 },
            TopologySpec::Ccc { dim: 4 },
            TopologySpec::DeBruijn { base: 2, dim: 6 },
        ];
        for spec in specs {
            let built = spec.build().unwrap_or_else(|e| panic!("{spec:?}: {e}"));
            assert!(built.graph.is_connected(), "{} disconnected", built.name);
            assert!(!built.name.is_empty());
        }
    }

    #[test]
    fn paper_trio_shapes() {
        let trio = TopologySpec::paper_trio(64, 42);
        let names: Vec<String> = trio.iter().map(|s| s.build().unwrap().name).collect();
        assert_eq!(names[0], "DSN-5-64");
        assert_eq!(names[1], "Torus-8x8");
        assert_eq!(names[2], "DLN-2-2-64");
    }

    #[test]
    fn parse_specs() {
        for (spec, expect_n) in [
            ("dsn:64:5", 64usize),
            ("dsn:64", 64),
            ("dsne:64", 64),
            ("dsnd:64:2", 64),
            ("ring:32", 32),
            ("torus2d:64", 64),
            ("torus3d:64", 64),
            ("dln:64:4", 64),
            ("random:64", 64),
            ("random:64:7", 64),
            ("regular:64:4", 64),
            ("kleinberg:8:1", 64),
            ("hypercube:6", 64),
            ("ccc:4", 64),
            ("debruijn:2:6", 64),
        ] {
            let t = TopologySpec::parse(spec)
                .unwrap_or_else(|e| panic!("{spec}: {e}"))
                .build()
                .unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(t.graph.node_count(), expect_n, "{spec}");
        }
    }

    #[test]
    fn parse_default_x_is_p_minus_1() {
        assert_eq!(
            TopologySpec::parse("dsn:1024").unwrap(),
            TopologySpec::Dsn { n: 1024, x: 9 }
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(TopologySpec::parse("frobnicate:12").is_err());
        assert!(TopologySpec::parse("dsn").is_err());
        assert!(TopologySpec::parse("dln:64").is_err());
        assert!(TopologySpec::parse("").is_err());
    }

    #[test]
    fn flex_spreads_minors() {
        let spec = TopologySpec::FlexDsn {
            base_n: 1020,
            x: 9,
            minors: 4,
        };
        let b = spec.build().unwrap();
        assert_eq!(b.graph.node_count(), 1024);
    }
}
