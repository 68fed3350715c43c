//! Shared parallelism configuration for the analysis and simulation crates.
//!
//! Every parallel kernel in this workspace (`dsn_route::routing_stats`,
//! `dsn_metrics::path_stats`, `dsn_sim::sweep`) accepts a [`Parallelism`]
//! and produces **bit-identical results regardless of the worker count**,
//! because each kernel reduces per-item integer partials in index order
//! (see `vendor/rayon` for the determinism contract). The config therefore
//! only chooses *how fast* an answer arrives, never *which* answer.
//!
//! The `dsn-bench` binaries parse `--serial` / `--threads N` into a
//! `Parallelism` (`dsn_bench::RunArgs`), install it as the global worker
//! count and pass it down; without either flag the config is automatic,
//! so `RAYON_NUM_THREADS` applies.

use std::fmt;

/// Worker-count policy for the parallel analysis kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Parallelism {
    /// Requested worker count; 0 = automatic (rayon's resolution order:
    /// global pool override, then `RAYON_NUM_THREADS`, then the number of
    /// available cores).
    threads: usize,
    /// Force the plain sequential code path (no worker threads at all).
    serial: bool,
}

impl Parallelism {
    /// Automatic: let the rayon pool decide the worker count.
    pub fn auto() -> Self {
        Parallelism {
            threads: 0,
            serial: false,
        }
    }

    /// Plain sequential execution — no worker threads, the exact serial
    /// loop the parallel kernels are tested against.
    pub fn serial() -> Self {
        Parallelism {
            threads: 0,
            serial: true,
        }
    }

    /// Exactly `n` workers (`0` means automatic, `1` is equivalent to
    /// [`Parallelism::serial`] in results and nearly so in mechanism).
    pub fn threads(n: usize) -> Self {
        Parallelism {
            threads: n,
            serial: false,
        }
    }

    /// True when kernels should take their sequential code path.
    pub fn is_serial(&self) -> bool {
        self.serial
    }

    /// The worker count this config resolves to right now.
    pub fn effective_threads(&self) -> usize {
        if self.serial {
            1
        } else if self.threads > 0 {
            self.threads
        } else {
            rayon::current_num_threads()
        }
    }

    /// Install this config as the global rayon worker count, so code that
    /// calls the parameterless kernels (`routing_stats`, `path_stats`,
    /// `load_sweep`, …) inherits it too.
    pub fn install(&self) {
        let n = if self.serial { 1 } else { self.threads };
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .expect("installing the global worker count cannot fail");
    }
}

impl fmt::Display for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.serial {
            write!(f, "serial")
        } else if self.threads > 0 {
            // Name the live pool too when it differs: the request only
            // takes effect once `install`ed.
            write!(f, "{} threads", self.threads)?;
            let live = rayon::current_num_threads();
            if live != self.threads {
                write!(f, " requested, {live} running")?;
            }
            Ok(())
        } else {
            write!(f, "auto ({} workers)", rayon::current_num_threads())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_accessors() {
        assert!(!Parallelism::auto().is_serial());
        assert!(Parallelism::serial().is_serial());
        assert!(!Parallelism::threads(4).is_serial());
        assert_eq!(Parallelism::serial().effective_threads(), 1);
        assert_eq!(Parallelism::threads(4).effective_threads(), 4);
        assert!(Parallelism::auto().effective_threads() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::auto());
    }

    #[test]
    fn display_names_the_mode() {
        assert_eq!(Parallelism::serial().to_string(), "serial");
        let live = rayon::current_num_threads();
        let want = if live == 2 {
            "2 threads".to_string()
        } else {
            format!("2 threads requested, {live} running")
        };
        assert_eq!(Parallelism::threads(2).to_string(), want);
        assert!(Parallelism::auto().to_string().starts_with("auto"));
    }
}
