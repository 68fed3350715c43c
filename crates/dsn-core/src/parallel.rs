//! Shared worker-count configuration for the analysis and simulation crates.
//!
//! Every parallel fan-out in this workspace (`dsn_route::routing_stats`,
//! `dsn_metrics::path_stats`, `dsn_sim::sweep`, …) produces
//! **bit-identical results regardless of the worker count**, because each
//! kernel reduces per-item partials in index order (see `vendor/rayon` for
//! the determinism contract). A [`Parallelism`] therefore only chooses
//! *how fast* an answer arrives, never *which* answer.
//!
//! A fan-out reads its worker count when it starts: the calling thread's
//! scope ([`Parallelism::run`]), then `RAYON_NUM_THREADS`, then the core
//! count. The threads a fan-out spawns run under its count, so nested
//! fan-outs follow their caller. The `dsn-bench` binaries parse `--serial`
//! / `--threads N` into a `Parallelism` (`dsn_bench::RunArgs`) and make it
//! the main thread's scope.

use std::fmt;

/// Worker count for the parallel fan-outs: 0 = automatic (inherit the
/// enclosing scope, else `RAYON_NUM_THREADS`, else the core count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Parallelism(usize);

impl Parallelism {
    /// Automatic: the enclosing scope's count, if any, else rayon's.
    pub fn auto() -> Self {
        Parallelism(0)
    }

    /// One worker: every fan-out runs inline on the calling thread.
    pub fn serial() -> Self {
        Parallelism(1)
    }

    /// Exactly `n` workers (`0` means automatic).
    pub fn threads(n: usize) -> Self {
        Parallelism(n)
    }

    /// Run `f` with every fan-out it starts on this thread using this
    /// worker count (an automatic config leaves the enclosing one).
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        rayon::with_num_threads(self.0, f)
    }

    /// Make this the calling thread's worker count from now on (a
    /// binary's `main` thread, once its flags are parsed).
    pub fn enter(&self) {
        if self.0 > 0 {
            rayon::set_num_threads(self.0);
        }
    }
}

impl fmt::Display for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            0 => write!(f, "auto ({} workers)", rayon::current_num_threads()),
            1 => write!(f, "serial"),
            n => write!(f, "{n} threads"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    /// Worker counts seen on the calling thread and inside every item of a
    /// fan-out.
    fn seen_counts(par: Parallelism) -> (usize, Vec<usize>) {
        par.run(|| {
            let inner = (0..64usize)
                .into_par_iter()
                .map(|_| rayon::current_num_threads())
                .collect();
            (rayon::current_num_threads(), inner)
        })
    }

    #[test]
    fn requested_count_is_obeyed_on_every_worker() {
        let (outer, inner) = seen_counts(Parallelism::threads(3));
        assert_eq!(outer, 3);
        assert!(inner.iter().all(|&n| n == 3), "{inner:?}");
        let (outer, inner) = seen_counts(Parallelism::serial());
        assert_eq!(outer, 1);
        assert!(inner.iter().all(|&n| n == 1), "{inner:?}");
        // The scope closes with `run`, and `auto` inherits an open one.
        let (outer, _) = Parallelism::threads(2).run(|| seen_counts(Parallelism::auto()));
        assert_eq!(outer, 2);
        let (joined, _) = Parallelism::threads(3)
            .run(|| rayon::join(rayon::current_num_threads, rayon::current_num_threads));
        assert_eq!(joined, 3);
    }

    #[test]
    fn spawned_drive_workers_run_under_the_callers_count() {
        let main = std::thread::current().id();
        let spawned_ran = AtomicBool::new(false);
        let counts: Vec<usize> = Parallelism::threads(3).run(|| {
            (0..48usize)
                .into_par_iter()
                .map(|_| {
                    if std::thread::current().id() == main {
                        // Hold the caller back until a spawned worker has
                        // taken an item, so one surely runs there.
                        let deadline = Instant::now() + Duration::from_secs(10);
                        while !spawned_ran.load(Ordering::SeqCst) && Instant::now() < deadline {
                            std::thread::yield_now();
                        }
                    } else {
                        spawned_ran.store(true, Ordering::SeqCst);
                    }
                    rayon::current_num_threads()
                })
                .collect()
        });
        assert!(spawned_ran.into_inner(), "no item ran on a spawned worker");
        assert!(counts.iter().all(|&n| n == 3), "{counts:?}");
    }

    #[test]
    fn concurrent_scopes_do_not_leak_between_threads() {
        let barrier = std::sync::Barrier::new(2);
        let seen = |n: usize| {
            Parallelism::threads(n).run(|| {
                barrier.wait();
                let now = rayon::current_num_threads();
                barrier.wait();
                now
            })
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| seen(2));
            let b = s.spawn(|| seen(4));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!((a, b), (2, 4));
    }

    #[test]
    fn serial_is_one_worker() {
        assert_eq!(Parallelism::serial(), Parallelism::threads(1));
        assert_eq!(Parallelism::default(), Parallelism::auto());
        assert_eq!(Parallelism::threads(0), Parallelism::auto());
    }

    #[test]
    fn display_names_the_mode() {
        assert_eq!(Parallelism::serial().to_string(), "serial");
        assert_eq!(Parallelism::threads(2).to_string(), "2 threads");
        let auto = Parallelism::threads(4).run(|| Parallelism::auto().to_string());
        assert_eq!(auto, "auto (4 workers)");
    }
}
