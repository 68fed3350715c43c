//! Shared routing-table cache for sweeps and fault runs.
//!
//! Building a routing scheme is the dominant per-point setup cost of a load
//! sweep: an up*/down* forest, one BFS per destination and the port-mask
//! table built from them would be recomputed per simulation even though
//! every point of a sweep shares one topology. A [`RoutingCache`] memoizes built schemes by
//! `(topology, scheme key, fault epoch)` so each table is built exactly
//! once per sweep and shared (via `Arc`) across the parallel probes.
//!
//! Keys:
//! - **topology** — the `Arc<Graph>` pointer address. The cache pins the
//!   `Arc` alive for its own lifetime, so the address cannot be reused by
//!   a different graph while cached entries exist.
//! - **scheme key** — [`crate::routing::SimRouting::scheme_key`], a string
//!   that must uniquely identify the built tables for a given graph (the
//!   built-in schemes embed their VC/lane parameters).
//! - **fault epoch** — [`EdgeMask::fingerprint`] of the survivor mask,
//!   `0` for the pristine topology. Fault rebuilds that reach the same
//!   survivor state (e.g. every probe of a degraded sweep replaying one
//!   fault schedule) reuse one rebuilt scheme instead of recomputing it
//!   per simulation.

use crate::routing::SimRouting;
use dsn_core::fault::EdgeMask;
use dsn_core::graph::Graph;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache key: `(graph address, scheme key, mask fingerprint)`.
type Key = (usize, String, u64);

struct Entry {
    routing: Arc<dyn SimRouting>,
    /// Pins the graph so its address (part of the key) stays unique.
    _graph: Arc<Graph>,
}

/// Memoizes built routing schemes across simulations. See the module docs.
///
/// Cheap to share: clone the `Arc<RoutingCache>` into every sweep worker.
/// Builds happen under the cache lock, so concurrent requests for the same
/// key build **exactly once** — the losers of the race block and receive
/// the winner's table.
#[derive(Default)]
pub struct RoutingCache {
    inner: Mutex<HashMap<Key, Entry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl RoutingCache {
    /// An empty cache.
    pub fn new() -> Self {
        RoutingCache::default()
    }

    /// Fetch the pristine-topology scheme for `(graph, key)`, building it
    /// with `build` on first request. `key` must uniquely identify what
    /// `build` produces for this graph ([`SimRouting::scheme_key`] of the
    /// built scheme is the conventional choice).
    pub fn get_or_build(
        &self,
        graph: &Arc<Graph>,
        key: &str,
        build: impl FnOnce() -> Arc<dyn SimRouting>,
    ) -> Arc<dyn SimRouting> {
        self.fetch(graph, key, 0, || Some(build()))
            .expect("pristine build cannot fail")
    }

    /// Fetch the post-fault rebuild of `base` for the survivor `mask`,
    /// delegating to [`SimRouting::rebuild`] on first request. Returns
    /// `None` (and caches nothing) when the scheme does not support
    /// online reroute.
    pub fn rebuild(
        &self,
        graph: &Arc<Graph>,
        base: &Arc<dyn SimRouting>,
        mask: &EdgeMask,
    ) -> Option<Arc<dyn SimRouting>> {
        self.fetch(graph, &base.scheme_key(), mask.fingerprint(), || {
            base.rebuild(graph, mask)
        })
    }

    fn fetch(
        &self,
        graph: &Arc<Graph>,
        key: &str,
        epoch: u64,
        build: impl FnOnce() -> Option<Arc<dyn SimRouting>>,
    ) -> Option<Arc<dyn SimRouting>> {
        let full_key = (Arc::as_ptr(graph) as usize, key.to_owned(), epoch);
        let mut map = self.inner.lock().expect("routing cache poisoned");
        if let Some(entry) = map.get(&full_key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(entry.routing.clone());
        }
        // Build under the lock: concurrent probes asking for the same
        // table must not build it twice (the build is the expensive part
        // the cache exists to dedupe).
        let routing = build()?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        map.insert(
            full_key,
            Entry {
                routing: routing.clone(),
                _graph: graph.clone(),
            },
        );
        Some(routing)
    }

    /// Requests served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that built a new table (including fault rebuilds).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for RoutingCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoutingCache")
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::AdaptiveEscape;
    use dsn_core::ring::Ring;
    use std::sync::atomic::AtomicUsize;

    fn ring_graph(n: usize) -> Arc<Graph> {
        Arc::new(Ring::new(n).unwrap().into_graph())
    }

    #[test]
    fn builds_once_per_key() {
        let g = ring_graph(8);
        let cache = RoutingCache::new();
        let builds = AtomicUsize::new(0);
        let make = || -> Arc<dyn SimRouting> {
            builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(AdaptiveEscape::new(g.clone(), 4))
        };
        let key = make().scheme_key(); // throwaway probe build for the key
        builds.store(0, Ordering::Relaxed);
        let a = cache.get_or_build(&g, &key, make);
        let b = cache.get_or_build(&g, &key, make);
        assert_eq!(builds.load(Ordering::Relaxed), 1, "second fetch is a hit");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn distinct_graphs_and_epochs_do_not_collide() {
        let g1 = ring_graph(8);
        let g2 = ring_graph(8);
        let cache = RoutingCache::new();
        let r1 = cache.get_or_build(&g1, "k", || Arc::new(AdaptiveEscape::new(g1.clone(), 4)));
        let r2 = cache.get_or_build(&g2, "k", || Arc::new(AdaptiveEscape::new(g2.clone(), 4)));
        assert!(!Arc::ptr_eq(&r1, &r2), "same key on another graph misses");

        // a degraded epoch rebuild is cached separately from pristine
        let mut mask = EdgeMask::fully_alive(&g1);
        mask.set_edge_admin(&g1, 0, false);
        let d1 = cache.rebuild(&g1, &r1, &mask).expect("rebuild supported");
        let d2 = cache.rebuild(&g1, &r1, &mask).expect("rebuild supported");
        assert!(Arc::ptr_eq(&d1, &d2), "same survivor state is a hit");
        assert!(!Arc::ptr_eq(&d1, &r1));
        assert_eq!(cache.misses(), 3);
    }
}
