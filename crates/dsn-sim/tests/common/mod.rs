//! Shared test oracle: a [`SimRouting`] wrapper that hides the scheme's
//! compiled flat table, so the engine serves every hop through the
//! dynamic `candidates` / `on_hop` trait calls. Comparing a run of the
//! wrapped scheme with a run of the plain one pins the flat tables against
//! the dynamic path.

use dsn_core::fault::EdgeMask;
use dsn_core::graph::Graph;
use dsn_core::NodeId;
use dsn_sim::routing::{Candidate, RouteState};
use dsn_sim::{FlatRouting, SimRouting};
use std::sync::Arc;

/// Forwards every [`SimRouting`] method to the wrapped scheme except
/// `compiled_flat` (always `None`), `rebuild` (re-wraps the survivor
/// scheme, so a fault never switches the oracle onto flat tables) and
/// `scheme_key` (suffixed, so a shared `RoutingCache` never hands a
/// wrapped instance to a plain run or vice versa).
pub struct NoTables(Arc<dyn SimRouting>);

impl NoTables {
    /// Wrap `routing` as a trait object.
    pub fn wrap(routing: Arc<dyn SimRouting>) -> Arc<dyn SimRouting> {
        Arc::new(NoTables(routing))
    }
}

impl SimRouting for NoTables {
    fn name(&self) -> String {
        self.0.name()
    }

    fn init(&self, src: NodeId, dest: NodeId) -> RouteState {
        self.0.init(src, dest)
    }

    fn candidates(&self, cur: NodeId, dest: NodeId, state: &RouteState, out: &mut Vec<Candidate>) {
        self.0.candidates(cur, dest, state, out)
    }

    fn on_hop(&self, cur: NodeId, dest: NodeId, state: &mut RouteState, channel: usize, vc: u8) {
        self.0.on_hop(cur, dest, state, channel, vc)
    }

    fn rebuild(&self, graph: &Arc<Graph>, mask: &EdgeMask) -> Option<Arc<dyn SimRouting>> {
        self.0.rebuild(graph, mask).map(NoTables::wrap)
    }

    fn scheme_key(&self) -> String {
        format!("{}+no-tables", self.0.scheme_key())
    }

    fn compiled_flat(&self) -> Option<Arc<FlatRouting>> {
        None
    }

    fn algorithmic(&self) -> bool {
        self.0.algorithmic()
    }

    fn table_bytes(&self) -> usize {
        self.0.table_bytes()
    }

    fn vcs(&self) -> u8 {
        self.0.vcs()
    }

    fn escape_candidates(
        &self,
        cur: NodeId,
        dest: NodeId,
        state: &RouteState,
        out: &mut Vec<Candidate>,
    ) {
        self.0.escape_candidates(cur, dest, state, out)
    }
}
