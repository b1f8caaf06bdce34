//! The federation tier: one query fanned out across a fleet of
//! collector daemons, with per-daemon partial-failure reporting.
//!
//! A [`FleetClient`] holds one query connection per daemon endpoint
//! (Unix or TCP — typically TCP, since shards live on other hosts).
//! [`FleetClient::query_all`] sends each daemon the same serialized
//! `QUERY_ALL` spec, then folds the returned grouped tables together
//! through [`FirstSeen`] — the same first-seen keyed merge the analysis
//! pipeline's multi-session composition uses, so a fleet rollup is
//! byte-identical to running one daemon that held every session.
//!
//! **Failure model.** A dead or unreachable daemon never poisons the
//! rollup and never silently shrinks it: its shard is reported as a
//! named gap (a [`ShardReport`] carrying the endpoint and the typed
//! [`CollectorError`]), the merged tables cover exactly the responding
//! shards, and [`FleetResult::complete`] says whether the total can be
//! trusted as fleet-wide. Callers choose their own policy — render the
//! partial answer with a warning, or fail closed on `!complete()`.

use crate::client::CollectorClient;
use crate::protocol::{CollectorError, QuerySpec, QueryTarget};
use crate::transport::Endpoint;
use rlscope_core::analysis::{groups_canonical_json, FirstSeen, GroupKey};
use rlscope_core::overlap::BreakdownTable;
use std::fmt;

/// One daemon's contribution to a federated query: which sessions it
/// answered over, or the typed error that made it a gap.
#[derive(Debug)]
pub struct ShardReport {
    /// The daemon's endpoint, in canonical `unix://` / `tcp://` form.
    pub daemon: String,
    /// Session names this shard contributed (empty when it failed).
    pub sessions: Vec<String>,
    /// The typed failure, when the shard could not answer — the named
    /// gap in the rollup.
    pub error: Option<CollectorError>,
}

/// A merged federated query result (see [`FleetClient::query_all`]).
#[derive(Debug)]
pub struct FleetResult {
    /// Grouped tables merged across every responding shard, in
    /// first-seen group order (shards in endpoint order, each shard's
    /// groups in its daemon's canonical order).
    pub groups: Vec<(GroupKey, BreakdownTable)>,
    /// Events covered, summed across responding shards.
    pub events_observed: u64,
    /// Whether any responding shard answered over a live session.
    pub live: bool,
    /// Per-daemon outcome, in endpoint order — one entry per shard,
    /// answered or not.
    pub shards: Vec<ShardReport>,
}

impl FleetResult {
    /// `true` when every shard answered — the merged tables are the
    /// whole fleet, not a partial view.
    pub fn complete(&self) -> bool {
        self.shards.iter().all(|s| s.error.is_none())
    }

    /// The shards that failed: the named gaps in the rollup.
    pub fn gaps(&self) -> Vec<&ShardReport> {
        self.shards.iter().filter(|s| s.error.is_some()).collect()
    }

    /// Session names across every responding shard, in shard order.
    pub fn sessions(&self) -> Vec<&str> {
        self.shards.iter().flat_map(|s| s.sessions.iter().map(String::as_str)).collect()
    }

    /// Renders the merged tables as canonical JSON — grouped (one entry
    /// per [`GroupKey::label`]) or flattened into a single merged table,
    /// matching `Analysis::canonical_json` for the same dims.
    pub fn canonical_json(&self, grouped: bool) -> String {
        groups_canonical_json(&self.groups, grouped)
    }
}

struct Shard {
    endpoint: Endpoint,
    client: Option<CollectorClient>,
}

/// A client over N collector daemons. See the [module docs](self).
pub struct FleetClient {
    shards: Vec<Shard>,
}

impl fmt::Debug for FleetClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetClient")
            .field(
                "endpoints",
                &self.shards.iter().map(|s| s.endpoint.to_string()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl FleetClient {
    /// Connects one query connection per endpoint. Dial failures are
    /// not fatal here: an unreachable daemon is re-dialed at each query
    /// and reported as a named gap until it comes back.
    pub fn connect(endpoints: impl IntoIterator<Item = Endpoint>) -> FleetClient {
        let shards = endpoints
            .into_iter()
            .map(|endpoint| {
                let client = CollectorClient::connect_to(&endpoint).ok();
                Shard { endpoint, client }
            })
            .collect();
        FleetClient { shards }
    }

    /// The fleet's endpoints, in shard order.
    pub fn endpoints(&self) -> Vec<&Endpoint> {
        self.shards.iter().map(|s| &s.endpoint).collect()
    }

    /// Fans `spec` out to every daemon as a `QUERY_ALL` (the target is
    /// forced to all-sessions; filters, window, and dims pass through)
    /// and merges the grouped tables across shards. Never fails as a
    /// whole: each shard either contributes or becomes a named gap in
    /// the returned [`FleetResult`].
    pub fn query_all(&mut self, spec: &QuerySpec) -> FleetResult {
        let mut spec = spec.clone();
        spec.target = QueryTarget::AllSessions;
        let mut groups = FirstSeen::default();
        let mut shards = Vec::with_capacity(self.shards.len());
        let mut events_observed = 0u64;
        let mut live = false;
        for shard in &mut self.shards {
            match shard.query_all(&spec) {
                Ok(reply) => {
                    live |= reply.live;
                    events_observed += reply.events_observed;
                    groups.extend(reply.groups);
                    shards.push(ShardReport {
                        daemon: shard.endpoint.to_string(),
                        sessions: reply.sessions,
                        error: None,
                    });
                }
                Err(error) => {
                    // Drop the connection so the next query re-dials
                    // instead of reusing a dead stream.
                    shard.client = None;
                    shards.push(ShardReport {
                        daemon: shard.endpoint.to_string(),
                        sessions: Vec::new(),
                        error: Some(error),
                    });
                }
            }
        }
        FleetResult { groups: groups.into_vec(), events_observed, live, shards }
    }
}

impl Shard {
    fn query_all(
        &mut self,
        spec: &QuerySpec,
    ) -> Result<crate::protocol::QueryAllReply, CollectorError> {
        if self.client.is_none() {
            self.client = Some(CollectorClient::connect_to(&self.endpoint)?);
        }
        let Some(client) = self.client.as_mut() else {
            // Unreachable after the dial above, but a typed gap beats a
            // panic in the federation path.
            return Err(CollectorError::Protocol("shard client missing after dial".into()));
        };
        client.query_all(spec)
    }
}
