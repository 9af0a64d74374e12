//! The `/conduit/flows` metadata table.
//!
//! Figure 5 shows a `flows` subtree holding one entry per conduit connection
//! with its lifecycle state and free-form metadata, readable by management
//! tools. Flow entries are written by the server side as connections are
//! accepted and updated as they progress.

use xenstore::{DomId, Path, Result as XsResult, XenStore};

/// Lifecycle states of a flow, as stored in the flows table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowState {
    /// The client has enqueued a connection request.
    Connecting,
    /// The shared-memory endpoints are established.
    Established,
    /// The flow has been torn down.
    Closed,
}

impl FlowState {
    /// Token used in the store value.
    pub fn token(self) -> &'static str {
        match self {
            FlowState::Connecting => "connecting",
            FlowState::Established => "established",
            FlowState::Closed => "closed",
        }
    }

    /// Parse a token.
    pub fn from_token(s: &str) -> Option<FlowState> {
        Some(match s {
            "connecting" => FlowState::Connecting,
            "established" => FlowState::Established,
            "closed" => FlowState::Closed,
            _ => return None,
        })
    }
}

/// Manager of the `/conduit/flows` subtree.
#[derive(Debug, Default)]
pub struct FlowTable {
    next_id: u64,
}

impl FlowTable {
    /// The root path of the table.
    pub const ROOT: &'static str = "/conduit/flows";

    /// Create a manager (ids restart at 1 per host lifetime, as in the
    /// paper's example tree).
    pub fn new() -> FlowTable {
        FlowTable { next_id: 1 }
    }

    fn path(id: u64) -> XsResult<Path> {
        Path::root().join(format_args!("{}/{id}", Self::ROOT))
    }

    /// Allocate a flow id and record it in the given state with free-form
    /// metadata (an s-expression string in the paper's example).
    pub fn create(
        &mut self,
        xs: &mut XenStore,
        actor: DomId,
        state: FlowState,
        metadata: &str,
    ) -> XsResult<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let value = format!("({} ({metadata}))", state.token());
        xs.write(actor, None, Self::path(id)?, value.as_bytes())?;
        Ok(id)
    }

    /// Update the state of a flow, preserving its metadata.
    pub fn set_state(xs: &mut XenStore, actor: DomId, id: u64, state: FlowState) -> XsResult<()> {
        let path = Self::path(id)?;
        let current = xs.read_string(actor, None, &path)?;
        // `(state metadata)`: the metadata is what follows the state, less
        // the one parenthesis that closes the record.
        let metadata = current
            .split_once(' ')
            .map_or("", |(_, rest)| rest.strip_suffix(')').unwrap_or(rest));
        let value = format!("({} {metadata})", state.token());
        xs.write(actor, None, path, value.as_bytes())
    }

    /// Read the state of a flow.
    pub fn state(xs: &mut XenStore, actor: DomId, id: u64) -> XsResult<Option<FlowState>> {
        Self::state_at(xs, actor, &Self::path(id)?)
    }

    /// Read the state of the flow whose entry is `path`. The value is only
    /// looked at, not copied.
    fn state_at(xs: &mut XenStore, actor: DomId, path: &Path) -> XsResult<Option<FlowState>> {
        xs.read_with(actor, None, path, |value| {
            let value = String::from_utf8_lossy(value);
            let token = value.trim_start_matches('(').split_whitespace().next();
            FlowState::from_token(token.unwrap_or_default())
        })
    }

    /// List all flow ids currently recorded.
    pub fn list(xs: &mut XenStore, actor: DomId) -> Vec<u64> {
        xs.directory(actor, None, Self::ROOT)
            .unwrap_or_default()
            .into_iter()
            .filter_map(|s| s.parse().ok())
            .collect()
    }

    /// Remove a flow entry.
    pub fn remove(xs: &mut XenStore, actor: DomId, id: u64) -> XsResult<()> {
        xs.rm(actor, None, Self::path(id)?)
    }

    /// Remove every flow entry already in [`FlowState::Closed`], returning
    /// how many were pruned. Short-lived flows (one per Synjitsu handoff
    /// rendezvous) would otherwise accumulate in the store for the lifetime
    /// of the host; management tools only care about live flows.
    pub fn prune_closed(xs: &mut XenStore, actor: DomId) -> usize {
        let mut pruned = 0;
        for id in Self::list(xs, actor) {
            let Ok(path) = Self::path(id) else {
                continue;
            };
            if let Ok(Some(FlowState::Closed)) = Self::state_at(xs, actor, &path) {
                if xs.rm(actor, None, path).is_ok() {
                    pruned += 1;
                }
            }
        }
        pruned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xenstore::EngineKind;

    #[test]
    fn tokens_round_trip() {
        for s in [
            FlowState::Connecting,
            FlowState::Established,
            FlowState::Closed,
        ] {
            assert_eq!(FlowState::from_token(s.token()), Some(s));
        }
        assert_eq!(FlowState::from_token("nope"), None);
    }

    #[test]
    fn create_update_list_remove() {
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        let mut flows = FlowTable::new();
        let id1 = flows
            .create(
                &mut xs,
                DomId::DOM0,
                FlowState::Connecting,
                "client http_client domid 7",
            )
            .unwrap();
        let id2 = flows
            .create(
                &mut xs,
                DomId::DOM0,
                FlowState::Established,
                "client http_client domid 9",
            )
            .unwrap();
        assert_eq!(id1, 1);
        assert_eq!(id2, 2);
        assert_eq!(FlowTable::list(&mut xs, DomId::DOM0), vec![1, 2]);
        assert_eq!(
            FlowTable::state(&mut xs, DomId::DOM0, id1).unwrap(),
            Some(FlowState::Connecting)
        );
        FlowTable::set_state(&mut xs, DomId::DOM0, id1, FlowState::Established).unwrap();
        assert_eq!(
            FlowTable::state(&mut xs, DomId::DOM0, id1).unwrap(),
            Some(FlowState::Established)
        );
        // Metadata survives state changes.
        let raw = xs
            .read_string(DomId::DOM0, None, "/conduit/flows/1")
            .unwrap();
        assert!(raw.contains("domid 7"), "raw={raw}");
        FlowTable::remove(&mut xs, DomId::DOM0, id1).unwrap();
        assert_eq!(FlowTable::list(&mut xs, DomId::DOM0), vec![2]);
    }

    #[test]
    fn a_state_change_keeps_the_record_balanced() {
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        let mut flows = FlowTable::new();
        let metadata = "client http_client domid 7";
        let id = flows
            .create(&mut xs, DomId::DOM0, FlowState::Connecting, metadata)
            .unwrap();
        let record = |xs: &mut XenStore| {
            xs.read_string(DomId::DOM0, None, "/conduit/flows/1")
                .unwrap()
        };
        assert_eq!(record(&mut xs), "(connecting (client http_client domid 7))");
        FlowTable::set_state(&mut xs, DomId::DOM0, id, FlowState::Established).unwrap();
        assert_eq!(
            record(&mut xs),
            "(established (client http_client domid 7))"
        );
        FlowTable::set_state(&mut xs, DomId::DOM0, id, FlowState::Closed).unwrap();
        assert_eq!(record(&mut xs), "(closed (client http_client domid 7))");
        assert_eq!(
            FlowTable::state(&mut xs, DomId::DOM0, id).unwrap(),
            Some(FlowState::Closed)
        );
    }

    #[test]
    fn prune_removes_only_closed_flows() {
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        let mut flows = FlowTable::new();
        let live = flows
            .create(&mut xs, DomId::DOM0, FlowState::Established, "live")
            .unwrap();
        for _ in 0..5 {
            let id = flows
                .create(&mut xs, DomId::DOM0, FlowState::Established, "short")
                .unwrap();
            FlowTable::set_state(&mut xs, DomId::DOM0, id, FlowState::Closed).unwrap();
        }
        assert_eq!(FlowTable::prune_closed(&mut xs, DomId::DOM0), 5);
        assert_eq!(FlowTable::list(&mut xs, DomId::DOM0), vec![live]);
        // Idempotent: nothing left to prune.
        assert_eq!(FlowTable::prune_closed(&mut xs, DomId::DOM0), 0);
    }

    #[test]
    fn missing_flow_is_an_error() {
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        assert!(FlowTable::state(&mut xs, DomId::DOM0, 42).is_err());
        assert!(FlowTable::remove(&mut xs, DomId::DOM0, 42).is_err());
    }
}
