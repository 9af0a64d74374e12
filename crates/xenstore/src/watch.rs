//! XenStore watches.
//!
//! A *watch* registers interest in a subtree: whenever any node at or below
//! the watched path is created, modified or removed, the store queues a watch
//! event `(path, token)` for the registering domain. Watches drive most of
//! the asynchronous coordination in the toolstack — device backends watch
//! frontend state keys, Conduit servers watch their `listen` directory, and
//! Synjitsu watches the per-unikernel handoff area.
//!
//! Following the real protocol, registering a watch immediately queues one
//! synthetic event for the watched path so the watcher can pick up existing
//! state.

use crate::error::{Error, Result};
use crate::node::Node;
use crate::path::Path;
use crate::perms::DomId;
use crate::tree::for_each_path;
use std::collections::{BTreeMap, VecDeque};

/// A registered watch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Watch {
    /// The domain that registered the watch.
    pub dom: DomId,
    /// The watched path; events fire for this path and everything below it.
    pub path: Path,
    /// An opaque token echoed back in events.
    pub token: String,
}

/// A queued watch event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchEvent {
    /// The path that changed (or the watched path itself for the initial
    /// synthetic event).
    pub path: Path,
    /// The token supplied at registration.
    pub token: String,
}

/// Registration table and per-domain event queues.
#[derive(Debug, Default, Clone)]
pub struct WatchManager {
    watches: Vec<Watch>,
    queues: BTreeMap<DomId, VecDeque<WatchEvent>>,
}

impl WatchManager {
    /// Create an empty manager.
    pub fn new() -> WatchManager {
        WatchManager::default()
    }

    /// Register a watch. Duplicate `(dom, path, token)` registrations are
    /// rejected. Queues the initial synthetic event.
    pub fn watch(&mut self, dom: DomId, path: Path, token: impl Into<String>) -> Result<()> {
        let token = token.into();
        if self
            .watches
            .iter()
            .any(|w| w.dom == dom && w.path == path && w.token == token)
        {
            return Err(Error::DuplicateWatch);
        }
        self.watches.push(Watch {
            dom,
            path: path.clone(),
            token: token.clone(),
        });
        let event = WatchEvent { path, token };
        self.queues.entry(dom).or_default().push_back(event);
        Ok(())
    }

    /// Remove a watch registered with [`WatchManager::watch`].
    pub fn unwatch(&mut self, dom: DomId, path: &Path, token: &str) -> Result<()> {
        let before = self.watches.len();
        self.watches
            .retain(|w| !(w.dom == dom && &w.path == path && w.token == token));
        if self.watches.len() == before {
            Err(Error::WatchNotFound)
        } else {
            Ok(())
        }
    }

    /// Number of watches registered by a domain.
    pub fn count_for(&self, dom: DomId) -> usize {
        self.watches.iter().filter(|w| w.dom == dom).count()
    }

    /// All registered watches.
    pub fn watches(&self) -> &[Watch] {
        &self.watches
    }

    /// Notify the manager that `changed` was created/modified/removed.
    /// Queues an event for every watch whose path is a prefix of `changed`.
    /// Returns the number of events queued.
    pub fn fire(&mut self, changed: &Path) -> usize {
        queue_events(&self.watches, &mut self.queues, changed.text(), || {
            changed.clone()
        })
    }

    /// Notify the manager that the subtree `node`, whose root was at `root`,
    /// was removed: [`WatchManager::fire`] for each node of it, depth-first
    /// in name order. Returns the number of events queued. A subtree that no
    /// watch is on, above or below queues nothing and names no node.
    pub fn fire_removed(&mut self, root: &Path, node: &Node) -> usize {
        let concerned = |w: &Watch| w.path.is_prefix_of(root) || root.is_prefix_of(&w.path);
        if !self.watches.iter().any(concerned) {
            return 0;
        }
        let (watches, queues) = (&self.watches, &mut self.queues);
        let mut queued = 0;
        for_each_path(root, node, |text| {
            queued += queue_events(watches, queues, text, || {
                if text.len() == root.text().len() {
                    root.clone()
                } else {
                    Path::from_canonical(text)
                }
            });
        });
        queued
    }

    /// Drain all pending events for a domain, in delivery order.
    pub fn take_events(&mut self, dom: DomId) -> Vec<WatchEvent> {
        match self.queues.get_mut(&dom) {
            Some(queue) => queue.drain(..).collect(),
            None => Vec::new(),
        }
    }

    /// Number of events currently queued for a domain.
    pub fn pending(&self, dom: DomId) -> usize {
        self.queues.get(&dom).map_or(0, VecDeque::len)
    }

    /// Drop all watches and pending events registered by a domain (used when
    /// the domain is destroyed).
    pub fn remove_domain(&mut self, dom: DomId) {
        self.watches.retain(|w| w.dom != dom);
        self.queues.remove(&dom);
    }
}

/// Queue an event for every watch on the path whose canonical text is
/// `text` or above it, naming the path with the one `path` builds (once, and
/// only if a watch is there). Returns the number of events queued.
fn queue_events(
    watches: &[Watch],
    queues: &mut BTreeMap<DomId, VecDeque<WatchEvent>>,
    text: &str,
    path: impl FnOnce() -> Path,
) -> usize {
    let mut matching = watches
        .iter()
        .filter(|watch| watch.path.is_prefix_of_text(text))
        .peekable();
    if matching.peek().is_none() {
        return 0;
    }
    let changed = path();
    let mut queued = 0;
    // Registration order, so each domain's queue fills in the order its
    // watches were registered.
    for watch in matching {
        let event = WatchEvent {
            path: changed.clone(),
            token: watch.token.clone(),
        };
        queues.entry(watch.dom).or_default().push_back(event);
        queued += 1;
    }
    queued
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    #[test]
    fn registration_queues_initial_event() {
        let mut wm = WatchManager::new();
        wm.watch(DomId(3), p("/conduit/http_server/listen"), "tok")
            .unwrap();
        let evs = wm.take_events(DomId(3));
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].path, p("/conduit/http_server/listen"));
        assert_eq!(evs[0].token, "tok");
        assert_eq!(wm.pending(DomId(3)), 0);
    }

    #[test]
    fn duplicate_watch_rejected() {
        let mut wm = WatchManager::new();
        wm.watch(DomId(3), p("/a"), "t").unwrap();
        assert_eq!(wm.watch(DomId(3), p("/a"), "t"), Err(Error::DuplicateWatch));
        // Same path, different token is fine.
        assert!(wm.watch(DomId(3), p("/a"), "t2").is_ok());
        assert_eq!(wm.count_for(DomId(3)), 2);
    }

    #[test]
    fn fire_matches_subtree() {
        let mut wm = WatchManager::new();
        wm.watch(DomId(3), p("/conduit/http_server"), "srv")
            .unwrap();
        wm.watch(DomId(7), p("/conduit/http_client"), "cli")
            .unwrap();
        wm.take_events(DomId(3));
        wm.take_events(DomId(7));

        let n = wm.fire(&p("/conduit/http_server/listen/conn1"));
        assert_eq!(n, 1);
        let evs = wm.take_events(DomId(3));
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].path, p("/conduit/http_server/listen/conn1"));
        assert_eq!(evs[0].token, "srv");
        assert!(wm.take_events(DomId(7)).is_empty());

        // A change outside any watched subtree queues nothing.
        assert_eq!(wm.fire(&p("/local/domain/3")), 0);
    }

    #[test]
    fn watch_on_exact_path_fires() {
        let mut wm = WatchManager::new();
        wm.watch(DomId(1), p("/a/b"), "t").unwrap();
        wm.take_events(DomId(1));
        assert_eq!(wm.fire(&p("/a/b")), 1);
        assert_eq!(wm.fire(&p("/a")), 0, "ancestor changes do not fire");
    }

    #[test]
    fn multiple_watchers_each_get_event() {
        let mut wm = WatchManager::new();
        wm.watch(DomId(1), p("/a"), "t1").unwrap();
        wm.watch(DomId(2), p("/a"), "t2").unwrap();
        wm.take_events(DomId(1));
        wm.take_events(DomId(2));
        assert_eq!(wm.fire(&p("/a/x")), 2);
        assert_eq!(wm.take_events(DomId(1)).len(), 1);
        assert_eq!(wm.take_events(DomId(2)).len(), 1);
    }

    #[test]
    fn unwatch_removes_registration() {
        let mut wm = WatchManager::new();
        wm.watch(DomId(1), p("/a"), "t").unwrap();
        wm.take_events(DomId(1));
        wm.unwatch(DomId(1), &p("/a"), "t").unwrap();
        assert_eq!(wm.fire(&p("/a/x")), 0);
        assert_eq!(
            wm.unwatch(DomId(1), &p("/a"), "t"),
            Err(Error::WatchNotFound)
        );
        assert_eq!(wm.watches().len(), 0);
    }

    #[test]
    fn remove_domain_drops_watches_and_queue() {
        let mut wm = WatchManager::new();
        wm.watch(DomId(5), p("/a"), "t").unwrap();
        assert_eq!(wm.pending(DomId(5)), 1);
        wm.remove_domain(DomId(5));
        assert_eq!(wm.count_for(DomId(5)), 0);
        assert_eq!(wm.pending(DomId(5)), 0);
        assert_eq!(wm.fire(&p("/a/b")), 0);
    }

    #[test]
    fn events_are_fifo() {
        let mut wm = WatchManager::new();
        wm.watch(DomId(1), p("/a"), "t").unwrap();
        wm.take_events(DomId(1));
        wm.fire(&p("/a/1"));
        wm.fire(&p("/a/2"));
        wm.fire(&p("/a/3"));
        let evs = wm.take_events(DomId(1));
        let paths: Vec<String> = evs.iter().map(|e| e.path.to_string()).collect();
        assert_eq!(paths, vec!["/a/1", "/a/2", "/a/3"]);
    }
}
