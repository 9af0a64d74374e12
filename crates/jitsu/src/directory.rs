//! The Jitsu directory service: DNS-triggered summoning.
//!
//! "A Jitsu VM is launched at boot time with access to the external network
//! and handles name resolution ... If a name resolution request is received
//! that maps onto a running unikernel, Jitsu just returns an appropriate IP
//! address or vchan endpoint. If the name requested does not correspond to a
//! running unikernel, Jitsu launches the desired unikernel while
//! simultaneously returning an appropriate endpoint" (§3.3). Resource
//! exhaustion is reported as `SERVFAIL` so clients fail over to another
//! board.

use crate::config::JitsuConfig;
use jitsu_sim::SimTime;
use netstack::dns::{DnsMessage, Rcode};
use netstack::ipv4::Ipv4Addr;
use std::collections::BTreeMap;

/// What the directory decided to do with a query, beyond answering it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirectoryAction {
    /// The name maps to an already-running unikernel; nothing to do.
    AlreadyRunning {
        /// The service name.
        name: String,
    },
    /// The name is known but not running: a launch has been requested.
    Launch {
        /// The service name to summon.
        name: String,
    },
    /// The name is not in our zone or not configured; no action.
    None,
    /// The host lacks resources; the client was told to go elsewhere.
    ResourceExhausted {
        /// The service name that could not be summoned.
        name: String,
    },
}

/// Which phase of its lifecycle a known-alive service is in, from the
/// directory's point of view.
///
/// The distinction matters under concurrency: a query for a *mid-launch*
/// name must coalesce onto the in-flight boot (answered as if the service
/// were already running) rather than trigger a second launch, and a
/// mid-launch service must never be reaped as "idle" — its launch clock is
/// not an idle clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServicePhase {
    /// A launch has been triggered but the unikernel is not yet serving.
    Launching,
    /// The unikernel is up and serving requests.
    Running,
}

#[derive(Debug, Clone, Copy)]
struct ServiceStatus {
    phase: ServicePhase,
    last_activity: SimTime,
}

/// The directory service state: configured services plus which are alive
/// (mid-launch or running).
#[derive(Debug)]
pub struct DirectoryService {
    config: JitsuConfig,
    /// Alive services: their lifecycle phase and when they last served a
    /// request (for the idle retirement policy).
    services: BTreeMap<String, ServiceStatus>,
    queries_handled: u64,
    launches_triggered: u64,
}

impl DirectoryService {
    /// Create the directory for a host configuration.
    pub fn new(config: JitsuConfig) -> DirectoryService {
        DirectoryService {
            config,
            services: BTreeMap::new(),
            queries_handled: 0,
            launches_triggered: 0,
        }
    }

    /// Record that a service's unikernel is now serving requests (called
    /// when the launch completes).
    pub fn mark_ready(&mut self, name: &str, now: SimTime) {
        self.services.insert(
            name.trim_matches('.').to_string(),
            ServiceStatus {
                phase: ServicePhase::Running,
                last_activity: now,
            },
        );
    }

    /// Record that a service has been retired (or that its launch failed).
    pub fn mark_stopped(&mut self, name: &str) {
        self.services.remove(name.trim_matches('.'));
    }

    /// Is the service alive — mid-launch or running? Either way a query for
    /// it is answered with its address and must not trigger another launch.
    pub fn is_running(&self, name: &str) -> bool {
        self.services.contains_key(name.trim_matches('.'))
    }

    /// The service's lifecycle phase, if it is alive.
    pub fn phase(&self, name: &str) -> Option<ServicePhase> {
        self.services.get(name.trim_matches('.')).map(|s| s.phase)
    }

    /// When a live service last saw a query: its launch trigger while it
    /// launches, then the later of its app-ready and its latest query. The
    /// daemon's idle reaper reads this clock.
    pub(crate) fn last_activity(&self, name: &str) -> Option<SimTime> {
        self.services
            .get(name.trim_matches('.'))
            .map(|s| s.last_activity)
    }

    /// Handle a DNS query, given whether the host currently has resources to
    /// summon another unikernel. Returns the response to send immediately
    /// and the action the caller (jitsud) should take.
    pub fn handle_query(
        &mut self,
        query: &DnsMessage,
        now: SimTime,
        resources_available: bool,
    ) -> (DnsMessage, DirectoryAction) {
        self.queries_handled += 1;
        let Some(name) = query
            .queried_name()
            .map(|s| s.trim_matches('.').to_string())
        else {
            return (
                DnsMessage::error(query, Rcode::ServFail),
                DirectoryAction::None,
            );
        };
        // The nameserver's own record.
        if name == self.config.nameserver_name() {
            return (
                DnsMessage::answer(query, Ipv4Addr::new(192, 168, 1, 1), self.config.dns_ttl),
                DirectoryAction::None,
            );
        }
        let Some(service) = self.config.service(&name).cloned() else {
            // Inside our zone but unknown → NXDOMAIN; outside → refuse with
            // SERVFAIL (we are not a recursive resolver in this model).
            let zone = &self.config.zone;
            let in_zone = name == *zone
                || name
                    .strip_suffix(zone.as_str())
                    .is_some_and(|head| head.ends_with('.'));
            let rcode = if in_zone {
                Rcode::NxDomain
            } else {
                Rcode::ServFail
            };
            return (DnsMessage::error(query, rcode), DirectoryAction::None);
        };
        if let Some(status) = self.services.get_mut(&service.name) {
            status.last_activity = now;
            return (
                DnsMessage::answer(query, service.ip, self.config.dns_ttl),
                DirectoryAction::AlreadyRunning { name: service.name },
            );
        }
        if !resources_available {
            return (
                DnsMessage::error(query, Rcode::ServFail),
                DirectoryAction::ResourceExhausted { name: service.name },
            );
        }
        // Launch while simultaneously answering with the (future) address.
        // The service is marked *launching*, not running: further queries
        // coalesce onto this boot (AlreadyRunning) instead of double-
        // launching, and the idle reaper leaves it alone until it is ready.
        self.launches_triggered += 1;
        self.services.insert(
            service.name.clone(),
            ServiceStatus {
                phase: ServicePhase::Launching,
                last_activity: now,
            },
        );
        (
            DnsMessage::answer(query, service.ip, self.config.dns_ttl),
            DirectoryAction::Launch { name: service.name },
        )
    }

    /// Counters: `(queries handled, launches triggered)`.
    pub fn counters(&self) -> (u64, u64) {
        (self.queries_handled, self.launches_triggered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceConfig;

    fn config() -> JitsuConfig {
        JitsuConfig::new("family.name")
            .with_service(ServiceConfig::http_site(
                "alice.family.name",
                Ipv4Addr::new(192, 168, 1, 20),
            ))
            .with_service(ServiceConfig::http_site(
                "bob.family.name",
                Ipv4Addr::new(192, 168, 1, 21),
            ))
    }

    #[test]
    fn unknown_name_in_zone_is_nxdomain_outside_is_servfail() {
        let mut dir = DirectoryService::new(config());
        let (resp, action) = dir.handle_query(
            &DnsMessage::query(1, "carol.family.name"),
            SimTime::ZERO,
            true,
        );
        assert_eq!(resp.rcode, Rcode::NxDomain);
        assert_eq!(action, DirectoryAction::None);
        let (resp, action) =
            dir.handle_query(&DnsMessage::query(2, "example.com"), SimTime::ZERO, true);
        assert_eq!(resp.rcode, Rcode::ServFail);
        assert_eq!(action, DirectoryAction::None);
        // The zone ends at a label boundary: the apex is ours, a name that
        // merely ends in the same letters is not.
        let (resp, _) = dir.handle_query(&DnsMessage::query(3, "family.name"), SimTime::ZERO, true);
        assert_eq!(resp.rcode, Rcode::NxDomain);
        let (resp, action) =
            dir.handle_query(&DnsMessage::query(4, "notfamily.name"), SimTime::ZERO, true);
        assert_eq!(resp.rcode, Rcode::ServFail);
        assert_eq!(action, DirectoryAction::None);
    }

    #[test]
    fn first_query_triggers_launch_and_answers_immediately() {
        let mut dir = DirectoryService::new(config());
        let (resp, action) = dir.handle_query(
            &DnsMessage::query(1, "alice.family.name"),
            SimTime::ZERO,
            true,
        );
        assert_eq!(resp.rcode, Rcode::NoError);
        assert_eq!(resp.answers[0].addr, Ipv4Addr::new(192, 168, 1, 20));
        assert_eq!(
            action,
            DirectoryAction::Launch {
                name: "alice.family.name".into()
            }
        );
        assert!(dir.is_running("alice.family.name"));
        assert_eq!(
            dir.phase("alice.family.name"),
            Some(ServicePhase::Launching)
        );
        assert_eq!(dir.counters(), (1, 1));
    }

    #[test]
    fn mid_launch_query_coalesces_instead_of_double_launching() {
        let mut dir = DirectoryService::new(config());
        let (_, first) = dir.handle_query(
            &DnsMessage::query(1, "alice.family.name"),
            SimTime::ZERO,
            true,
        );
        assert!(matches!(first, DirectoryAction::Launch { .. }));
        // The launch is still in flight (nobody called mark_ready). A second
        // query must be answered as already-running, not trigger launch #2.
        let (resp, action) = dir.handle_query(
            &DnsMessage::query(2, "alice.family.name"),
            SimTime::from_millis(40),
            true,
        );
        assert_eq!(resp.rcode, Rcode::NoError);
        assert_eq!(
            action,
            DirectoryAction::AlreadyRunning {
                name: "alice.family.name".into()
            }
        );
        assert_eq!(dir.counters(), (2, 1), "exactly one launch triggered");
        assert_eq!(
            dir.phase("alice.family.name"),
            Some(ServicePhase::Launching)
        );
        // Every query refreshes the idle clock; app-ready restarts it.
        let clock = |dir: &DirectoryService| dir.last_activity("alice.family.name");
        assert_eq!(clock(&dir), Some(SimTime::from_millis(40)));
        dir.mark_ready("alice.family.name", SimTime::from_millis(350));
        assert_eq!(dir.phase("alice.family.name"), Some(ServicePhase::Running));
        assert_eq!(clock(&dir), Some(SimTime::from_millis(350)));
        dir.mark_stopped("alice.family.name");
        assert_eq!(clock(&dir), None);
    }

    #[test]
    fn repeat_query_does_not_double_launch() {
        let mut dir = DirectoryService::new(config());
        dir.handle_query(
            &DnsMessage::query(1, "alice.family.name"),
            SimTime::ZERO,
            true,
        );
        let (resp, action) = dir.handle_query(
            &DnsMessage::query(2, "alice.family.name"),
            SimTime::from_millis(10),
            true,
        );
        assert_eq!(resp.rcode, Rcode::NoError);
        assert_eq!(
            action,
            DirectoryAction::AlreadyRunning {
                name: "alice.family.name".into()
            }
        );
        assert_eq!(dir.counters(), (2, 1), "only one launch");
    }

    #[test]
    fn resource_exhaustion_is_servfail() {
        let mut dir = DirectoryService::new(config());
        let (resp, action) = dir.handle_query(
            &DnsMessage::query(1, "bob.family.name"),
            SimTime::ZERO,
            false,
        );
        assert_eq!(resp.rcode, Rcode::ServFail);
        assert_eq!(
            action,
            DirectoryAction::ResourceExhausted {
                name: "bob.family.name".into()
            }
        );
        assert!(!dir.is_running("bob.family.name"));
    }

    #[test]
    fn nameserver_record_resolves() {
        let mut dir = DirectoryService::new(config());
        let (resp, action) =
            dir.handle_query(&DnsMessage::query(1, "ns.family.name"), SimTime::ZERO, true);
        assert_eq!(resp.rcode, Rcode::NoError);
        assert_eq!(action, DirectoryAction::None);
    }
}
