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
//!
//! The directory decides a query through the lifecycle core's query step
//! ([`Stage::step`] on [`Input::Query`]), the step
//! [`ConcurrentJitsud`](crate::concurrent::ConcurrentJitsud) takes too, and
//! keeps one [`Stage`] per configured service. It launches nothing itself:
//! its caller summons the unikernel and reports back through
//! [`DirectoryService::mark_ready`] and [`DirectoryService::mark_stopped`].

use crate::config::JitsuConfig;
use crate::lifecycle::{Input, LifecyclePhase, Stage, Verdict};
use jitsu_sim::SimTime;
use netstack::dns::{DnsMessage, Rcode};
use netstack::ipv4::Ipv4Addr;

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

/// The directory service state: the configured services and where each
/// stands.
#[derive(Debug)]
pub struct DirectoryService {
    config: JitsuConfig,
    /// Each service's stage, at its index in `config.services`.
    stages: Vec<Stage>,
}

impl DirectoryService {
    /// Create the directory for a host configuration.
    pub fn new(config: JitsuConfig) -> DirectoryService {
        DirectoryService {
            stages: vec![Stage::IDLE; config.services.len()],
            config,
        }
    }

    /// Set the stage of the service `name`, if it is configured.
    fn set(&mut self, name: &str, stage: Stage) {
        if let Some(ix) = self.config.service_index(name) {
            self.stages[usize::from(ix)] = stage;
        }
    }

    /// Record that a service's unikernel is now serving requests (called
    /// when the launch completes). The directory keeps no clock: `_now` is
    /// kept for callers that pass it.
    pub fn mark_ready(&mut self, name: &str, _now: SimTime) {
        self.set(name, Stage::new(LifecyclePhase::Running));
    }

    /// Record that a service has been retired (or that its launch failed).
    pub fn mark_stopped(&mut self, name: &str) {
        self.set(name, Stage::IDLE);
    }

    /// Handle a DNS query, given whether the host currently has resources to
    /// summon another unikernel. Returns the response to send immediately
    /// and the action the caller should take. A mid-launch service is
    /// answered as already running: the query coalesces onto its boot. The
    /// directory keeps no clock: `_now` is kept for callers that pass it.
    pub fn handle_query(
        &mut self,
        query: &DnsMessage,
        _now: SimTime,
        resources_available: bool,
    ) -> (DnsMessage, DirectoryAction) {
        let Some(name) = query.queried_name() else {
            return (
                DnsMessage::error(query, Rcode::ServFail),
                DirectoryAction::None,
            );
        };
        // The nameserver's own record.
        if self.config.is_nameserver(name) {
            return (
                DnsMessage::answer(query, Ipv4Addr::new(192, 168, 1, 1), self.config.dns_ttl),
                DirectoryAction::None,
            );
        }
        let Some(ix) = self.config.service_index(name) else {
            // Inside our zone but unknown → NXDOMAIN; outside → refuse with
            // SERVFAIL (we are not a recursive resolver in this model).
            let name = name.trim_matches('.');
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
        let service = &self.config.services[usize::from(ix)];
        let name = service.name.clone();
        // The directory writes nothing to the store, so every name is one
        // it can launch.
        let query_input = Input::Query {
            fits: resources_available,
            named: true,
        };
        let (stage, verdict) =
            self.stages[usize::from(ix)].step(query_input, self.config.use_synjitsu);
        self.stages[usize::from(ix)] = stage;
        match verdict {
            Verdict::ServFail => (
                DnsMessage::error(query, Rcode::ServFail),
                DirectoryAction::ResourceExhausted { name },
            ),
            Verdict::Admit => (
                DnsMessage::answer(query, service.ip, self.config.dns_ttl),
                DirectoryAction::Launch { name },
            ),
            _ => (
                DnsMessage::answer(query, service.ip, self.config.dns_ttl),
                DirectoryAction::AlreadyRunning { name },
            ),
        }
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

    /// The action `dir` takes on a query for `name`, resources permitting.
    fn action_of(dir: &mut DirectoryService, name: &str) -> DirectoryAction {
        dir.handle_query(&DnsMessage::query(9, name), SimTime::ZERO, true)
            .1
    }

    fn launch(name: &str) -> DirectoryAction {
        DirectoryAction::Launch { name: name.into() }
    }

    fn running(name: &str) -> DirectoryAction {
        DirectoryAction::AlreadyRunning { name: name.into() }
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
        assert_eq!(action, launch("alice.family.name"));
        // Only alice is launching; bob's first query launches bob.
        assert_eq!(
            action_of(&mut dir, "bob.family.name"),
            launch("bob.family.name")
        );
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
        // query must be answered as already-running, not trigger launch #2,
        // even when the host has no room for another launch.
        let (resp, action) = dir.handle_query(
            &DnsMessage::query(2, "alice.family.name"),
            SimTime::from_millis(40),
            false,
        );
        assert_eq!(resp.rcode, Rcode::NoError);
        assert_eq!(action, running("alice.family.name"));
        dir.mark_ready("alice.family.name", SimTime::from_millis(350));
        assert_eq!(
            action_of(&mut dir, "alice.family.name"),
            running("alice.family.name")
        );
        // Stopped, the name launches again from scratch.
        dir.mark_stopped("alice.family.name");
        assert_eq!(
            action_of(&mut dir, "alice.family.name."),
            launch("alice.family.name")
        );
    }

    #[test]
    fn repeat_query_does_not_double_launch() {
        let mut dir = DirectoryService::new(config());
        dir.mark_ready("alice.family.name.", SimTime::ZERO);
        for id in 1..4 {
            let (resp, action) = dir.handle_query(
                &DnsMessage::query(id, "alice.family.name"),
                SimTime::from_millis(10),
                true,
            );
            assert_eq!(resp.rcode, Rcode::NoError);
            assert_eq!(action, running("alice.family.name"));
        }
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
        // Nothing was launched: with room, the next query launches bob.
        assert_eq!(
            action_of(&mut dir, "bob.family.name"),
            launch("bob.family.name")
        );
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
