//! The one decision of a service's lifecycle.
//!
//! jitsud (§3.3) decides once per DNS query and once per timer: launch the
//! unikernel while answering, coalesce onto a boot in flight, serve warm,
//! reap when idle, or answer `SERVFAIL` so the client fails over.
//! [`Stage::step`] is that decision and its only copy: pure, it touches no
//! store, no engine and no allocator. jitsud
//! ([`crate::concurrent`]) and the directory ([`crate::directory`]) act on
//! its [`Verdict`]s, and `tests/lifecycle_exhaustive.rs` feeds it every
//! input in every stage it can reach. An input a stage does not expect — a
//! late `ReapCheck`, a second `ConstructionDone` — gets [`Verdict::Ignore`]
//! and changes nothing.

/// A service's lifecycle phase, as callers see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecyclePhase {
    /// No domain exists.
    Idle,
    /// Waiting for a launch slot.
    AwaitingSlot,
    /// Domain construction / guest boot in flight.
    Launching,
    /// Serving.
    Running,
    /// Being torn down.
    Draining,
}

/// How far a launch has come, in the order its timers fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boot {
    /// dom0 builds the domain, holding a launch slot.
    Building,
    /// The guest boots towards network-ready.
    Booting,
    /// Synjitsu's connections are drained; the handoff commit is pending.
    Prepared,
    /// The unikernel owns the traffic; the application is not up yet.
    HandedOver,
}

/// Where one service stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stage {
    /// The phase callers see.
    pub phase: LifecyclePhase,
    /// While `Launching`, how far the boot has come; `Building` otherwise.
    pub boot: Boot,
}

/// A query for a service or one of its timers firing, with the facts the
/// caller observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// A DNS query.
    Query {
        /// The service's memory fits the board, net of reservations.
        fits: bool,
        /// The service's name is a store path component.
        named: bool,
    },
    /// The dispatcher granted a launch slot.
    SlotGranted,
    /// The toolstack could not build the domain.
    BuildFailed,
    /// dom0's construction work finished.
    ConstructionDone,
    /// The guest's network stack attached.
    NetworkReady,
    /// The handoff's flip to `Committed` landed.
    HandoffCommitted,
    /// The application came up.
    AppReady,
    /// An idle check fired.
    ReapCheck {
        /// Nothing asked for the service for a whole idle timeout.
        idle: bool,
    },
    /// The domain's teardown finished.
    DrainDone {
        /// Clients asked for the service while it drained.
        waiting: bool,
    },
}

/// What to do about an input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Reserve memory, park the client, queue for a slot.
    Admit,
    /// Answer `SERVFAIL`; the client fails over.
    ServFail,
    /// Record a launch that cannot start and answer `SERVFAIL`.
    CannotLaunch,
    /// Park the client on the boot in flight.
    Coalesce,
    /// Park the client until the drain ends and the service relaunches.
    AwaitRelaunch,
    /// Serve from the running unikernel; refresh its idle clock.
    ServeWarm,
    /// Build the domain on the reservation, holding the slot.
    Build,
    /// Give the slot back; answer every parked client `SERVFAIL`.
    LaunchFailed,
    /// Commit the boot registration; give the slot back.
    Built,
    /// Handoff phase 1: Synjitsu flushes, the unikernel drains.
    Prepare,
    /// Handoff phase 2: the unikernel adopts the drained connections.
    Adopt,
    /// Serve every parked client; start the idle clock.
    Serve,
    /// Begin tearing the idle domain down.
    StartDrain,
    /// Retire the domain.
    GoIdle,
    /// Retire the domain and admit the service again for its waiters.
    Relaunch,
    /// Nothing changes.
    Ignore,
}

impl Verdict {
    /// How the verdict changes the service's memory reservations, held from
    /// admission until the domain is built: +1, −1 or 0.
    pub fn reservation(self) -> i8 {
        match self {
            Verdict::Admit | Verdict::Relaunch => 1,
            Verdict::Build => -1,
            _ => 0,
        }
    }

    /// How the verdict changes the launch slots the service holds while
    /// dom0 builds its domain: +1, −1 or 0.
    pub fn slot(self) -> i8 {
        match self {
            Verdict::Build => 1,
            Verdict::Built | Verdict::LaunchFailed => -1,
            _ => 0,
        }
    }
}

impl Stage {
    /// A service that has never been summoned.
    pub const IDLE: Stage = Stage::new(LifecyclePhase::Idle);

    /// The first stage of `phase`.
    pub const fn new(phase: LifecyclePhase) -> Stage {
        Stage {
            phase,
            boot: Boot::Building,
        }
    }

    /// Decide `input`: the stage next and what to do. `proxied` says that
    /// Synjitsu holds a booting service's connections, which the unikernel
    /// then adopts before it serves.
    pub fn step(self, input: Input, proxied: bool) -> (Stage, Verdict) {
        use Boot::*;
        use Input::*;
        use LifecyclePhase::*;
        let to = Stage::new;
        let boot = |boot| Stage { boot, ..self };
        match (self.phase, self.boot, input) {
            (Idle, _, Query { named: false, .. }) => (self, Verdict::CannotLaunch),
            (Idle, _, Query { fits: false, .. }) => (self, Verdict::ServFail),
            (Idle, _, Query { .. }) => (to(AwaitingSlot), Verdict::Admit),
            (AwaitingSlot | Launching, _, Query { .. }) => (self, Verdict::Coalesce),
            (Running, _, Query { .. }) => (self, Verdict::ServeWarm),
            (Draining, _, Query { .. }) => (self, Verdict::AwaitRelaunch),
            (AwaitingSlot, _, SlotGranted) => (to(Launching), Verdict::Build),
            (Launching, Building, BuildFailed) => (to(Idle), Verdict::LaunchFailed),
            (Launching, Building, ConstructionDone) => (boot(Booting), Verdict::Built),
            (Launching, Booting, NetworkReady) if proxied => (boot(Prepared), Verdict::Prepare),
            (Launching, Prepared, HandoffCommitted) => (boot(HandedOver), Verdict::Adopt),
            (Launching, HandedOver, AppReady) => (to(Running), Verdict::Serve),
            (Launching, Booting, AppReady) if !proxied => (to(Running), Verdict::Serve),
            (Running, _, ReapCheck { idle: true }) => (to(Draining), Verdict::StartDrain),
            (Draining, _, DrainDone { waiting: true }) => (to(AwaitingSlot), Verdict::Relaunch),
            (Draining, _, DrainDone { waiting: false }) => (to(Idle), Verdict::GoIdle),
            _ => (self, Verdict::Ignore),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The inputs a launch's own timers deliver, in the order they fire.
    fn boot(proxied: bool) -> Vec<(Input, Verdict)> {
        let mut steps = vec![
            (
                Input::Query {
                    fits: true,
                    named: true,
                },
                Verdict::Admit,
            ),
            (Input::SlotGranted, Verdict::Build),
            (Input::ConstructionDone, Verdict::Built),
        ];
        if proxied {
            steps.push((Input::NetworkReady, Verdict::Prepare));
            steps.push((Input::HandoffCommitted, Verdict::Adopt));
        } else {
            steps.push((Input::NetworkReady, Verdict::Ignore));
        }
        steps.push((Input::AppReady, Verdict::Serve));
        steps
    }

    #[test]
    fn a_launch_runs_through_its_timers_in_order() {
        for proxied in [true, false] {
            let mut stage = Stage::IDLE;
            for (input, expected) in boot(proxied) {
                let (next, verdict) = stage.step(input, proxied);
                assert_eq!(verdict, expected, "{input:?} at {stage:?}");
                stage = next;
            }
            assert_eq!(stage, Stage::new(LifecyclePhase::Running));
        }
    }

    #[test]
    fn an_unexpected_input_changes_nothing() {
        let building = Stage::new(LifecyclePhase::Launching);
        let (booting, _) = building.step(Input::ConstructionDone, true);
        for (stage, input) in [
            (booting, Input::ConstructionDone),
            (booting, Input::AppReady),
            (Stage::IDLE, Input::ReapCheck { idle: true }),
            (Stage::IDLE, Input::DrainDone { waiting: false }),
            (Stage::new(LifecyclePhase::Running), Input::SlotGranted),
        ] {
            assert_eq!(stage.step(input, true), (stage, Verdict::Ignore));
        }
    }

    #[test]
    fn a_name_that_is_no_store_path_is_never_admitted() {
        for fits in [true, false] {
            let query = Input::Query { fits, named: false };
            assert_eq!(
                Stage::IDLE.step(query, true),
                (Stage::IDLE, Verdict::CannotLaunch)
            );
        }
    }
}
