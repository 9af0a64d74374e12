//! Discrete-event simulation engine.
//!
//! [`Sim`] is the crate's one event executor. It owns a user-supplied
//! *world* (the mutable state of the simulated system), a virtual clock, an
//! event count and a priority queue of scheduled events. An event is a boxed
//! closure that receives the executor so it can mutate the world, advance no
//! time itself, and schedule further events. Events fire in timestamp order;
//! ties break in scheduling order so runs are fully deterministic.
//!
//! A standalone simulation is a `Sim<W>`. Every domain of a
//! [`ShardedSim`](crate::shard::ShardedSim) is a `Sim` too — a
//! [`DomainCtx`](crate::shard::DomainCtx), which carries its
//! [`Member`](crate::shard::Member) record beside its world — and runs its
//! epoch windows through the same pop-and-run loop.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// A pending event: its timestamp, its scheduling sequence number (the
/// tie-break) and the callback, which receives the executor `Ctx`.
struct Scheduled<Ctx> {
    at: SimTime,
    seq: u64,
    run: Box<dyn FnOnce(&mut Ctx)>,
}

impl<Ctx> PartialEq for Scheduled<Ctx> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<Ctx> Eq for Scheduled<Ctx> {}
impl<Ctx> PartialOrd for Scheduled<Ctx> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<Ctx> Ord for Scheduled<Ctx> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The scheduling surface of [`Sim`], standalone or as a domain of a
/// [`crate::shard::ShardedSim`].
///
/// System logic written against this trait (for example the
/// `jitsu::concurrent` lifecycle handlers) runs unchanged on a standalone
/// `Sim<W>` and on any domain of a sharded simulation: both are the same
/// executor, so events fire in `(time, scheduling order)` and scheduling in
/// the past clamps to "now" on either.
pub trait Scheduler: Sized {
    /// The world type mutated by events.
    type World;

    /// Current virtual time.
    fn now(&self) -> SimTime;

    /// Shared access to the world.
    fn world(&self) -> &Self::World;

    /// Mutable access to the world.
    fn world_mut(&mut self) -> &mut Self::World;

    /// Schedule `f` to run at absolute time `at`. Scheduling in the past is
    /// clamped to "now".
    fn schedule_at<F>(&mut self, at: SimTime, f: F)
    where
        F: FnOnce(&mut Self) + 'static;

    /// Schedule `f` to run `delay` after the current time.
    fn schedule_in<F>(&mut self, delay: SimDuration, f: F)
    where
        F: FnOnce(&mut Self) + 'static,
    {
        let at = self.now() + delay;
        self.schedule_at(at, f);
    }
}

/// The discrete-event executor.
///
/// `W` is the world type: all simulated state lives there and is reachable
/// from event callbacks through [`Sim::world_mut`]. `X` is what the executor
/// carries besides its world: `()` for a standalone simulation, a
/// [`Member`](crate::shard::Member) for a domain of a sharded one.
pub struct Sim<W, X = ()> {
    pub(crate) now: SimTime,
    executed: u64,
    seq: u64,
    heap: BinaryHeap<Scheduled<Sim<W, X>>>,
    pub(crate) world: W,
    /// Hard cap on executed events, to catch accidental livelock in tests.
    event_limit: u64,
    pub(crate) member: X,
}

impl<W, X> Sim<W, X> {
    /// An executor at time zero owning `world` and carrying `member`.
    pub(crate) fn with_member(world: W, member: X) -> Self {
        Sim {
            now: SimTime::ZERO,
            executed: 0,
            seq: 0,
            heap: BinaryHeap::new(),
            world,
            event_limit: u64::MAX,
            member,
        }
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// The timestamp of the next pending event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Whether an event is pending at or before `last`.
    pub(crate) fn due(&self, last: SimTime) -> bool {
        self.heap.peek().is_some_and(|e| e.at <= last)
    }

    /// Pop and run every event due at or before `last`, in `(time, seq)`
    /// order, stopping after `budget` events. Returns how many ran. This is
    /// the crate's one pop-and-run loop: the standalone drivers and every
    /// domain's epoch window go through it.
    pub(crate) fn drain_through(&mut self, last: SimTime, budget: u64) -> u64 {
        let mut ran = 0;
        while ran < budget {
            let Some(next) = self.heap.peek_mut() else {
                break;
            };
            if next.at > last {
                break;
            }
            let Scheduled { at, run, .. } = PeekMut::pop(next);
            debug_assert!(at >= self.now, "event queue went backwards");
            self.now = at;
            self.executed += 1;
            ran += 1;
            run(self);
        }
        ran
    }
}

impl<W> Sim<W> {
    /// Create a simulator at time zero owning `world`.
    pub fn new(world: W) -> Self {
        Sim::with_member(world, ())
    }

    /// Set a hard limit on the number of events executed.
    ///
    /// [`Sim::run`] treats exceeding the limit as livelock and panics (the
    /// tripwire tests rely on). The windowed drivers [`Sim::run_until`] and
    /// [`Sim::run_for`] instead stop *before* the event that would pass the
    /// limit, leaving the clock at the last executed event rather than
    /// advancing it to the deadline — the window was not fully simulated,
    /// and pretending time passed would corrupt any metric read afterwards.
    pub fn with_event_limit(mut self, limit: u64) -> Self {
        self.event_limit = limit;
        self
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events still pending.
    pub fn events_pending(&self) -> usize {
        self.heap.len()
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Schedule `f` to run at absolute time `at`. Scheduling in the past is
    /// clamped to "now" (the event runs before time advances further).
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F)
    where
        F: FnOnce(&mut Sim<W>) + 'static,
    {
        Scheduler::schedule_at(self, at, f);
    }

    /// Schedule `f` to run `delay` after the current time.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, f: F)
    where
        F: FnOnce(&mut Sim<W>) + 'static,
    {
        Scheduler::schedule_in(self, delay, f);
    }

    /// Run up to `max` events due at or before `last` under the event
    /// limit, returning how many ran.
    ///
    /// # Panics
    /// Panics when the limit, not `max`, stopped the run with an event
    /// still due: the experiment is livelocked.
    #[expect(
        clippy::panic,
        reason = "livelock tripwire: exceeding the event limit means the experiment is unsound and must abort"
    )]
    fn run_limited(&mut self, last: SimTime, max: u64) -> u64 {
        let budget = self.event_limit.saturating_sub(self.executed);
        let ran = self.drain_through(last, budget.min(max));
        if ran == budget && budget < max && self.due(last) {
            panic!(
                "simulation exceeded event limit of {} events (possible livelock)",
                self.event_limit
            );
        }
        ran
    }

    /// Execute a single event if one is pending. Returns `false` when the
    /// queue is empty.
    pub fn step(&mut self) -> bool {
        self.run_limited(SimTime::MAX, 1) == 1
    }

    /// Run until the event queue is empty.
    pub fn run(&mut self) {
        self.run_limited(SimTime::MAX, u64::MAX);
    }

    /// Run until the event queue is empty or virtual time would pass
    /// `deadline`.
    ///
    /// The deadline is **inclusive**: an event scheduled exactly at
    /// `deadline` executes before this call returns (ties at the deadline
    /// fire in scheduling order, like any other tie). Only events strictly
    /// after the deadline remain queued. Returns the number of events
    /// executed by this call.
    ///
    /// If an event limit is set ([`Sim::with_event_limit`]) and reached, the
    /// run stops mid-window: remaining in-window events stay queued and the
    /// clock stays at the last executed event instead of jumping to the
    /// deadline.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let budget = self.event_limit.saturating_sub(self.executed);
        let ran = self.drain_through(deadline, budget);
        // Advance the clock to the deadline even if nothing fired at it, so
        // callers can interleave run_until with manual inspection — unless
        // the limit stopped the run and the rest of the window never ran.
        if !self.due(deadline) {
            self.now = self.now.max(deadline);
        }
        ran
    }

    /// Run for `duration` of virtual time from the current clock, then stop
    /// (a convenience over [`Sim::run_until`] for fixed-length experiment
    /// windows such as a boot-storm measurement interval). Returns the
    /// number of events executed.
    pub fn run_for(&mut self, duration: SimDuration) -> u64 {
        let deadline = self.now + duration;
        self.run_until(deadline)
    }

    /// Execute up to `max_events` pending events regardless of their
    /// timestamps and return how many actually ran (fewer only when the
    /// queue drained first). This is the batch-run entry point the
    /// `bench_snapshot` harness uses to measure raw dispatch throughput
    /// (events/sec): the caller drives a fixed, exactly-known number of
    /// events without reasoning about virtual deadlines.
    pub fn run_steps(&mut self, max_events: u64) -> u64 {
        self.run_limited(SimTime::MAX, max_events)
    }
}

impl<W, X> Scheduler for Sim<W, X> {
    type World = W;

    fn now(&self) -> SimTime {
        self.now
    }

    fn world(&self) -> &W {
        &self.world
    }

    fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    fn schedule_at<F>(&mut self, at: SimTime, f: F)
    where
        F: FnOnce(&mut Self) + 'static,
    {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled {
            at: at.max(self.now),
            seq,
            run: Box::new(f),
        });
    }
}

impl<W: Default> Default for Sim<W> {
    fn default() -> Self {
        Sim::new(W::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{Domain, DomainCtx, ShardedSim};

    impl Domain for Vec<u64> {
        type Msg = ();
        fn on_message(_: &mut DomainCtx<Self>, (): ()) {}
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new(Vec::<u64>::new());
        sim.schedule_in(SimDuration::from_millis(30), |s| {
            let t = s.now().as_millis();
            s.world_mut().push(t)
        });
        sim.schedule_in(SimDuration::from_millis(10), |s| {
            let t = s.now().as_millis();
            s.world_mut().push(t)
        });
        sim.schedule_in(SimDuration::from_millis(20), |s| {
            let t = s.now().as_millis();
            s.world_mut().push(t)
        });
        sim.run();
        assert_eq!(sim.world(), &vec![10, 20, 30]);
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn ties_break_in_scheduling_order() {
        let mut sim = Sim::new(Vec::<u32>::new());
        for i in 0..10u32 {
            sim.schedule_at(SimTime::from_millis(5), move |s| s.world_mut().push(i));
        }
        sim.run();
        assert_eq!(sim.world(), &(0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Sim::new(0u64);
        sim.schedule_at(SimTime::ZERO, |s| {
            s.schedule_in(SimDuration::from_millis(1), |s| {
                *s.world_mut() += 1;
                s.schedule_in(SimDuration::from_millis(1), |s| *s.world_mut() += 1);
            });
        });
        sim.run();
        assert_eq!(*sim.world(), 2);
        assert_eq!(sim.now(), SimTime::from_millis(2));
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        let mut sim = Sim::new(Vec::<u64>::new());
        sim.schedule_in(SimDuration::from_millis(10), |s| {
            // Attempt to schedule before "now"; it must fire at now, not panic.
            s.schedule_at(SimTime::from_millis(1), |s| {
                let t = s.now().as_millis();
                s.world_mut().push(t);
            });
        });
        sim.run();
        assert_eq!(sim.world(), &vec![10]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Sim::new(Vec::<u64>::new());
        for ms in [5u64, 15, 25, 35] {
            sim.schedule_at(SimTime::from_millis(ms), move |s| s.world_mut().push(ms));
        }
        let n = sim.run_until(SimTime::from_millis(20));
        assert_eq!(n, 2);
        assert_eq!(sim.world(), &vec![5, 15]);
        assert_eq!(sim.now(), SimTime::from_millis(20));
        assert_eq!(sim.events_pending(), 2);
        sim.run();
        assert_eq!(sim.world(), &vec![5, 15, 25, 35]);
    }

    #[test]
    fn run_for_advances_a_fixed_window() {
        let mut sim = Sim::new(Vec::<u64>::new());
        for ms in [5u64, 15, 25] {
            sim.schedule_at(SimTime::from_millis(ms), move |s| s.world_mut().push(ms));
        }
        assert_eq!(sim.run_for(SimDuration::from_millis(10)), 1);
        assert_eq!(sim.now(), SimTime::from_millis(10));
        assert_eq!(sim.run_for(SimDuration::from_millis(10)), 1);
        assert_eq!(sim.now(), SimTime::from_millis(20));
        assert_eq!(sim.world(), &vec![5, 15]);
    }

    #[test]
    fn run_until_deadline_is_inclusive() {
        // Pin the tie semantics: events exactly at the deadline execute,
        // events one tick later do not.
        let mut sim = Sim::new(Vec::<u64>::new());
        for ns in [19_999_999u64, 20_000_000, 20_000_000, 20_000_001] {
            sim.schedule_at(SimTime::from_nanos(ns), move |s| s.world_mut().push(ns));
        }
        let n = sim.run_until(SimTime::from_millis(20));
        assert_eq!(n, 3, "both deadline-tied events must fire");
        assert_eq!(sim.world(), &vec![19_999_999, 20_000_000, 20_000_000]);
        assert_eq!(sim.now(), SimTime::from_millis(20));
        assert_eq!(sim.events_pending(), 1);
    }

    #[test]
    fn event_limit_stops_run_for_mid_window_without_advancing_the_clock() {
        // Regression: with an event limit in force, run_for must stop at the
        // limit and leave now() at the last executed event — not panic, and
        // not pretend the rest of the window was simulated.
        let mut sim = Sim::new(Vec::<u64>::new()).with_event_limit(2);
        for ms in [5u64, 15, 25, 35] {
            sim.schedule_at(SimTime::from_millis(ms), move |s| s.world_mut().push(ms));
        }
        let n = sim.run_for(SimDuration::from_millis(40));
        assert_eq!(n, 2);
        assert_eq!(sim.world(), &vec![5, 15]);
        assert_eq!(sim.now(), SimTime::from_millis(15), "clock stays put");
        assert_eq!(sim.events_pending(), 2);
        // A further windowed run makes no progress and moves no clock.
        assert_eq!(sim.run_for(SimDuration::from_millis(40)), 0);
        assert_eq!(sim.now(), SimTime::from_millis(15));
    }

    #[test]
    fn run_steps_executes_an_exact_batch() {
        let mut sim = Sim::new(0u64);
        for i in 0..10u64 {
            sim.schedule_at(SimTime::from_millis(i), |s| *s.world_mut() += 1);
        }
        assert_eq!(sim.run_steps(4), 4);
        assert_eq!(*sim.world(), 4);
        assert_eq!(sim.events_executed(), 4);
        // Draining past the end reports only what actually ran.
        assert_eq!(sim.run_steps(100), 6);
        assert_eq!(*sim.world(), 10);
        assert_eq!(sim.run_steps(5), 0);
    }

    #[test]
    fn next_event_time_and_step() {
        let mut sim = Sim::new(());
        assert!(sim.next_event_time().is_none());
        assert!(!sim.step());
        sim.schedule_in(SimDuration::from_micros(3), |_| {});
        assert_eq!(sim.next_event_time(), Some(SimTime::from_micros(3)));
        assert!(sim.step());
        assert!(!sim.step());
    }

    #[test]
    #[should_panic(expected = "event limit")]
    fn event_limit_catches_livelock() {
        let mut sim = Sim::new(()).with_event_limit(100);
        fn again(s: &mut Sim<()>) {
            s.schedule_in(SimDuration::from_nanos(1), again);
        }
        sim.schedule_at(SimTime::ZERO, again);
        sim.run();
    }

    #[test]
    fn a_run_needing_exactly_the_limit_completes() {
        let mut sim = Sim::new(0u64).with_event_limit(3);
        for ms in 0..3 {
            sim.schedule_at(SimTime::from_millis(ms), |s| *s.world_mut() += 1);
        }
        sim.run();
        assert_eq!((*sim.world(), sim.events_executed()), (3, 3));
    }

    #[test]
    #[should_panic(expected = "simulation exceeded event limit of 3 events")]
    fn a_run_needing_one_more_than_the_limit_panics() {
        let mut sim = Sim::new(0u64).with_event_limit(3);
        for ms in 0..4 {
            sim.schedule_at(SimTime::from_millis(ms), |s| *s.world_mut() += 1);
        }
        sim.run();
    }

    #[test]
    fn an_event_at_the_end_of_time_drains() {
        let mut sim = Sim::new(Vec::<SimTime>::new());
        sim.schedule_at(SimTime::MAX, |s| {
            let t = s.now();
            s.world_mut().push(t);
        });
        sim.run();
        assert_eq!(sim.world(), &vec![SimTime::MAX]);
        assert_eq!(sim.events_pending(), 0);
    }

    #[test]
    fn scheduler_generic_logic_drives_the_flat_engine() {
        // System logic written against the Scheduler trait (the way
        // jitsu::concurrent is) must log the same run standalone and as the
        // one domain of a ShardedSim: both are the same executor.
        fn chain<S: Scheduler<World = Vec<u64>>>(s: &mut S, n: u64) {
            let t = s.now().as_millis();
            s.world_mut().push(t);
            if n > 0 {
                s.schedule_in(SimDuration::from_millis(2), move |s| chain(s, n - 1));
            }
        }
        let mut sim = Sim::new(Vec::new());
        sim.schedule_at(SimTime::ZERO, |s| chain(s, 3));
        sim.run();
        assert_eq!(sim.world(), &vec![0, 2, 4, 6]);

        let mut sharded = ShardedSim::new(1, SimDuration::from_millis(3));
        let only = sharded.add_domain(Vec::new(), 0);
        sharded.schedule_at(only, SimTime::ZERO, |s| chain(s, 3));
        sharded.run();
        assert_eq!(sharded.domain(only), sim.world());
    }
}
