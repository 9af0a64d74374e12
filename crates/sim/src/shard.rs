//! Sharded discrete-event engine with deterministic virtual-time barriers.
//!
//! This module partitions the world into isolated **domains** (a board, a
//! service, any unit that owns its own state), groups domains into
//! **shards**, and executes shards in a fixed order within **virtual-time
//! epochs**. Each domain is a [`Sim`] of its own — a [`DomainCtx`] — and an
//! epoch runs it through the same pop-and-run loop a standalone `Sim` uses,
//! up to the epoch's last nanosecond. Cross-domain messages are collected
//! during an epoch and delivered only at the epoch barrier, in a canonical
//! order that does not depend on how domains were grouped into shards — so
//! an N-shard run is bit-for-bit identical to a 1-shard run at any shard
//! count.
//!
//! Three properties make the invariance hold *by construction* rather than
//! by testing alone:
//!
//! 1. **Domains are isolated Rust values.** A [`DomainCtx`] owns its state,
//!    its event queue and its own [`SimRng`] stream; an event receives
//!    `&mut DomainCtx<D>` and simply cannot reach another domain's state.
//! 2. **All cross-domain communication is barrier-delivered.** Even two
//!    domains that happen to share a shard exchange messages only at the
//!    epoch barrier, at the barrier timestamp, so co-residency is
//!    unobservable.
//! 3. **Barrier processing is shard-independent.** Outboxes drain in domain
//!    id order, hooks run in domain id order, and delivery assigns
//!    per-destination sequence numbers in that canonical order.
//!
//! Sharding here is *deterministic scheduling*, not threading: the engine
//! stays single-threaded, and the root `clippy.toml`'s ban on
//! `std::thread::spawn`, `Mutex`, `RwLock` and `Arc` keeps applying. What
//! sharding buys is per-domain queues (cheaper heap operations than one
//! global queue). Running shards on OS threads between barriers would
//! change no observable bit, but it would not pay either: timing every
//! domain's epoch on the 8-board `fleet_failover` benchmark workload, two
//! threads could at best run it 1.33× faster with the `id % 4` shards, or
//! 1.48× with each epoch's domains split between them longest-first, before
//! any synchronisation cost; in 23% of its epochs only one domain has work.
//! A board's XenStore and frame buffers count references with `Rc`, so a
//! board domain is not `Send` either.
//!
//! ```
//! use jitsu_sim::shard::{Domain, DomainCtx, DomainId, ShardedSim};
//! use jitsu_sim::{Scheduler, SimDuration, SimTime};
//!
//! struct Counter(u64);
//! impl Domain for Counter {
//!     type Msg = u64;
//!     fn on_message(ctx: &mut DomainCtx<Self>, msg: u64) {
//!         ctx.world_mut().0 += msg;
//!     }
//! }
//!
//! let mut sim = ShardedSim::new(4, SimDuration::from_millis(1));
//! let a = sim.add_domain(Counter(0), 1);
//! let b = sim.add_domain(Counter(0), 2);
//! sim.schedule_at(a, SimTime::ZERO, move |ctx| ctx.send(b, 7));
//! sim.run();
//! assert_eq!(sim.domain(b).0, 7);
//! ```

use crate::engine::{Scheduler, Sim};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Identifier of a domain within a [`ShardedSim`].
///
/// Ids are dense indices assigned by [`ShardedSim::add_domain`] in call
/// order; the id — never the shard — is the stable name of a domain, so
/// shard count can vary without renaming anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainId(pub u32);

impl DomainId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A unit of isolated simulated state that lives inside a [`ShardedSim`].
///
/// A domain owns its world, communicates with other domains exclusively via
/// typed messages ([`DomainCtx::send`]) delivered at epoch barriers, and may
/// observe each barrier through [`Domain::at_barrier`].
pub trait Domain: Sized + 'static {
    /// The message type exchanged between domains.
    type Msg: 'static;

    /// A message sent in a previous epoch arrives. Runs at the barrier
    /// timestamp, in canonical (sender id, send order) delivery order.
    fn on_message(ctx: &mut DomainCtx<Self>, msg: Self::Msg);

    /// Hook invoked at every epoch barrier, after all shards have executed
    /// the epoch and before outboxes drain. Runs for every domain in id
    /// order with the clock at the barrier timestamp; messages sent here go
    /// out in the same barrier's delivery. Default: no-op.
    fn at_barrier(_ctx: &mut DomainCtx<Self>) {}
}

/// What a domain's executor carries besides its world: its id, the domain
/// count, its RNG stream and its outbox.
pub struct Member<D: Domain> {
    id: DomainId,
    domain_count: u32,
    rng: SimRng,
    outbox: Vec<(DomainId, D::Msg)>,
}

/// The per-domain executor: a [`Sim`] over the domain's world that carries
/// its [`Member`] record. It implements [`Scheduler`] like any `Sim`, so
/// system logic written against that trait runs identically standalone and
/// inside a sharded domain.
pub type DomainCtx<D> = Sim<D, Member<D>>;

impl<D: Domain> DomainCtx<D> {
    /// This domain's id.
    pub fn id(&self) -> DomainId {
        self.member.id
    }

    /// Total number of domains in the simulation (fixed once running).
    pub fn domain_count(&self) -> u32 {
        self.member.domain_count
    }

    /// This domain's private deterministic RNG stream. Draws consumed here
    /// never perturb any other domain's stream, which is what keeps final
    /// states bit-identical across shard counts.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.member.rng
    }

    /// Queue a message to another domain (or to self). It is delivered at
    /// the next epoch barrier via [`Domain::on_message`], at the barrier
    /// timestamp — never earlier, regardless of shard placement.
    ///
    /// # Panics
    /// Panics if `to` names no domain of this simulation: anyone can build
    /// a [`DomainId`], and the barrier that delivers it is too far from
    /// this call to say who sent it.
    #[expect(
        clippy::panic,
        reason = "a message to a domain that does not exist is a bug in the sender; delivery cannot route it"
    )]
    pub fn send(&mut self, to: DomainId, msg: D::Msg) {
        let m = &mut self.member;
        if to.0 >= m.domain_count {
            panic!(
                "domain {} sent a message to domain {}, but the simulation has {} domains",
                m.id.0, to.0, m.domain_count
            );
        }
        m.outbox.push((to, msg));
    }
}

/// The sharded discrete-event engine.
///
/// Domains are assigned to shards by `id % num_shards`, shards execute in
/// ascending shard order within each epoch, and domains within a shard in
/// ascending id order. Because domains are isolated and messages are
/// barrier-delivered in canonical order (see the module docs), none of that
/// grouping is observable: the run is a pure function of the domains, their
/// seeds, the injected events and the epoch length — not of `num_shards`.
pub struct ShardedSim<D: Domain> {
    domains: Vec<DomainCtx<D>>,
    num_shards: u32,
    epoch: SimDuration,
    barriers: u64,
    executed: u64,
    /// Hard cap on executed events, to catch accidental livelock (matching
    /// the standalone `Sim`'s tripwire).
    event_limit: u64,
}

impl<D: Domain> ShardedSim<D> {
    /// Create an engine with `num_shards` shards (clamped to at least 1)
    /// and the given epoch length (clamped to at least 1 ns).
    pub fn new(num_shards: u32, epoch: SimDuration) -> Self {
        ShardedSim {
            domains: Vec::new(),
            num_shards: num_shards.max(1),
            epoch: epoch.max(SimDuration::from_nanos(1)),
            barriers: 0,
            executed: 0,
            event_limit: u64::MAX,
        }
    }

    /// Set a hard limit on the total number of events executed.
    /// [`ShardedSim::run`] treats exceeding it as livelock and panics.
    pub fn with_event_limit(mut self, limit: u64) -> Self {
        self.event_limit = limit;
        self
    }

    /// Add a domain with its own deterministic RNG stream seeded from
    /// `seed`, returning its id. The seed — not the shard — parameterises
    /// the stream, so results do not depend on shard count.
    pub fn add_domain(&mut self, state: D, seed: u64) -> DomainId {
        let id = DomainId(self.domains.len() as u32);
        let member = Member {
            id,
            domain_count: 0,
            rng: SimRng::seed_from_u64(seed),
            outbox: Vec::new(),
        };
        self.domains.push(Sim::with_member(state, member));
        id
    }

    /// Number of epoch barriers processed so far. Empty stretches of
    /// virtual time are skipped, so this counts *productive* epochs and is
    /// a deterministic, shard-count-invariant virtual metric.
    pub fn barriers(&self) -> u64 {
        self.barriers
    }

    /// Total events executed across all domains.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Shared access to a domain's world.
    pub fn domain(&self, id: DomainId) -> &D {
        &self.domains[id.index()].world
    }

    /// Consume the engine, returning every domain's world in id order.
    pub fn into_worlds(self) -> Vec<D> {
        self.domains.into_iter().map(|d| d.world).collect()
    }

    /// Schedule an event on a domain at absolute virtual time `at`
    /// (clamped to the domain's clock). This is the injection point for
    /// external workload drivers.
    pub fn schedule_at<F>(&mut self, dom: DomainId, at: SimTime, f: F)
    where
        F: FnOnce(&mut DomainCtx<D>) + 'static,
    {
        self.domains[dom.index()].schedule_at(at, f);
    }

    /// Earliest pending event time across all domains, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.domains.iter().filter_map(Sim::next_event_time).min()
    }

    /// Run until every domain's queue is empty and no messages are in
    /// flight.
    ///
    /// Each iteration jumps to the epoch containing the earliest pending
    /// event (empty epochs cost nothing), runs shard 0, shard 1, … through
    /// the epoch's last nanosecond, synchronises every domain's clock to the
    /// barrier time `end`, runs [`Domain::at_barrier`] hooks in id order,
    /// then drains outboxes in id order, scheduling each message on its
    /// destination at time `end`.
    #[expect(
        clippy::panic,
        reason = "livelock tripwire: exceeding the event limit means the experiment is unsound and must abort"
    )]
    pub fn run(&mut self) {
        let count = self.domains.len() as u32;
        for d in &mut self.domains {
            d.member.domain_count = count;
        }
        let epoch_ns = u128::from(self.epoch.as_nanos().max(1));
        while let Some(first) = self.next_event_time() {
            // The epoch window containing the earliest pending event runs
            // through `last`; an event exactly at `end` belongs to the next
            // epoch. Near the top of the u64 range the end saturates and the
            // window runs through SimTime::MAX, so events there still drain.
            let end_ns = (u128::from(first.as_nanos()) / epoch_ns + 1) * epoch_ns;
            let (last, end) = match u64::try_from(end_ns) {
                Ok(end) => (SimTime::from_nanos(end - 1), SimTime::from_nanos(end)),
                Err(_) => (SimTime::MAX, SimTime::MAX),
            };

            // Execute shards in fixed ascending order, domains within a
            // shard in ascending id order.
            let stride = self.num_shards as usize;
            for shard in 0..stride {
                for idx in (shard..self.domains.len()).step_by(stride) {
                    let dom = &mut self.domains[idx];
                    let budget = self.event_limit.saturating_sub(self.executed);
                    let ran = dom.drain_through(last, budget);
                    self.executed += ran;
                    if ran == budget && dom.due(last) {
                        panic!(
                            "sharded simulation exceeded event limit of {} events (possible livelock)",
                            self.event_limit
                        );
                    }
                }
            }

            // Barrier: synchronise clocks, run hooks, deliver messages —
            // all in domain id order, independent of sharding. A hook sees
            // only its own domain, so each runs as soon as its clock is set.
            for dom in &mut self.domains {
                dom.now = end;
                D::at_barrier(dom);
            }
            for src in 0..self.domains.len() {
                let outbox = std::mem::take(&mut self.domains[src].member.outbox);
                for (to, msg) in outbox {
                    self.domains[to.index()].schedule_at(end, move |ctx| D::on_message(ctx, msg));
                }
            }
            self.barriers += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A domain that logs (time-in-micros, tag) pairs so tests can assert
    /// on exact per-domain event order.
    struct Logger {
        log: Vec<(u64, u64)>,
        draws: Vec<u64>,
    }

    impl Logger {
        fn new() -> Self {
            Logger {
                log: Vec::new(),
                draws: Vec::new(),
            }
        }
    }

    impl Domain for Logger {
        type Msg = u64;
        fn on_message(ctx: &mut DomainCtx<Self>, msg: u64) {
            let t = ctx.now().as_micros();
            let draw = ctx.rng().uniform_u64(0, 1_000_000);
            let w = ctx.world_mut();
            w.log.push((t, msg));
            w.draws.push(draw);
        }
    }

    fn two_domain_sim(shards: u32) -> (ShardedSim<Logger>, DomainId, DomainId) {
        let mut sim = ShardedSim::new(shards, SimDuration::from_millis(1));
        let a = sim.add_domain(Logger::new(), 11);
        let b = sim.add_domain(Logger::new(), 22);
        (sim, a, b)
    }

    #[test]
    fn local_events_fire_in_time_then_scheduling_order() {
        let (mut sim, a, _) = two_domain_sim(1);
        sim.schedule_at(a, SimTime::from_micros(30), |c| {
            let t = c.now().as_micros();
            c.world_mut().log.push((t, 3));
        });
        sim.schedule_at(a, SimTime::from_micros(10), |c| {
            let t = c.now().as_micros();
            c.world_mut().log.push((t, 1));
        });
        sim.schedule_at(a, SimTime::from_micros(10), |c| {
            let t = c.now().as_micros();
            c.world_mut().log.push((t, 2));
        });
        sim.run();
        assert_eq!(sim.domain(a).log, vec![(10, 1), (10, 2), (30, 3)]);
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn messages_arrive_at_the_epoch_barrier_not_earlier() {
        let (mut sim, a, b) = two_domain_sim(2);
        // Sent at t=100µs inside the [0, 1ms) epoch: must arrive at 1 ms.
        sim.schedule_at(a, SimTime::from_micros(100), move |c| c.send(b, 42));
        sim.run();
        assert_eq!(sim.domain(b).log, vec![(1_000, 42)]);
        assert_eq!(sim.barriers(), 2, "send epoch + delivery epoch");
    }

    #[test]
    fn empty_epochs_are_skipped_not_iterated() {
        let (mut sim, a, _) = two_domain_sim(1);
        // Two events 10 s apart with a 1 ms epoch: 10 000 empty epochs in
        // between must not each cost a barrier.
        sim.schedule_at(a, SimTime::from_secs(0), |c| {
            let t = c.now().as_micros();
            c.world_mut().log.push((t, 0));
        });
        sim.schedule_at(a, SimTime::from_secs(10), |c| {
            let t = c.now().as_micros();
            c.world_mut().log.push((t, 1));
        });
        sim.run();
        assert_eq!(sim.barriers(), 2);
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_domain_now() {
        let (mut sim, a, _) = two_domain_sim(1);
        sim.schedule_at(a, SimTime::from_micros(50), |c| {
            c.schedule_at(SimTime::ZERO, |c| {
                let t = c.now().as_micros();
                c.world_mut().log.push((t, 9));
            });
        });
        sim.run();
        assert_eq!(sim.domain(a).log, vec![(50, 9)]);
    }

    #[test]
    fn self_send_is_also_barrier_delivered() {
        let (mut sim, a, _) = two_domain_sim(1);
        sim.schedule_at(a, SimTime::from_micros(1), move |c| c.send(a, 5));
        sim.run();
        assert_eq!(sim.domain(a).log, vec![(1_000, 5)]);
    }

    #[test]
    #[should_panic(expected = "event limit")]
    fn event_limit_catches_cross_domain_livelock() {
        // Two domains bounce a message forever; the tripwire must fire.
        struct Pong;
        impl Domain for Pong {
            type Msg = ();
            fn on_message(ctx: &mut DomainCtx<Self>, (): ()) {
                let to = DomainId((ctx.id().0 + 1) % ctx.domain_count());
                ctx.send(to, ());
            }
        }
        let mut sim = ShardedSim::new(2, SimDuration::from_millis(1)).with_event_limit(100);
        let a = sim.add_domain(Pong, 1);
        let b = sim.add_domain(Pong, 2);
        sim.schedule_at(a, SimTime::ZERO, move |c| c.send(b, ()));
        sim.run();
    }

    /// Two domains with `events` one-microsecond-apart local events
    /// between them, under an event limit of 3.
    fn limited_run(events: u64) -> ShardedSim<Logger> {
        let (sim, a, b) = two_domain_sim(2);
        let mut sim = sim.with_event_limit(3);
        for i in 0..events {
            let dom = if i % 2 == 0 { a } else { b };
            sim.schedule_at(dom, SimTime::from_micros(i), move |c| {
                c.world_mut().log.push((i, i));
            });
        }
        sim.run();
        sim
    }

    #[test]
    fn a_run_needing_exactly_the_limit_completes() {
        assert_eq!(limited_run(3).events_executed(), 3);
    }

    #[test]
    #[should_panic(expected = "sharded simulation exceeded event limit of 3 events")]
    fn a_run_needing_one_more_than_the_limit_panics() {
        limited_run(4);
    }

    #[test]
    fn an_event_at_the_end_of_time_drains_in_the_saturating_window() {
        let (mut sim, a, _) = two_domain_sim(1);
        sim.schedule_at(a, SimTime::MAX, |c| {
            let t = c.now().as_nanos();
            c.world_mut().log.push((t, 1));
        });
        sim.run();
        assert_eq!(sim.domain(a).log, vec![(u64::MAX, 1)]);
        assert_eq!(sim.barriers(), 1);
    }

    #[test]
    fn a_local_event_at_a_barrier_time_runs_after_that_barriers_hook() {
        // Tag 0 is a local event, tag 1 the at_barrier hook.
        struct Hooked(Vec<(u64, u64)>);
        impl Domain for Hooked {
            type Msg = ();
            fn on_message(_: &mut DomainCtx<Self>, (): ()) {}
            fn at_barrier(ctx: &mut DomainCtx<Self>) {
                let t = ctx.now().as_micros();
                ctx.world_mut().0.push((t, 1));
            }
        }
        let mut sim = ShardedSim::new(1, SimDuration::from_millis(1));
        let a = sim.add_domain(Hooked(Vec::new()), 1);
        for at in [SimTime::ZERO, SimTime::from_millis(1)] {
            sim.schedule_at(a, at, |c| {
                let t = c.now().as_micros();
                c.world_mut().0.push((t, 0));
            });
        }
        sim.run();
        assert_eq!(
            sim.domain(a).0,
            vec![(0, 0), (1_000, 1), (1_000, 0), (2_000, 1)],
            "the 1 ms event belongs to the [1 ms, 2 ms) epoch"
        );
        assert_eq!(sim.barriers(), 2);
    }

    #[test]
    #[should_panic(
        expected = "domain 0 sent a message to domain 2, but the simulation has 2 domains"
    )]
    fn a_message_to_a_domain_that_does_not_exist_panics_at_the_send() {
        let (mut sim, a, _) = two_domain_sim(2);
        sim.schedule_at(a, SimTime::ZERO, |c| c.send(DomainId(2), 1));
        sim.run();
    }

    /// The load-bearing property, in miniature: identical final state, event
    /// logs and RNG draws at every shard count.
    #[test]
    fn shard_count_is_unobservable() {
        type Observed = (Vec<(u64, u64)>, Vec<u64>, u64);
        fn run(shards: u32) -> Vec<Observed> {
            let mut sim = ShardedSim::new(shards, SimDuration::from_millis(1));
            let ids: Vec<DomainId> = (0..5).map(|i| sim.add_domain(Logger::new(), i)).collect();
            for (i, &id) in ids.iter().enumerate() {
                let next = ids[(i + 1) % ids.len()];
                let at = SimTime::from_micros(17 * (i as u64 + 1));
                sim.schedule_at(id, at, move |c| {
                    let tag = c.rng().uniform_u64(0, 100);
                    c.send(next, tag);
                });
            }
            sim.run();
            let barriers = sim.barriers();
            sim.into_worlds()
                .into_iter()
                .map(|w| (w.log, w.draws, barriers))
                .collect()
        }
        let one = run(1);
        for shards in [2, 3, 4, 8, 16] {
            assert_eq!(run(shards), one, "shards={shards} diverged from 1");
        }
    }

    #[test]
    fn at_barrier_hook_runs_in_id_order_and_can_send() {
        struct Chain {
            fired: bool,
            got: Vec<u64>,
        }
        impl Domain for Chain {
            type Msg = u64;
            fn on_message(ctx: &mut DomainCtx<Self>, msg: u64) {
                ctx.world_mut().got.push(msg);
            }
            fn at_barrier(ctx: &mut DomainCtx<Self>) {
                if ctx.world().fired {
                    return;
                }
                ctx.world_mut().fired = true;
                let me = u64::from(ctx.id().0);
                let to = DomainId((ctx.id().0 + 1) % ctx.domain_count());
                ctx.send(to, me);
            }
        }
        let mut sim = ShardedSim::new(3, SimDuration::from_millis(1));
        for i in 0..3u64 {
            sim.add_domain(
                Chain {
                    fired: false,
                    got: Vec::new(),
                },
                i,
            );
        }
        // One seed event so the engine processes an epoch at all.
        sim.schedule_at(DomainId(0), SimTime::ZERO, |_| {});
        sim.run();
        // Barrier 1: every domain fires once; messages land next epoch.
        assert_eq!(sim.domain(DomainId(1)).got, vec![0]);
        assert_eq!(sim.domain(DomainId(2)).got, vec![1]);
        assert_eq!(sim.domain(DomainId(0)).got, vec![2]);
    }
}
