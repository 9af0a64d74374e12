//! A fleet of jitsud boards on the sharded engine.
//!
//! The paper's deployment model (§3.3.2) is a *city* of boards, each running
//! its own jitsud: a query that a memory-exhausted board answers `SERVFAIL`
//! makes the client fail over to another board. This module makes each
//! [`ConcurrentJitsud`] world one [`Domain`] of a
//! [`ShardedSim`]:
//!
//! * every board keeps its private XenStore, launcher, Synjitsu and metric
//!   state — domains are isolated Rust values, so no cross-board state can
//!   leak by construction;
//! * `SERVFAIL`ed queries are parked on the board
//!   (`ConcurrentJitsud::pending_failover`) and forwarded to the next board
//!   (id + 1, ring order) at the epoch barrier, arriving as a fresh
//!   [`FleetMsg::Query`] with one hop fewer to spend;
//! * a query that has exhausted every board counts as
//!   `failover_dropped` on the last board that refused it.
//!
//! Because all inter-board traffic is barrier-delivered, a fleet run is a
//! pure function of (configs, seeds, workload, epoch) — the shard count is
//! unobservable, which the `sharded_invariance` suite and the CI
//! shard-invariance gate both enforce.

use crate::concurrent::ConcurrentJitsud;
use jitsu_sim::shard::{Domain, DomainCtx, DomainId};
use jitsu_sim::{Scheduler, ShardedSim, SimTime};

/// Messages exchanged between boards of a fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetMsg {
    /// A DNS query failed over from a memory-exhausted peer board.
    Query {
        /// The service name the client asked for.
        name: String,
        /// How many further boards the query may still try after this one.
        hops_left: u32,
    },
}

impl Domain for ConcurrentJitsud {
    type Msg = FleetMsg;

    fn on_message(ctx: &mut DomainCtx<Self>, msg: FleetMsg) {
        match msg {
            FleetMsg::Query { name, hops_left } => {
                ConcurrentJitsud::on_query(ctx, name, Some(hops_left));
            }
        }
    }

    fn at_barrier(ctx: &mut DomainCtx<Self>) {
        if ctx.world().pending_failover.is_empty() {
            return;
        }
        let parked = std::mem::take(&mut ctx.world_mut().pending_failover);
        // Ring order: the client retries against the next board. With a
        // single board the ring degenerates to self-delivery, but a
        // standalone board never parks (failover_hops_default is 0), so
        // single-board runs stay bit-identical to the flat engine.
        let next = DomainId((ctx.id().0 + 1) % ctx.domain_count());
        for (name, hops_left) in parked {
            ctx.send(next, FleetMsg::Query { name, hops_left });
        }
    }
}

/// The simulator type a fleet runs on.
pub type FleetSim = ShardedSim<ConcurrentJitsud>;

/// Schedule a client DNS query to arrive at `board` at absolute time `at` —
/// the fleet analogue of [`ConcurrentJitsud::inject_query`].
pub fn inject_query(sim: &mut FleetSim, board: DomainId, at: SimTime, name: &str) {
    let name = name.to_string();
    sim.schedule_at(board, at, move |ctx| {
        ConcurrentJitsud::on_query(ctx, name, None);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{JitsuConfig, ServiceConfig};
    use jitsu_sim::SimDuration;
    use netstack::ipv4::Ipv4Addr;
    use platform::BoardKind;

    fn board_config(services: usize, memory_per_service: u32) -> JitsuConfig {
        let mut cfg = JitsuConfig::new("fleet.example")
            .with_launch_slots(2)
            .with_idle_timeout(SimDuration::from_secs(30))
            .with_failover();
        for i in 0..services {
            let mut svc = ServiceConfig::http_site(
                &format!("svc{i:02}.fleet.example"),
                Ipv4Addr::new(192, 168, 5, 10 + i as u8),
            );
            svc.image.memory_mib = memory_per_service;
            cfg = cfg.with_service(svc);
        }
        cfg
    }

    fn fleet(boards: u32, shards: u32, services: usize, memory_mib: u32) -> FleetSim {
        let mut sim = ShardedSim::new(shards, SimDuration::from_millis(50));
        for b in 0..boards {
            let seed = 0xF1EE7 ^ (u64::from(b) << 32);
            let mut world = ConcurrentJitsud::world(
                board_config(services, memory_mib),
                BoardKind::Cubieboard2.board(),
                seed,
            );
            world.set_failover_hops(boards.saturating_sub(1));
            sim.add_domain(world, seed);
        }
        sim
    }

    #[test]
    fn servfail_fails_over_to_the_next_board_and_is_served_there() {
        // Services so large one board can host only one of them: the second
        // query SERVFAILs locally and must be served by board 1.
        let mut sim = fleet(2, 2, 4, 600);
        inject_query(
            &mut sim,
            DomainId(0),
            SimTime::from_millis(1),
            "svc00.fleet.example",
        );
        inject_query(
            &mut sim,
            DomainId(0),
            SimTime::from_millis(2),
            "svc01.fleet.example",
        );
        sim.run();
        let b0 = sim.domain(DomainId(0)).metrics();
        let b1 = sim.domain(DomainId(1)).metrics();
        assert_eq!(b0.servfails, 1, "board 0 exhausted on the second service");
        assert_eq!(b0.failovers, 1, "the SERVFAIL was parked for fail-over");
        assert_eq!(b0.failover_dropped, 0);
        assert_eq!(b1.queries, 1, "the retry arrived at board 1");
        assert_eq!(b1.cold_served, 1, "and was served there");
        assert_eq!(b0.cold_served + b1.cold_served, 2, "both clients served");
    }

    #[test]
    fn a_query_no_board_can_host_is_dropped_after_trying_every_board() {
        // Every board is saturated by a resident service first; the victim
        // query then walks the whole ring and drops.
        let mut sim = fleet(3, 3, 4, 600);
        for b in 0..3 {
            inject_query(
                &mut sim,
                DomainId(b),
                SimTime::from_millis(1),
                &format!("svc0{b}.fleet.example"),
            );
        }
        inject_query(
            &mut sim,
            DomainId(0),
            SimTime::from_secs(1),
            "svc03.fleet.example",
        );
        sim.run();
        let dropped: u64 = (0..3)
            .map(|b| sim.domain(DomainId(b)).metrics().failover_dropped)
            .sum();
        let servfails: u64 = (0..3)
            .map(|b| sim.domain(DomainId(b)).metrics().servfails)
            .sum();
        assert_eq!(dropped, 1, "the unhostable query dropped exactly once");
        assert_eq!(servfails, 3, "after a SERVFAIL on every board");
    }

    #[test]
    fn fleet_runs_are_invariant_across_shard_counts() {
        fn counters(shards: u32) -> Vec<(u64, u64, u64, u64, u64)> {
            let mut sim = fleet(4, shards, 4, 600);
            for i in 0..12u64 {
                let board = DomainId((i % 4) as u32);
                let svc = format!("svc{:02}.fleet.example", i % 4);
                inject_query(&mut sim, board, SimTime::from_millis(1 + 7 * i), &svc);
            }
            sim.run();
            let events = sim.events_executed();
            (0..4)
                .map(|b| {
                    let m = sim.domain(DomainId(b)).metrics();
                    (m.queries, m.cold_served, m.servfails, m.failovers, events)
                })
                .collect()
        }
        let one = counters(1);
        for shards in [2, 4, 8] {
            assert_eq!(counters(shards), one, "shards={shards} diverged");
        }
    }
}
