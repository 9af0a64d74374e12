//! The fleet runner every storm experiment shares.
//!
//! A storm cell runs as a *fleet*: N boards, each its own
//! [`ConcurrentJitsud`] world, executed as domains of a
//! [`jitsu_sim::ShardedSim`] with `SERVFAIL` fail-over between boards at
//! epoch barriers (`jitsu::fleet`). The classic single-board cell is the
//! one-board fleet. The conventions here make fleet runs reproducible and
//! shard-count-invariant:
//!
//! * **board seeds** derive from the experiment seed and the board id only
//!   (never the shard), and board 0's seed *is* the experiment seed;
//! * **the epoch length** is part of the experiment definition (it decides
//!   when fail-over retries arrive), fixed here for every fleet experiment.

use jitsu::concurrent::ConcurrentJitsud;
use jitsu::config::JitsuConfig;
use jitsu_sim::{DomainId, ShardedSim, SimDuration, SimTime};
use platform::BoardKind;

/// The virtual-time epoch of every fleet experiment: cross-board fail-over
/// retries are delivered at the next 50 ms barrier, a plausible DNS
/// client retry latency and long enough that barrier overhead is noise.
pub const FLEET_EPOCH: SimDuration = SimDuration::from_millis(50);

/// The RNG seed of one board: board 0 keeps the experiment seed unchanged;
/// later boards spread via the golden-ratio multiplier so their engine and
/// arrival streams are unrelated.
pub fn board_seed(seed: u64, board: u32) -> u64 {
    seed ^ u64::from(board).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The outcome of one storm cell run as a fleet: per-board results plus
/// fleet-wide fail-over and engine counters.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStormResult<R> {
    /// Per-board cell results, in board-id order.
    pub boards: Vec<R>,
    /// `SERVFAIL`ed queries forwarded to a peer board at an epoch barrier.
    pub failovers: u64,
    /// Queries dropped after every board in the ring refused them.
    pub failover_dropped: u64,
    /// Total events executed by the sharded engine (shard-count-invariant).
    pub events: u64,
    /// Epoch barriers processed (shard-count-invariant).
    pub barriers: u64,
}

/// Run one storm cell as a fleet of `boards` Cubieboard2 boards at `shards`
/// shards, to quiescence.
///
/// Board `b` runs `host` seeded with [`board_seed`]`(seed, b)` and receives
/// the open-loop queries `arrivals` returns for that seed; `collect` reads
/// each quiesced board. `SERVFAIL`ed queries fail over around the board
/// ring at epoch barriers; a lone board keeps fail-over off, so a one-board
/// fleet is the classic single-board cell. The result is invariant in
/// `shards`.
pub fn run_fleet<R>(
    host: &JitsuConfig,
    arrivals: impl Fn(u64) -> Vec<(SimTime, String)>,
    collect: impl Fn(&ConcurrentJitsud) -> R,
    seed: u64,
    boards: u32,
    shards: u32,
) -> FleetStormResult<R> {
    let boards = boards.max(1);
    let mut sim = ShardedSim::new(shards, FLEET_EPOCH);
    for b in 0..boards {
        let seed = board_seed(seed, b);
        let mut host = host.clone();
        host.failover = boards > 1;
        let mut world = ConcurrentJitsud::world(host, BoardKind::Cubieboard2.board(), seed);
        world.set_failover_hops(boards - 1);
        sim.add_domain(world, seed);
    }
    for b in 0..boards {
        for (at, name) in arrivals(board_seed(seed, b)) {
            jitsu::fleet::inject_query(&mut sim, DomainId(b), at, &name);
        }
    }
    sim.run();
    let events = sim.events_executed();
    let barriers = sim.barriers();
    let worlds = sim.into_worlds();
    FleetStormResult {
        failovers: worlds.iter().map(|w| w.metrics().failovers).sum(),
        failover_dropped: worlds.iter().map(|w| w.metrics().failover_dropped).sum(),
        boards: worlds.iter().map(collect).collect(),
        events,
        barriers,
    }
}

/// Parse the shared storm-binary command line: an optional positional
/// hexadecimal seed plus `--boards N` and `--shards N` flags, in any
/// order, defaulting to `default_seed`, 1 board and 1 shard. Anything else
/// prints a usage line and exits with status 2.
pub fn parse_storm_args(default_seed: u64) -> (u64, u32, u32) {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    parse_args(args, default_seed).unwrap_or_else(|bad| {
        eprintln!("{bin}: cannot parse {bad:?}\nusage: {bin} [SEED_HEX] [--boards N] [--shards N]");
        std::process::exit(2)
    })
}

/// The arguments' `(seed, boards, shards)`, or the first argument that is
/// not a hexadecimal seed, a known flag or a flag's decimal value.
fn parse_args(
    mut args: impl Iterator<Item = String>,
    default_seed: u64,
) -> Result<(u64, u32, u32), String> {
    let mut seed = default_seed;
    let mut boards = 1u32;
    let mut shards = 1u32;
    while let Some(arg) = args.next() {
        let count = match arg.as_str() {
            "--boards" => &mut boards,
            "--shards" => &mut shards,
            s => {
                let hex = s.strip_prefix("0x").unwrap_or(s);
                seed = u64::from_str_radix(hex, 16).map_err(|_| arg.clone())?;
                continue;
            }
        };
        let value = args.next().ok_or_else(|| arg.clone())?;
        *count = value.parse().map_err(|_| format!("{arg} {value}"))?;
    }
    Ok((seed, boards.max(1), shards.max(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn board_zero_keeps_the_experiment_seed() {
        assert_eq!(board_seed(0x4A0D, 0), 0x4A0D);
        assert_eq!(board_seed(0xB007, 0), 0xB007);
    }

    #[test]
    fn args_parse_in_any_order_with_defaults() {
        let parse = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()), 0xB007);
        assert_eq!(parse(&[]), Ok((0xB007, 1, 1)));
        assert_eq!(parse(&["4A0D"]), Ok((0x4A0D, 1, 1)));
        assert_eq!(
            parse(&["0x4A0D", "--boards", "4", "--shards", "2"]),
            Ok((0x4A0D, 4, 2))
        );
        assert_eq!(
            parse(&["--shards", "4", "--boards", "3", "1"]),
            Ok((0x1, 3, 4))
        );
        assert_eq!(parse(&["--boards", "0"]), Ok((0xB007, 1, 1)));
        // What it cannot parse it rejects, naming the argument.
        assert_eq!(parse(&["--shard", "4"]), Err("--shard".to_string()));
        assert_eq!(parse(&["4A0D", "zz"]), Err("zz".to_string()));
        assert_eq!(
            parse(&["--boards", "four"]),
            Err("--boards four".to_string())
        );
        assert_eq!(parse(&["--shards", "-1"]), Err("--shards -1".to_string()));
        assert_eq!(parse(&["--shards"]), Err("--shards".to_string()));
    }

    #[test]
    fn board_seeds_are_distinct() {
        let seeds: Vec<u64> = (0..16).map(|b| board_seed(0x4A0D, b)).collect();
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
