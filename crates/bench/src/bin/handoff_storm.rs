//! Handoff-storm experiment: live TCP flows migrated from Synjitsu to
//! booted unikernels mid-request (see `bench::storm` and README
//! § "The handoff-storm experiment").
//!
//! Arguments: an optional hexadecimal seed (default `4A0D`), plus
//! `--boards N` and `--shards N`. With `--boards 1` (the default) this
//! prints the classic single-board sweep; with more boards it runs the
//! storm cell as a fleet on the sharded engine. The report is a pure
//! function of (seed, boards) — the shard count is echoed to stderr only,
//! so the CI shard-invariance gate can diff stdout byte-for-byte across
//! shard counts.
fn main() {
    let (seed, boards, shards) = bench::storm::parse_storm_args(0x4A0D);
    println!("seed = {seed:#x}\n");
    if boards > 1 {
        eprintln!("fleet: {boards} boards, {shards} shards");
        println!("boards = {boards}\n");
        println!(
            "{}",
            bench::storm::handoff_fleet(seed, boards, shards).render()
        );
        println!("fo-sent counts SERVFAILs retried against the next board in the ring;");
        println!("'dropped B' and 'dup B' must stay zero on every board of the fleet.");
    } else {
        println!("{}", bench::storm::handoff_sweep(seed).render());
        println!("'dropped B' and 'dup B' are the result: zero means every migrated");
        println!("connection completed its HTTP exchange against the unikernel with no");
        println!("payload byte lost or duplicated across the two-phase commit.");
    }
}
