//! Boot-storm experiment: concurrent summoning under open-loop Poisson
//! load (see `bench::storm` and README § "The boot-storm experiment").
//!
//! Arguments: an optional hexadecimal seed (default `B007`), plus
//! `--boards N` and `--shards N`. With `--boards 1` (the default) this
//! prints the classic single-board sweep; with more boards it runs the
//! fleet on the sharded engine with `SERVFAIL` fail-over between boards.
//! The report is a pure function of (seed, boards) — the shard count is
//! echoed to stderr only, so the CI shard-invariance gate can diff stdout
//! byte-for-byte across shard counts.
fn main() {
    let (seed, boards, shards) = bench::storm::parse_storm_args(0xB007);
    println!("seed = {seed:#x}\n");
    if boards > 1 {
        eprintln!("fleet: {boards} boards, {shards} shards");
        println!("boards = {boards}\n");
        println!(
            "{}",
            bench::storm::boot_fleet(seed, boards, shards).render()
        );
        println!("fo-sent counts SERVFAILs retried against the next board in the ring;");
        println!("fo-drop counts queries no board in the fleet could host.");
    } else {
        println!("{}", bench::storm::boot_sweep(seed).render());
        println!("launch-slot capacity on the Cubieboard2 is ~8 launches/s per slot;");
        println!("SERVFAIL appears only once the working set exceeds guest memory (832 MiB).");
    }
}
