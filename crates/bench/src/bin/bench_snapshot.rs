//! Prints the repository's exact cost counters (see `bench::snapshot`):
//! one `suite/name value unit` line per metric, the text
//! `tests/golden/bench_snapshot.txt` holds. After an intended change of
//! behaviour, refresh the golden with
//! `cargo run --release --bin bench_snapshot > tests/golden/bench_snapshot.txt`.
//!
//! It takes no arguments; any argument gets a usage line and exit 1.
fn main() {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    if args.next().is_some() {
        eprintln!("usage: {bin}");
        std::process::exit(1)
    }
    print!("{}", bench::snapshot::render(&bench::snapshot::collect()));
}
