//! Prints every board's calibrated cost model (see `platform::cost`), the
//! text `tests/golden/cost_model.txt` holds. After an intended change of a
//! cost, refresh the golden with
//! `cargo run --release --bin cost_model > tests/golden/cost_model.txt`.
fn main() {
    print!("{}", bench::cost_model());
}
