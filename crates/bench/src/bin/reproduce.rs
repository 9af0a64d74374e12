//! Runs every experiment in sequence — the one-shot reproduction of the
//! paper's evaluation section.
fn main() {
    println!("== Reproducing the evaluation of 'Jitsu: Just-In-Time Summoning of Unikernels' ==\n");
    println!(
        "{}",
        bench::fig3::figure(&bench::fig3::default_sweep()).render()
    );
    println!("{}", bench::fig4::figure(3).render());
    println!("{}", bench::fig8::figure(100, 0x51CA).render());
    println!("{}", bench::fig9a::figure(25, 0x9A).render());
    println!("{}", bench::fig9b::figure(100, 0x9B).render());
    println!("{}", bench::storm::boot_sweep(0xB007).render());
    println!("{}", bench::storm::handoff_sweep(0x4A0D).render());
    println!("{}", bench::xenstore_storm::merge_table(0x5707).render());
    println!("{}", bench::xenstore_storm::snapshot_table().render());
    println!("{}", bench::table1::table().render());
    println!("{}", bench::table2::summary_table().render());
    println!("{}", bench::throughput::table().render());
}
