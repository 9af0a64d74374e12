//! # bench — experiment harnesses regenerating every table and figure
//!
//! Each module reproduces one artefact of the paper's evaluation and returns
//! it as a [`jitsu_sim::Figure`] or [`jitsu_sim::Table`]; the `src/bin/*`
//! binaries print them, and `reproduce` prints them all (its output is held
//! byte for byte against `tests/golden/reproduce.txt`). [`storm`] runs the
//! boot and handoff storms on one cell type and one fleet runner, and
//! [`snapshot`] collects the exact counters `bench_snapshot` prints, held
//! byte for byte against `tests/golden/bench_snapshot.txt`. [`cost_model`]
//! renders every board's cost model, held against
//! `tests/golden/cost_model.txt`. Host time is measured by the standalone
//! `benchmark/` package, never here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fig3;
pub mod fig4;
pub mod fig8;
pub mod fig9a;
pub mod fig9b;
pub mod snapshot;
pub mod storm;
pub mod table1;
pub mod table2;
pub mod throughput;
pub mod xenstore_storm;

/// Every board's calibrated cost model, `{:#?}`-rendered after its kind:
/// the text `tests/golden/cost_model.txt` holds.
pub fn cost_model() -> String {
    platform::BoardKind::ALL
        .iter()
        .map(|kind| format!("{kind:?} {:#?}\n", kind.board().costs))
        .collect()
}
