//! Figure 9a: HTTP response-time CDFs for Jitsu cold starts.
//!
//! Three configurations: cold start without Synjitsu (the first SYN is lost
//! and the client's 1 s retransmission dominates), cold start with Synjitsu
//! over the vanilla toolstack, and cold start with Synjitsu over the
//! optimised toolstack. Every sample is one DNS query on a fresh board, run
//! to completion on [`ConcurrentJitsud`]: real domain construction and boot
//! timelines, the real SYN proxying, the TCB drain over the conduit vchan
//! and the two-phase commit, and a response the client checks byte for
//! byte.

use jitsu::concurrent::ConcurrentJitsud;
use jitsu::config::{JitsuConfig, ServiceConfig};
use jitsu_sim::{Cdf, Figure, Series, SimTime};
use netstack::ipv4::Ipv4Addr;
use platform::BoardKind;

/// Which Figure 9a configuration a cold start uses: the figure's legend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColdStartMode {
    /// No Synjitsu: the first SYN is lost and the client retransmits.
    NoSynjitsu,
    /// Synjitsu with the vanilla (unoptimised) toolstack.
    SynjitsuVanillaToolstack,
    /// Synjitsu with the optimised Jitsu toolstack.
    SynjitsuOptimised,
}

impl ColdStartMode {
    /// The Figure 9a legend label.
    pub fn label(self) -> &'static str {
        match self {
            ColdStartMode::NoSynjitsu => "Jitsu cold start (no synjitsu)",
            ColdStartMode::SynjitsuVanillaToolstack => {
                "Jitsu cold start w/ synjitsu, vanilla toolstack"
            }
            ColdStartMode::SynjitsuOptimised => "Jitsu cold start w/ synjitsu, optimised toolstack",
        }
    }

    /// All modes in legend order.
    pub const ALL: [ColdStartMode; 3] = [
        ColdStartMode::NoSynjitsu,
        ColdStartMode::SynjitsuVanillaToolstack,
        ColdStartMode::SynjitsuOptimised,
    ];
}

fn config_for(mode: ColdStartMode, index: u32) -> JitsuConfig {
    let service = ServiceConfig::http_site(
        "alice.family.name",
        Ipv4Addr::new(192, 168, 1, 20u8.wrapping_add((index % 200) as u8)),
    );
    let base = JitsuConfig::new("family.name").with_service(service);
    match mode {
        ColdStartMode::NoSynjitsu => base.without_synjitsu(),
        ColdStartMode::SynjitsuVanillaToolstack => base.with_vanilla_toolstack(),
        ColdStartMode::SynjitsuOptimised => base,
    }
}

/// One cold start on a fresh Cubieboard2: a single query for the first
/// configured service, run until the board is quiet. Returns the client's
/// time to first byte in milliseconds, and panics unless the request was
/// served — through a byte-exact handoff when Synjitsu is on.
pub fn cold_start_ttfb_ms(config: JitsuConfig, seed: u64) -> f64 {
    let name = config.services[0].name.clone();
    let synjitsu = config.use_synjitsu;
    let mut sim = ConcurrentJitsud::sim(config, BoardKind::Cubieboard2.board(), seed);
    ConcurrentJitsud::inject_query(&mut sim, SimTime::ZERO, &name);
    sim.run();
    let m = sim.world().metrics();
    assert_eq!(m.cold_served, 1, "every request must be served");
    if synjitsu {
        let h = &m.handoff;
        assert_eq!(h.completed, 1, "the response reaches the client");
        assert_eq!((h.dropped_bytes, h.duplicated_bytes), (0, 0));
    }
    m.ttfb.p50_ms()
}

/// Run `samples` independent cold starts for a mode and return the response
/// times in milliseconds.
pub fn cold_start_samples(mode: ColdStartMode, samples: usize, seed: u64) -> Vec<f64> {
    (0..samples)
        .map(|i| cold_start_ttfb_ms(config_for(mode, i as u32), seed.wrapping_add(i as u64)))
        .collect()
}

/// Build Figure 9a as CDF series (x = time in ms, y = cumulative fraction).
pub fn figure(samples: usize, seed: u64) -> Figure {
    let mut figure = Figure::new(
        "Figure 9a: HTTP response times for Jitsu cold starts",
        "Time in milliseconds",
        "Cumulative fraction of requests",
    );
    for mode in ColdStartMode::ALL {
        let mut cdf = Cdf::from_values(cold_start_samples(mode, samples, seed));
        let series = Series::from_points(mode.label(), cdf.grid(0.0, 1600.0, 32));
        figure.add_series(series);
    }
    figure
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitsu_sim::metrics::percentile;

    #[test]
    fn optimised_cold_starts_cluster_around_300ms() {
        let samples = cold_start_samples(ColdStartMode::SynjitsuOptimised, 12, 7);
        let median = percentile(&samples, 50.0);
        assert!((250.0..400.0).contains(&median), "median={median:.0} ms");
        assert!(samples.iter().all(|&x| x < 600.0));
    }

    #[test]
    fn no_synjitsu_cold_starts_exceed_one_second() {
        let samples = cold_start_samples(ColdStartMode::NoSynjitsu, 8, 7);
        assert!(samples.iter().all(|&x| x > 1000.0), "samples={samples:?}");
    }

    #[test]
    fn vanilla_toolstack_sits_between_the_other_two() {
        let optimised = percentile(
            &cold_start_samples(ColdStartMode::SynjitsuOptimised, 8, 3),
            50.0,
        );
        let vanilla = percentile(
            &cold_start_samples(ColdStartMode::SynjitsuVanillaToolstack, 8, 3),
            50.0,
        );
        let none = percentile(&cold_start_samples(ColdStartMode::NoSynjitsu, 8, 3), 50.0);
        assert!(optimised < vanilla, "{optimised:.0} vs {vanilla:.0}");
        assert!(vanilla < none, "{vanilla:.0} vs {none:.0}");
    }

    #[test]
    fn figure_cdfs_are_monotone_and_reach_one() {
        let fig = figure(6, 11);
        assert_eq!(fig.series().len(), 3);
        for series in fig.series() {
            assert!(series.is_monotone_nondecreasing(), "{}", series.label);
            assert!(
                (series.max_y().unwrap() - 1.0).abs() < 1e-9
                    || series.label.contains("no synjitsu"),
                "{} should reach 1.0 within the plotted range",
                series.label
            );
        }
    }
}
