//! Figure 8: ICMP round-trip time against payload size for the four
//! datapath targets (client's own stack, dom0, a Linux guest, a MirageOS
//! unikernel).
//!
//! The echo request and reply are built and parsed by the real
//! [`netstack`] code; the per-hop costs (client stack, wire, dom0 bridge,
//! netback/netfront ring crossing, guest stack) come from the calibrated
//! datapath model so the *relative* ordering and magnitudes match §4:
//! sub-millisecond RTTs, with the MirageOS guest within ~0.4 ms of the
//! Linux guest but slightly more variable.

use jitsu_sim::{Distribution, Figure, Series, SimDuration, SimRng};
use netstack::ethernet::MacAddr;
use netstack::iface::{IfaceEvent, Interface};
use netstack::ipv4::Ipv4Addr;
use platform::{Board, BoardKind};

/// The ping targets of Figure 8, in legend order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PingTarget {
    /// The client pinging its own external interface.
    Localhost,
    /// The Xen dom0.
    Dom0,
    /// A Linux guest VM behind the bridge.
    LinuxGuest,
    /// A MirageOS unikernel behind the bridge.
    MirageGuest,
}

impl PingTarget {
    /// All targets in legend order.
    pub const ALL: [PingTarget; 4] = [
        PingTarget::Localhost,
        PingTarget::Dom0,
        PingTarget::LinuxGuest,
        PingTarget::MirageGuest,
    ];

    /// Figure legend label.
    pub fn label(self) -> &'static str {
        match self {
            PingTarget::Localhost => "localhost",
            PingTarget::Dom0 => "dom0",
            PingTarget::LinuxGuest => "linux",
            PingTarget::MirageGuest => "mirage",
        }
    }
}

/// Per-hop latency model of the ping datapath.
#[derive(Debug, Clone)]
pub struct DatapathModel {
    board: Board,
    /// Per-byte copy cost through a software stack.
    per_byte: SimDuration,
    client_stack: Distribution,
    dom0_stack: Distribution,
    linux_guest_stack: Distribution,
    mirage_guest_stack: Distribution,
    ring_crossing: Distribution,
    bridge_hop: SimDuration,
}

impl DatapathModel {
    /// The calibrated model for a board.
    pub fn new(kind: BoardKind) -> DatapathModel {
        let board = kind.board();
        let scale = |us: f64| board.scale_cpu(SimDuration::from_micros_f64(us));
        DatapathModel {
            per_byte: board.scale_cpu(SimDuration::from_nanos(10)),
            client_stack: Distribution::Normal {
                mean: scale(12.0),
                std_dev: scale(1.5),
            },
            dom0_stack: Distribution::Normal {
                mean: scale(14.0),
                std_dev: scale(2.0),
            },
            linux_guest_stack: Distribution::Normal {
                mean: scale(16.0),
                std_dev: scale(2.5),
            },
            // The MirageOS stack costs about the same on average but shows
            // slightly more variation (§4: "never more than 0.4ms" apart,
            // "slightly more variation").
            mirage_guest_stack: Distribution::Normal {
                mean: scale(20.0),
                std_dev: scale(6.0),
            },
            ring_crossing: Distribution::Normal {
                mean: scale(9.0),
                std_dev: scale(1.5),
            },
            bridge_hop: board.scale_cpu(SimDuration::from_micros(8)),
            board,
        }
    }

    /// One-way latency to the target for a frame of `bytes` bytes.
    fn one_way(&self, target: PingTarget, bytes: usize, rng: &mut SimRng) -> SimDuration {
        let copy = self.per_byte * bytes as u64;
        let wire = self.board.wire_time(bytes);
        match target {
            PingTarget::Localhost => self.client_stack.sample(rng) + copy,
            PingTarget::Dom0 => {
                self.client_stack.sample(rng) + wire + self.dom0_stack.sample(rng) + copy
            }
            PingTarget::LinuxGuest => {
                self.client_stack.sample(rng)
                    + wire
                    + self.bridge_hop
                    + self.ring_crossing.sample(rng)
                    + self.linux_guest_stack.sample(rng)
                    + copy * 2
            }
            PingTarget::MirageGuest => {
                self.client_stack.sample(rng)
                    + wire
                    + self.bridge_hop
                    + self.ring_crossing.sample(rng)
                    + self.mirage_guest_stack.sample(rng)
                    + copy * 2
            }
        }
    }

    /// One ICMP echo RTT: the request and reply really are built, parsed and
    /// answered by `netstack`; the time is the two one-way traversals.
    pub fn rtt(
        &self,
        target: PingTarget,
        payload: usize,
        seq: u16,
        rng: &mut SimRng,
    ) -> SimDuration {
        let client_ip = Ipv4Addr::new(192, 168, 1, 100);
        let target_ip = Ipv4Addr::new(192, 168, 1, 20);
        let mut client = Interface::new(MacAddr([2, 0, 0, 0, 0, 1]), client_ip);
        let mut responder = Interface::new(MacAddr([2, 0, 0, 0, 0, 2]), target_ip);
        client.add_arp_entry(target_ip, MacAddr([2, 0, 0, 0, 0, 2]));
        let request = client
            .icmp_echo_request(target_ip, 7, seq, payload)
            .expect("Figure 8's payloads fit one datagram");
        let frame_len = request.len();
        let (replies, _) = responder.handle_frame(&request);
        assert_eq!(replies.len(), 1, "echo request must be answered");
        let (_, events) = client.handle_frame(&replies[0]);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, IfaceEvent::IcmpEchoReply { seq: s, .. } if *s == seq)),
            "client must see the echo reply"
        );
        self.one_way(target, frame_len, rng) + self.one_way(target, frame_len, rng)
    }
}

/// Payload sizes of the figure's x axis.
pub const PAYLOAD_SWEEP: [usize; 5] = [56, 128, 512, 1024, 1400];

/// Mean RTT in milliseconds for a target and payload over `samples` pings.
pub fn mean_rtt_ms(
    model: &DatapathModel,
    target: PingTarget,
    payload: usize,
    samples: usize,
    rng: &mut SimRng,
) -> f64 {
    let mut total = SimDuration::ZERO;
    for i in 0..samples.max(1) {
        total += model.rtt(target, payload, i as u16, rng);
    }
    (total / samples.max(1) as u64).as_millis_f64()
}

/// Build Figure 8.
pub fn figure(samples: usize, seed: u64) -> Figure {
    let model = DatapathModel::new(BoardKind::Cubieboard2);
    let mut rng = SimRng::seed_from_u64(seed);
    let mut figure = Figure::new(
        "Figure 8: ICMP RTT showing the datapath latency",
        "Payload size in bytes",
        "ICMP RTT in milliseconds",
    );
    for target in PingTarget::ALL {
        let mut series = Series::new(target.label());
        for payload in PAYLOAD_SWEEP {
            series.push(
                payload as f64,
                mean_rtt_ms(&model, target, payload, samples, &mut rng),
            );
        }
        figure.add_series(series);
    }
    figure
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DatapathModel {
        DatapathModel::new(BoardKind::Cubieboard2)
    }

    #[test]
    fn rtts_are_sub_millisecond_for_small_payloads() {
        let m = model();
        let mut rng = SimRng::seed_from_u64(1);
        for target in PingTarget::ALL {
            let rtt = mean_rtt_ms(&m, target, 56, 20, &mut rng);
            assert!(rtt < 1.0, "{target:?} RTT {rtt:.3} ms");
            assert!(rtt > 0.05, "{target:?} RTT {rtt:.3} ms");
        }
    }

    #[test]
    fn ordering_localhost_fastest_guests_slowest() {
        let m = model();
        let mut rng = SimRng::seed_from_u64(2);
        let local = mean_rtt_ms(&m, PingTarget::Localhost, 512, 50, &mut rng);
        let dom0 = mean_rtt_ms(&m, PingTarget::Dom0, 512, 50, &mut rng);
        let linux = mean_rtt_ms(&m, PingTarget::LinuxGuest, 512, 50, &mut rng);
        let mirage = mean_rtt_ms(&m, PingTarget::MirageGuest, 512, 50, &mut rng);
        assert!(local < dom0);
        assert!(dom0 < linux);
        assert!(dom0 < mirage);
    }

    #[test]
    fn mirage_within_0_4ms_of_linux_but_more_variable() {
        let m = model();
        let mut rng = SimRng::seed_from_u64(3);
        for payload in PAYLOAD_SWEEP {
            let linux = mean_rtt_ms(&m, PingTarget::LinuxGuest, payload, 60, &mut rng);
            let mirage = mean_rtt_ms(&m, PingTarget::MirageGuest, payload, 60, &mut rng);
            assert!(
                (mirage - linux).abs() < 0.4,
                "payload {payload}: linux {linux:.3} vs mirage {mirage:.3}"
            );
        }
        // Variance comparison on individual samples.
        let mut linux_samples = Vec::new();
        let mut mirage_samples = Vec::new();
        for i in 0..200u16 {
            linux_samples.push(
                m.rtt(PingTarget::LinuxGuest, 512, i, &mut rng)
                    .as_millis_f64(),
            );
            mirage_samples.push(
                m.rtt(PingTarget::MirageGuest, 512, i, &mut rng)
                    .as_millis_f64(),
            );
        }
        let var = |v: &[f64]| {
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / v.len() as f64
        };
        assert!(var(&mirage_samples) > var(&linux_samples));
    }

    #[test]
    fn rtt_grows_with_payload() {
        let fig = figure(20, 9);
        assert_eq!(fig.series().len(), 4);
        for series in fig.series() {
            assert!(series.is_monotone_nondecreasing(), "{}", series.label);
        }
    }
}
