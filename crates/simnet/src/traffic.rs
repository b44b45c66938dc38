//! Background traffic generation and bandwidth probing.
//!
//! The paper perturbs the network with Iperf in UDP mode and *measures*
//! available bandwidth with Iperf as well (Fig. 5, Fig. 10). Floods are
//! fluid background load ([`Network::add_background`]);
//! [`iperf_available_bps`] reproduces the probe: it reports the residual
//! capacity along a path after background floods and recent message
//! traffic.

use simcore::SimTime;

use crate::network::{Network, NodeId};

/// Iperf-style probe: available UDP bandwidth along `from` → `to` at `now`,
/// in bits per second. The probe sees the raw capacity minus background
/// floods minus recent discrete-message traffic, bottlenecked by whichever
/// of the two link directions is busier. Never negative.
pub fn iperf_available_bps(net: &mut Network, now: SimTime, from: NodeId, to: NodeId) -> f64 {
    let capacity = net.spec().bandwidth_bps;
    let up_bg = net.uplink(from).background_bps();
    let down_bg = net.downlink(to).background_bps();
    let up_msg = net.uplink_mut(from).message_bps(now);
    let down_msg = net.downlink_mut(to).message_bps(now);
    let up_avail = capacity - up_bg - up_msg;
    let down_avail = capacity - down_bg - down_msg;
    up_avail.min(down_avail).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;

    fn net(n: usize) -> Network {
        Network::new(n, LinkSpec::fast_ethernet())
    }

    #[test]
    fn probe_sees_full_capacity_when_idle() {
        let mut n = net(2);
        let avail = iperf_available_bps(&mut n, SimTime::ZERO, NodeId(0), NodeId(1));
        assert!((avail - 100e6).abs() < 1.0);
    }

    #[test]
    fn floods_reduce_probe() {
        let mut n = net(3);
        n.add_background(NodeId(0), NodeId(1), 40e6);
        let avail = iperf_available_bps(&mut n, SimTime::ZERO, NodeId(0), NodeId(1));
        assert!((avail - 60e6).abs() < 1.0, "avail {avail}");
        // A disjoint path is unaffected.
        let avail2 = iperf_available_bps(&mut n, SimTime::ZERO, NodeId(2), NodeId(1));
        assert!((avail2 - 60e6).abs() < 1.0, "shares the downlink: {avail2}");
        let avail3 = iperf_available_bps(&mut n, SimTime::ZERO, NodeId(1), NodeId(2));
        assert!((avail3 - 100e6).abs() < 1.0, "fully disjoint: {avail3}");
    }

    #[test]
    fn message_traffic_lowers_probe() {
        let mut n = net(2);
        // 2.5 MB within the last second ≈ 20 Mbps of message traffic.
        n.send(SimTime::ZERO, NodeId(0), NodeId(1), 2_500_000);
        let avail = iperf_available_bps(&mut n, SimTime::from_millis(100), NodeId(0), NodeId(1));
        assert!(avail < 81e6, "avail {avail}");
        assert!(avail > 70e6, "avail {avail}");
    }

    #[test]
    fn probe_never_negative() {
        let mut n = net(2);
        n.add_background(NodeId(0), NodeId(1), 250e6);
        let avail = iperf_available_bps(&mut n, SimTime::ZERO, NodeId(0), NodeId(1));
        assert_eq!(avail, 0.0);
    }
}
