//! The switched network and the send path: a single star (every node ↔
//! one switch) or a hierarchy of rack switches uplinked to a spine,
//! resolved from a [`crate::topology::Placement`]. The star is the
//! 1-rack degenerate case and takes exactly the same code path.

use simcore::{SimDur, SimTime};

use crate::link::{DirLink, LinkSpec};
use crate::topology::Placement;

/// Index of a node on the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Scheduling class of a message on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficClass {
    /// Ordinary data: FIFO behind earlier traffic, subject to the
    /// per-direction queue caps (tail-drop).
    Bulk,
    /// Liveness/control frames: a strict-priority lane that serializes
    /// immediately at the current effective rate, bypassing both the FIFO
    /// backlog and the queue caps. Priority frames are tiny and
    /// rate-limited, so they neither queue nor shed — failure detection
    /// stays accurate no matter how congested the bulk lane is.
    Priority,
}

/// Which direction's queue tail-dropped a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropDir {
    /// The sender's NIC queue was full.
    Uplink,
    /// The receiver's switch-egress queue was full.
    Downlink,
    /// The sender's rack-switch → spine queue was full (hierarchical
    /// topologies only).
    RackUplink,
    /// The spine → receiver's-rack queue was full (hierarchical
    /// topologies only).
    SpineDownlink,
}

/// Outcome of enqueueing a message on the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// When the last byte arrives at the destination host.
    pub deliver_at: SimTime,
    /// Time spent waiting behind earlier traffic (uplink + downlink queues).
    pub queued: SimDur,
    /// Pure wire time (serialization twice + propagation twice).
    pub wire: SimDur,
    /// `Some` if a bounded queue tail-dropped the message; the message
    /// never arrives and `deliver_at` is meaningless.
    pub dropped: Option<DropDir>,
}

impl Delivery {
    /// Total network latency experienced by the message, given its send time.
    pub fn latency(&self, sent_at: SimTime) -> SimDur {
        self.deliver_at.since(sent_at)
    }
}

struct NodeLinks {
    /// Node → switch.
    up: DirLink,
    /// Switch → node.
    down: DirLink,
}

/// One hop of a store-and-forward path through the fabric.
#[derive(Debug, Clone, Copy)]
enum PathLink {
    /// Sender NIC → its rack switch (or the star switch).
    NodeUp(usize),
    /// Rack switch → spine.
    RackUp(usize),
    /// Spine → destination rack switch.
    SpineDown(usize),
    /// Rack switch (or star switch) → receiver NIC.
    NodeDown(usize),
}

/// A switched full-duplex network: one star switch, or rack switches
/// uplinked to a spine.
pub struct Network {
    spec: LinkSpec,
    nodes: Vec<NodeLinks>,
    /// Node → rack (all zeros for the star).
    rack_of: Vec<usize>,
    /// Rack-switch → spine, one per rack; empty for the star.
    switch_ups: Vec<DirLink>,
    /// Spine → rack-switch, one per rack; empty for the star.
    switch_downs: Vec<DirLink>,
    /// Inter-switch link parameters (equal to `spec` unless configured).
    switch_spec: LinkSpec,
    /// Lifetime counters.
    deliveries: u64,
    payload_bytes: u64,
}

impl Network {
    /// Build a single-switch star of `n` nodes with identical links.
    pub fn new(n: usize, spec: LinkSpec) -> Self {
        let nodes = (0..n)
            .map(|_| NodeLinks {
                up: DirLink::new(spec),
                down: DirLink::new(spec),
            })
            .collect();
        Network {
            spec,
            nodes,
            rack_of: vec![0; n],
            switch_ups: Vec::new(),
            switch_downs: Vec::new(),
            switch_spec: spec,
            deliveries: 0,
            payload_bytes: 0,
        }
    }

    /// Build a multi-switch network from a resolved placement: every node
    /// gets a full-duplex link to its rack switch, every rack switch a
    /// full-duplex `switch_spec` link to the spine. A 1-rack placement
    /// degenerates to [`Network::new`] exactly — no spine links exist and
    /// every send takes the two-hop star path.
    pub fn hierarchical(placement: &Placement, spec: LinkSpec, switch_spec: LinkSpec) -> Self {
        let mut net = Network::new(placement.len(), spec);
        if !placement.is_star() {
            net.rack_of = (0..placement.len())
                .map(|i| placement.rack_of(NodeId(i)))
                .collect();
            net.switch_ups = (0..placement.n_racks())
                .map(|_| DirLink::new(switch_spec))
                .collect();
            net.switch_downs = (0..placement.n_racks())
                .map(|_| DirLink::new(switch_spec))
                .collect();
            net.switch_spec = switch_spec;
        }
        net
    }

    /// Add one more node; returns its id. The node joins the last rack
    /// (for the star: the only one).
    pub fn add_node(&mut self) -> NodeId {
        self.nodes.push(NodeLinks {
            up: DirLink::new(self.spec),
            down: DirLink::new(self.spec),
        });
        self.rack_of.push(self.rack_of.last().copied().unwrap_or(0));
        NodeId(self.nodes.len() - 1)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Link parameters.
    pub fn spec(&self) -> &LinkSpec {
        &self.spec
    }

    fn check(&self, id: NodeId) {
        assert!(id.0 < self.nodes.len(), "unknown node {id}");
    }

    /// Enqueue a `bytes`-byte bulk message from `from` to `to` at time
    /// `now`; returns the computed delivery. Loopback (`from == to`)
    /// bypasses the wire and costs a fixed small kernel-copy latency.
    pub fn send(&mut self, now: SimTime, from: NodeId, to: NodeId, bytes: usize) -> Delivery {
        self.send_class(now, from, to, bytes, TrafficClass::Bulk)
    }

    /// [`Network::send`] with an explicit [`TrafficClass`]. Bulk messages
    /// FIFO behind earlier traffic and may be tail-dropped by the bounded
    /// per-direction queues; priority messages use a strict-priority lane
    /// (immediate serialization, never dropped by queue caps).
    pub fn send_class(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        class: TrafficClass,
    ) -> Delivery {
        self.check(from);
        self.check(to);
        self.deliveries += 1;
        self.payload_bytes += bytes as u64;
        if from == to {
            // In-kernel loopback: no serialization, just a copy.
            let copy = SimDur::from_nanos(200 + (bytes as u64) / 10);
            return Delivery {
                deliver_at: now + copy,
                queued: SimDur::ZERO,
                wire: copy,
                dropped: None,
            };
        }
        // Packet-pipelined store-and-forward over the resolved path: each
        // switch forwards packets as they arrive, so consecutive links'
        // serializations overlap. On every link, transmission starts no
        // earlier than the first packet's arrival (head constraint) and
        // finishes no earlier than the last byte's arrival plus one more
        // packet serialization (tail constraint). The star path is the
        // two-link instance of the same loop — the arithmetic per hop is
        // exactly the pre-hierarchy star code.
        let wire_len = self.spec.wire_bytes(bytes) as u64;
        let first_pkt = bytes.min(self.spec.mtu_payload);
        let (r_from, r_to) = (self.rack_of[from.0], self.rack_of[to.0]);
        let node_lat = self.spec.latency;
        let sw_lat = self.switch_spec.latency;
        let mut path = [(PathLink::NodeUp(from.0), node_lat, DropDir::Uplink); 4];
        let hops = if r_from == r_to {
            path[1] = (PathLink::NodeDown(to.0), node_lat, DropDir::Downlink);
            2
        } else {
            path[1] = (PathLink::RackUp(r_from), sw_lat, DropDir::RackUplink);
            path[2] = (PathLink::SpineDown(r_to), sw_lat, DropDir::SpineDownlink);
            path[3] = (PathLink::NodeDown(to.0), node_lat, DropDir::Downlink);
            4
        };

        let mut queued = SimDur::ZERO;
        // Earliest start on the next link (first packet's arrival) and
        // arrival time of the message's last byte there.
        let mut head = now;
        let mut tail = now;
        for &(sel, latency, drop_dir) in &path[..hops] {
            let link = match sel {
                PathLink::NodeUp(i) => &mut self.nodes[i].up,
                PathLink::RackUp(r) => &mut self.switch_ups[r],
                PathLink::SpineDown(r) => &mut self.switch_downs[r],
                PathLink::NodeDown(i) => &mut self.nodes[i].down,
            };
            if class == TrafficClass::Bulk && !link.admit(now, wire_len) {
                return Delivery {
                    deliver_at: now,
                    queued: SimDur::ZERO,
                    wire: SimDur::ZERO,
                    dropped: Some(drop_dir),
                };
            }
            let t_all = link.tx_time_now(bytes);
            let t_first = link.tx_time_now(first_pkt);
            let tail_constraint = tail + t_first;
            let (start, finish) = match class {
                TrafficClass::Bulk => {
                    let (start, finish0) = link.reserve(head, t_all);
                    let finish = finish0.max(tail_constraint);
                    link.extend_busy(finish);
                    (start, finish)
                }
                // Priority lane: serialize immediately, leave the bulk
                // horizon untouched.
                TrafficClass::Priority => ((head), (head + t_all).max(tail_constraint)),
            };
            link.account(now, bytes);
            if class == TrafficClass::Bulk {
                link.occupy(finish, wire_len);
            }
            queued += start - head;
            head = start + t_first + latency;
            tail = finish + latency;
        }

        let deliver_at = tail;
        let wire = deliver_at.since(now) - queued;
        Delivery {
            deliver_at,
            queued,
            wire,
            dropped: None,
        }
    }

    /// Queueing backlog a new message from `from` to `to` would see right
    /// now (sum of both directions' backlogs), without sending.
    pub fn backlog(&self, now: SimTime, from: NodeId, to: NodeId) -> SimDur {
        self.check(from);
        self.check(to);
        self.nodes[from.0].up.backlog(now) + self.nodes[to.0].down.backlog(now)
    }

    /// Add fluid background load (e.g. an Iperf UDP flood) along the path
    /// `from` → `to`, including the inter-switch links when the path
    /// crosses racks.
    pub fn add_background(&mut self, from: NodeId, to: NodeId, bps: f64) {
        self.check(from);
        self.check(to);
        self.nodes[from.0].up.add_background(bps);
        self.nodes[to.0].down.add_background(bps);
        let (rf, rt) = (self.rack_of[from.0], self.rack_of[to.0]);
        if rf != rt {
            self.switch_ups[rf].add_background(bps);
            self.switch_downs[rt].add_background(bps);
        }
    }

    /// Mutable access to both directions of a node's link at once.
    pub fn links_mut(&mut self, id: NodeId) -> (&mut DirLink, &mut DirLink) {
        self.check(id);
        let n = &mut self.nodes[id.0];
        (&mut n.up, &mut n.down)
    }

    /// Mutable access to a node's uplink (tests, probes).
    pub fn uplink_mut(&mut self, id: NodeId) -> &mut DirLink {
        self.check(id);
        &mut self.nodes[id.0].up
    }

    /// Mutable access to a node's downlink (tests, probes).
    pub fn downlink_mut(&mut self, id: NodeId) -> &mut DirLink {
        self.check(id);
        &mut self.nodes[id.0].down
    }

    /// Shared access to a node's uplink.
    pub fn uplink(&self, id: NodeId) -> &DirLink {
        self.check(id);
        &self.nodes[id.0].up
    }

    /// Shared access to a node's downlink.
    pub fn downlink(&self, id: NodeId) -> &DirLink {
        self.check(id);
        &self.nodes[id.0].down
    }

    /// Lifetime count of messages accepted by [`Network::send`].
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Lifetime payload bytes accepted by [`Network::send`].
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }

    /// Number of racks (1 for the star).
    pub fn n_racks(&self) -> usize {
        if self.switch_ups.is_empty() {
            1
        } else {
            self.switch_ups.len()
        }
    }

    /// True when the fabric has a spine tier (more than one rack).
    pub fn is_hierarchical(&self) -> bool {
        !self.switch_ups.is_empty()
    }

    /// Which rack a node's link lands in (0 for the star).
    pub fn rack_of_node(&self, id: NodeId) -> usize {
        self.check(id);
        self.rack_of[id.0]
    }

    /// Shared access to a rack's switch → spine link.
    ///
    /// # Panics
    ///
    /// Panics on a star network (no spine tier) or an unknown rack.
    pub fn switch_uplink(&self, rack: usize) -> &DirLink {
        &self.switch_ups[rack]
    }

    /// Shared access to the spine → rack-switch link (see
    /// [`Network::switch_uplink`] for panics).
    pub fn switch_downlink(&self, rack: usize) -> &DirLink {
        &self.switch_downs[rack]
    }

    /// Messages tail-dropped on the spine tier only (rack uplinks +
    /// downlinks); 0 by definition on a star.
    pub fn spine_drops(&self) -> u64 {
        self.switch_ups
            .iter()
            .chain(&self.switch_downs)
            .map(DirLink::drops)
            .sum()
    }

    /// Total messages tail-dropped by bounded link queues, every direction
    /// of every node plus the inter-switch links.
    pub fn link_drops(&self) -> u64 {
        self.links().map(DirLink::drops).sum()
    }

    /// Every link direction: each node's uplink and downlink, then (on a
    /// hierarchy) every rack → spine and spine → rack link.
    pub fn links(&self) -> impl Iterator<Item = &DirLink> {
        self.nodes
            .iter()
            .flat_map(|n| [&n.up, &n.down])
            .chain(&self.switch_ups)
            .chain(&self.switch_downs)
    }

    /// Largest queue-depth high-water mark across every link direction
    /// (inter-switch links included), as `(messages, wire bytes)` (the two
    /// maxima may come from different links).
    pub fn queue_hwm(&self) -> (usize, u64) {
        let msgs = self.links().map(DirLink::hwm_msgs).max().unwrap_or(0);
        let bytes = self.links().map(DirLink::hwm_bytes).max().unwrap_or(0);
        (msgs, bytes)
    }

    /// Peak lifetime payload rate over every link direction after
    /// `elapsed` of simulated time, as `(bits per second, utilization
    /// against the link's nominal rate)` — the two maxima may come from
    /// different links. `(0, 0)` before any time has passed.
    pub fn peak_link_rate(&self, elapsed: SimDur) -> (f64, f64) {
        let secs = elapsed.as_secs_f64();
        if secs <= 0.0 {
            return (0.0, 0.0);
        }
        self.links().fold((0.0f64, 0.0f64), |(bps, util), link| {
            let rate = link.bytes() as f64 * 8.0 / secs;
            (bps.max(rate), util.max(rate / link.spec().bandwidth_bps))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(n: usize) -> Network {
        Network::new(n, LinkSpec::fast_ethernet())
    }

    #[test]
    fn unloaded_delivery_is_wire_time_only() {
        let mut n = net(2);
        let d = n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1000);
        assert_eq!(d.queued, SimDur::ZERO);
        // ~2 serializations of ~1078 wire bytes at 100 Mbps + 2*30us
        let expect_us = 2.0 * 1078.0 * 8.0 / 100.0 + 60.0;
        let got_us = d.latency(SimTime::ZERO).as_micros_f64();
        assert!(
            (got_us - expect_us).abs() < 2.0,
            "got {got_us} vs {expect_us}"
        );
    }

    #[test]
    fn loopback_is_cheap() {
        let mut n = net(1);
        let d = n.send(SimTime::ZERO, NodeId(0), NodeId(0), 1_000_000);
        assert!(d.deliver_at < SimTime::from_millis(1));
    }

    #[test]
    fn sender_uplink_is_the_shared_bottleneck() {
        let mut n = net(3);
        // Two large messages from node 0 to different receivers: the second
        // queues behind the first on node 0's uplink.
        let d1 = n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        let d2 = n.send(SimTime::ZERO, NodeId(0), NodeId(2), 1_000_000);
        assert_eq!(d1.queued, SimDur::ZERO);
        assert!(d2.queued > SimDur::from_millis(80), "queued {}", d2.queued);
    }

    #[test]
    fn receiver_downlink_is_shared_too() {
        let mut n = net(3);
        let d1 = n.send(SimTime::ZERO, NodeId(1), NodeId(0), 1_000_000);
        let d2 = n.send(SimTime::ZERO, NodeId(2), NodeId(0), 1_000_000);
        assert_eq!(d1.queued, SimDur::ZERO);
        assert!(d2.queued > SimDur::from_millis(70), "queued {}", d2.queued);
    }

    #[test]
    fn disjoint_paths_do_not_interfere() {
        let mut n = net(4);
        let d1 = n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        let d2 = n.send(SimTime::ZERO, NodeId(2), NodeId(3), 1_000_000);
        assert_eq!(d1.queued, SimDur::ZERO);
        assert_eq!(d2.queued, SimDur::ZERO);
    }

    #[test]
    fn background_slows_messages() {
        let mut n = net(2);
        let d_fast = n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        let mut n2 = net(2);
        n2.add_background(NodeId(0), NodeId(1), 70e6);
        let d_slow = n2.send(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        assert!(
            d_slow.latency(SimTime::ZERO) > d_fast.latency(SimTime::ZERO).mul_f64(2.5),
            "70% background should slow a transfer >2.5x: {} vs {}",
            d_slow.latency(SimTime::ZERO),
            d_fast.latency(SimTime::ZERO)
        );
    }

    #[test]
    fn add_node_grows_network() {
        let mut n = net(1);
        let id = n.add_node();
        assert_eq!(id, NodeId(1));
        assert_eq!(n.len(), 2);
        assert!(!n.is_empty());
        // New node is usable.
        n.send(SimTime::ZERO, NodeId(0), id, 10);
        assert_eq!(n.deliveries(), 1);
        assert_eq!(n.payload_bytes(), 10);
    }

    #[test]
    fn backlog_reports_queue_depth() {
        let mut n = net(2);
        assert_eq!(n.backlog(SimTime::ZERO, NodeId(0), NodeId(1)), SimDur::ZERO);
        n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        assert!(n.backlog(SimTime::ZERO, NodeId(0), NodeId(1)) > SimDur::from_millis(80));
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn unknown_node_panics() {
        let mut n = net(2);
        n.send(SimTime::ZERO, NodeId(0), NodeId(7), 10);
    }

    #[test]
    fn bounded_queue_tail_drops_bulk() {
        let mut n = Network::new(3, LinkSpec::fast_ethernet().with_queue(2, u64::MAX));
        // Three large sends from node 0: the first streams, the second
        // queues, the third is tail-dropped at the uplink.
        let d1 = n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        let d2 = n.send(SimTime::ZERO, NodeId(0), NodeId(2), 1_000_000);
        let d3 = n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        assert_eq!(d1.dropped, None);
        assert_eq!(d2.dropped, None);
        assert_eq!(d3.dropped, Some(DropDir::Uplink));
        assert_eq!(n.link_drops(), 1);
        let (hwm_msgs, hwm_bytes) = n.queue_hwm();
        assert_eq!(hwm_msgs, 2, "cap held");
        assert!(hwm_bytes > 2_000_000);
    }

    #[test]
    fn receiver_downlink_queue_drops_too() {
        let mut n = Network::new(3, LinkSpec::fast_ethernet().with_queue(1, u64::MAX));
        // Different senders, same receiver: uplinks are empty, so the
        // second message passes its uplink and sheds at node 0's downlink.
        let d1 = n.send(SimTime::ZERO, NodeId(1), NodeId(0), 1_000_000);
        let d2 = n.send(SimTime::ZERO, NodeId(2), NodeId(0), 1_000_000);
        assert_eq!(d1.dropped, None);
        assert_eq!(d2.dropped, Some(DropDir::Downlink));
        assert_eq!(n.link_drops(), 1);
    }

    fn rack_net(sizes: &[usize]) -> Network {
        let placement = crate::topology::TopologySpec::RackList {
            sizes: sizes.to_vec(),
        }
        .resolve(sizes.iter().sum());
        Network::hierarchical(
            &placement,
            LinkSpec::fast_ethernet(),
            LinkSpec::fast_ethernet(),
        )
    }

    #[test]
    fn one_rack_hierarchy_is_the_star() {
        // The degenerate case must build the exact star: no spine links,
        // identical delivery math.
        let mut star = net(4);
        let mut hier = rack_net(&[4]);
        assert!(!hier.is_hierarchical());
        assert_eq!(hier.n_racks(), 1);
        for (from, to, bytes) in [(0, 1, 100), (2, 3, 1_000_000), (1, 2, 5000)] {
            let a = star.send(SimTime::ZERO, NodeId(from), NodeId(to), bytes);
            let b = hier.send(SimTime::ZERO, NodeId(from), NodeId(to), bytes);
            assert_eq!(a, b, "{from}->{to} {bytes}B");
        }
    }

    #[test]
    fn cross_rack_pays_four_hops() {
        let mut n = rack_net(&[2, 2]);
        assert!(n.is_hierarchical());
        assert_eq!(n.rack_of_node(NodeId(3)), 1);
        let intra = n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1000);
        // A different sender, so the inter-rack probe sees idle links.
        let inter = n.send(SimTime::ZERO, NodeId(1), NodeId(2), 1000);
        // Two extra serializations + two extra propagation delays.
        let extra_us = 2.0 * 1078.0 * 8.0 / 100.0 + 60.0;
        let got = inter.latency(SimTime::ZERO).as_micros_f64()
            - intra.latency(SimTime::ZERO).as_micros_f64();
        assert!((got - extra_us).abs() < 2.0, "extra {got} vs {extra_us}");
        assert_eq!(inter.queued, SimDur::ZERO);
    }

    #[test]
    fn spine_contention_is_modeled() {
        let mut n = rack_net(&[2, 2]);
        // Two senders in rack 0 to rack 1: distinct node links, shared
        // rack uplink — the second message queues at the spine tier.
        let d1 = n.send(SimTime::ZERO, NodeId(0), NodeId(2), 1_000_000);
        let d2 = n.send(SimTime::ZERO, NodeId(1), NodeId(3), 1_000_000);
        assert_eq!(d1.queued, SimDur::ZERO);
        assert!(d2.queued > SimDur::from_millis(40), "queued {}", d2.queued);
        assert!(n.switch_uplink(0).messages() == 2);
        assert_eq!(n.switch_downlink(1).messages(), 2);
    }

    #[test]
    fn spine_queue_drops_are_attributed() {
        let placement = crate::topology::TopologySpec::Racks { rack_size: 2 }.resolve(4);
        let spec = LinkSpec::fast_ethernet().with_queue(2, u64::MAX);
        let mut n = Network::hierarchical(&placement, LinkSpec::fast_ethernet(), spec);
        // Node links keep their wide default queues; the rack uplink holds
        // at most two queued messages, so the third sender sheds there.
        let d1 = n.send(SimTime::ZERO, NodeId(0), NodeId(2), 1_000_000);
        let d2 = n.send(SimTime::ZERO, NodeId(1), NodeId(3), 1_000_000);
        let d3 = n.send(SimTime::ZERO, NodeId(0), NodeId(3), 1_000_000);
        assert_eq!(d1.dropped, None);
        assert_eq!(d2.dropped, None);
        assert_eq!(d3.dropped, Some(DropDir::RackUplink));
        assert_eq!(n.spine_drops(), 1);
        assert_eq!(n.link_drops(), 1);
    }

    #[test]
    fn priority_lane_bypasses_saturated_queue() {
        let mut n = Network::new(2, LinkSpec::fast_ethernet().with_queue(1, u64::MAX));
        let idle = n.send_class(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            100,
            TrafficClass::Priority,
        );
        // Saturate the bulk lane.
        n.send(SimTime::ZERO, NodeId(0), NodeId(1), 10_000_000);
        n.send(SimTime::ZERO, NodeId(0), NodeId(1), 10_000_000);
        assert_eq!(n.link_drops(), 1, "bulk sheds");
        // A priority frame neither sheds nor waits behind the backlog.
        let hb = n.send_class(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            100,
            TrafficClass::Priority,
        );
        assert_eq!(hb.dropped, None);
        assert_eq!(hb.queued, SimDur::ZERO);
        assert_eq!(
            hb.latency(SimTime::ZERO),
            idle.latency(SimTime::ZERO),
            "priority latency unchanged under saturation"
        );
    }
}
