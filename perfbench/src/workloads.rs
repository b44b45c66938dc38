//! The three benchmark workloads. Each builds a cluster through the
//! public `ClusterSim` API, customizes it from the workload seed, and runs
//! it to the start of the measured window: past the boot ramp (the last
//! node's first poll) and past the admission of every customization.
//!
//! Window edges, probe instants and revive times all sit at the same
//! phase of the 1 s poll round, after that round's traffic has landed,
//! so nothing is in flight when the window closes. The drain check in
//! `main.rs` proves it for every run.

use dproc::cluster::{ClusterConfig, ClusterSim, ClusterWorld};
use simcore::{SimDur, SimTime};
use simnet::{FaultPlan, LinkSpec, NodeId};

/// Phase of the poll round at which windows open and close: every
/// workload's round of polls and deliveries is over well before it. The
/// odd nanoseconds keep stop instants off the instants events fire at.
const QUIET_PHASE_NS: u64 = 750_000_003;

/// Metric files a d-mon writes under `/proc/cluster/<peer>/`.
pub const METRIC_FILES: [&str; 5] = ["cpu", "mem", "disk", "net", "pmc"];

/// E-code filters that pass data on an idle cluster. All five certify as
/// `SnapshotKeyed`: emitting a whole record copies the subscriber's
/// `last_value_sent` into it, and a `Shared` filter can emit no record at
/// all. Streams with the same source still share one run per poll while
/// their inputs match.
const FILTERS: [&str; 5] = [
    "{ if (input[LOADAVG].value >= 0.0) { output[0] = input[LOADAVG]; } }",
    "{ if (input[FREEMEM].value > 0.0) { output[0] = input[FREEMEM]; output[1] = input[DISKUSAGE]; } }",
    "{ output[0] = input[FREEMEM]; }",
    "{ output[0] = input[LOADAVG]; output[1] = input[NET_AVAIL]; }",
    "{ output[0] = input[NET_AVAIL]; output[0].value = input[NET_AVAIL].value / 1e6; }",
];

/// Metric names accepted by the `period`/`delta` control rules.
const METRICS: [&str; 5] = ["LOADAVG", "FREEMEM", "DISKUSAGE", "NET_AVAIL", "CACHE_MISS"];

/// SplitMix64: the benchmark's own seeded generator, so the inputs do
/// not depend on any generator inside the program.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A workload built and run up to the start of its measured window.
pub struct Workload {
    pub sim: ClusterSim,
    pub window_start: SimTime,
    pub window_secs: u64,
    /// Nodes whose `/proc/cluster` view the reader probe reads, each with
    /// the peers it must see.
    pub readers: Vec<(usize, Vec<usize>)>,
    /// Filter sources this workload deploys (timed by `ecode.admit_ns`).
    pub sources: Vec<&'static str>,
    /// Control-file writes the benchmark issues over the whole run.
    pub writes: u64,
    /// Inter-switch link spec and poll stagger, so `simnet.send_ns` can
    /// replay the fan-out on a fresh network of the same shape.
    pub switch_link: LinkSpec,
    pub stagger: SimDur,
}

const NAMES: [&str; 3] = ["star64_filtered", "racks2048", "churn_racks"];

pub fn build(name: &str, seed: u64) -> Result<Workload, String> {
    match name {
        "star64_filtered" => Ok(star64_filtered(seed)),
        "racks2048" => Ok(racks2048(seed)),
        "churn_racks" => Ok(churn_racks(seed)),
        other => Err(format!("unknown workload `{other}` (known: {NAMES:?})")),
    }
}

fn at_phase(secs: u64) -> SimTime {
    SimTime::from_nanos(secs * 1_000_000_000 + QUIET_PHASE_NS)
}

/// A node's poll phase: node `i` first polls at `period + stagger * i`,
/// so a revive at `k s + stagger * i` keeps it on its original phase.
fn revive_time(secs: u64, stagger: SimDur, node: usize) -> SimTime {
    SimTime::from_secs(secs) + stagger * (node as u64)
}

/// Same path as `ClusterSim::write_control`, usable from a scheduled
/// action that only sees the world.
fn control_write(w: &mut ClusterWorld, node: usize, target: usize, text: &str) {
    let path = format!("cluster/{}/control", w.hosts[target].name);
    let proc = &mut w.hosts[node].proc;
    if !proc.exists(&path) {
        proc.set(&path, "").expect("control path");
    }
    proc.write(&path, text).expect("control write");
}

fn rack_mates(sim: &ClusterSim, node: usize) -> Vec<usize> {
    let p = &sim.world().placement;
    p.rack(p.rack_of(NodeId(node)))
        .range()
        .filter(|&j| j != node)
        .collect()
}

/// Pick `k` distinct nodes from `candidates` with the seeded generator.
fn pick(rng: &mut Rng, candidates: &[usize], k: usize) -> Vec<usize> {
    let mut pool = candidates.to_vec();
    let mut out = Vec::with_capacity(k);
    for _ in 0..k.min(pool.len()) {
        out.push(pool.swap_remove(rng.below(pool.len())));
    }
    out.sort_unstable();
    out
}

/// 64 nodes on the flat star; every one of the 4032 streams carries a
/// certified E-code filter deployed through a control-file write.
fn star64_filtered(seed: u64) -> Workload {
    const N: usize = 64;
    let cfg = ClusterConfig::new(N);
    let (switch_link, stagger) = (cfg.switch_link, cfg.stagger);
    let mut sim = ClusterSim::new(cfg);
    sim.start();
    // The last node's first poll is at 1.063 s.
    sim.run_until(SimTime::from_millis(1200));
    let mut rng = Rng::new(seed, 1);
    let mut writes = 0;
    for sub in 0..N {
        for publisher in 0..N {
            if sub != publisher {
                let src = FILTERS[rng.below(FILTERS.len())];
                let target = sim.world().hosts[publisher].name.clone();
                sim.write_control(NodeId(sub), &target, &format!("filter {src}"));
                writes += 1;
            }
        }
    }
    // Writes apply at each writer's next poll (~2 s) and land at the
    // publishers within that round.
    let window_start = at_phase(3);
    sim.run_until(window_start);
    let all: Vec<usize> = (0..N).collect();
    let readers = pick(&mut Rng::new(seed, 2), &all, 4)
        .into_iter()
        .map(|r| (r, (0..N).filter(|&j| j != r).collect()))
        .collect();
    Workload {
        sim,
        window_start,
        window_secs: 90,
        readers,
        sources: FILTERS.to_vec(),
        writes,
        switch_link,
        stagger,
    }
}

/// 2048 nodes in 32 racks of 64 with parameter rules only.
fn racks2048(seed: u64) -> Workload {
    const N: usize = 2048;
    const RACK: usize = 64;
    // A 150 µs stagger spreads a round's polls over 0.31 s, so each round
    // ends before the quiet phase. Intra-rack events never queue behind
    // each other here, so a seeded pad (extra payload bytes per event) is
    // what varies the modeled latencies between seeds.
    let mut rng = Rng::new(seed, 1);
    let cfg = ClusterConfig::new(N)
        .racks(RACK)
        .stagger(SimDur::from_micros(150))
        .event_pad(rng.below(8) as u32);
    let (switch_link, stagger) = (cfg.switch_link, cfg.stagger);
    let mut sim = ClusterSim::new(cfg);
    sim.start();
    sim.run_until(SimTime::from_millis(1500));
    // Each node slows one metric of one rack-mate's stream to every 2 s.
    for node in 0..N {
        let mates = rack_mates(&sim, node);
        let target = sim.world().hosts[mates[rng.below(mates.len())]]
            .name
            .clone();
        let metric = METRICS[rng.below(METRICS.len())];
        sim.write_control(NodeId(node), &target, &format!("period {metric} 2"));
    }
    let window_start = at_phase(2);
    sim.run_until(window_start);
    let racks: Vec<usize> = (0..N / RACK).collect();
    let mut prng = Rng::new(seed, 2);
    let readers = pick(&mut prng, &racks, 16)
        .into_iter()
        .map(|k| {
            let r = k * RACK + 1 + prng.below(RACK - 1);
            (r, rack_mates(&sim, r))
        })
        .collect();
    Workload {
        sim,
        window_start,
        window_secs: 6,
        readers,
        sources: Vec::new(),
        writes: N as u64,
        switch_link,
        stagger,
    }
}

/// 64 nodes in racks of 16 with bounded link queues, a seeded fault plan
/// and a steady stream of control writes.
fn churn_racks(seed: u64) -> Workload {
    const N: usize = 64;
    const RACK: usize = 16;
    let mut cfg = ClusterConfig::new(N)
        .racks(RACK)
        .event_pad(60_000)
        .failure_bounds(SimDur::from_secs(3), SimDur::from_secs(8));
    cfg.link = LinkSpec::fast_ethernet().with_queue(24, 2 * 1024 * 1024);
    let (switch_link, stagger) = (cfg.switch_link, cfg.stagger);
    let mut sim = ClusterSim::new(cfg);
    sim.start();

    // Fault targets, one role per rack so each role's effect on the rack's
    // reader does not depend on the seed: in a seeded rotation of the
    // racks, three racks lose a member to a crash and one its aggregator,
    // every rack gets a member whose links degrade, and one member is
    // cut from three rack-mates. Readers are never targets. How a degraded
    // link queues depends on the member's poll phase, so within its rack
    // each role draws from its own band of four poll positions, and the
    // four degraded members cover all four bands.
    let mut rng = Rng::new(seed, 1);
    let racks = N / RACK;
    let rot = rng.below(racks);
    let member = |rng: &mut Rng, j: usize, band: usize| {
        let first = 1 + 4 * band;
        ((rot + j) % racks) * RACK + first + rng.below(4.min(RACK - first))
    };
    let aggregator = ((rot + 1) % racks) * RACK;
    let crashed = [
        member(&mut rng, 0, 2),
        member(&mut rng, 2, 3),
        member(&mut rng, 3, 1),
    ];
    let degraded = [0, 1, 2, 3].map(|j| member(&mut rng, j, j));
    let cut = member(&mut rng, 0, 3);
    let mut faulted = vec![aggregator, cut];
    faulted.extend(crashed);
    faulted.extend(degraded);
    let writers: Vec<usize> = (0..N).filter(|i| !faulted.contains(i)).collect();
    // One reader in each band of each rack, so the readers' poll
    // positions, like the roles', do not depend on the seed. No band
    // holds more than one role, so each has a writer to spare.
    let mut readers = Vec::new();
    for k in 0..racks {
        for band in 0..4 {
            let first = k * RACK + 1 + 4 * band;
            let in_band: Vec<usize> = (first..(first + 4).min((k + 1) * RACK))
                .filter(|i| writers.contains(i))
                .collect();
            readers.push(in_band[rng.below(in_band.len())]);
        }
    }
    let cut_from = pick(
        &mut rng,
        &rack_mates(&sim, cut)
            .into_iter()
            .filter(|j| !faulted.contains(j) && !readers.contains(j))
            .collect::<Vec<_>>(),
        3,
    );
    // Every crash lasts 35 s, so a reader sees its peer age for a fixed
    // span whatever the seed.
    let mut plan = FaultPlan::new(seed);
    for (node, down) in [
        (crashed[0], 12),
        (aggregator, 20),
        (crashed[2], 30),
        (crashed[1], 58),
    ] {
        plan = plan
            .crash_at(SimTime::from_millis(down * 1000 + 500), NodeId(node))
            .revive_at(revive_time(down + 35, stagger, node), NodeId(node));
    }
    plan = plan
        .loss_at(SimTime::from_millis(45_500), 0.03)
        .loss_at(SimTime::from_millis(55_500), 0.0);
    for &d in &degraded {
        plan = plan
            .degrade_at(SimTime::from_millis(60_500), NodeId(d), 0.95)
            .heal_link_at(SimTime::from_millis(100_500), NodeId(d));
    }
    for &peer in &cut_from {
        plan = plan
            .partition_at(SimTime::from_millis(32_500), NodeId(cut), NodeId(peer))
            .heal_at(SimTime::from_millis(50_500), NodeId(cut), NodeId(peer));
    }
    sim.apply_fault_plan(&plan);

    // One control write every second from 8 s to 95 s: a node that is
    // never a fault target (so no write dies with a crash) customizes one
    // metric of a rack-mate's stream. Single-metric rules and filters
    // that pass data leave the event count per poll unchanged.
    let mut wrng = Rng::new(seed, 3);
    let mut writes = 0;
    for t in 8..96u64 {
        let node = writers[wrng.below(writers.len())];
        let mates = rack_mates(&sim, node);
        let target = mates[wrng.below(mates.len())];
        let metric = METRICS[wrng.below(METRICS.len())];
        let text = match wrng.below(4) {
            0 | 1 => format!("filter {}", FILTERS[wrng.below(FILTERS.len())]),
            2 => format!("delta {metric} 0.05"),
            _ => format!("period {metric} 2"),
        };
        sim.at(SimTime::from_millis(t * 1000 + 300), move |w, _| {
            control_write(w, node, target, &text);
        });
        writes += 1;
    }

    let window_start = at_phase(5);
    sim.run_until(window_start);
    let readers = readers
        .into_iter()
        .map(|r| (r, rack_mates(&sim, r)))
        .collect();
    Workload {
        sim,
        window_start,
        window_secs: 130,
        readers,
        sources: FILTERS.to_vec(),
        writes,
        switch_link,
        stagger,
    }
}
