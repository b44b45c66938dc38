//! Same-seed replay across the whole feature surface: every scenario runs
//! twice in one process and both runs must produce *bit-identical* final
//! state — the full `/proc` forest on every host, the d-mon counters, the
//! latency samplers (compared as raw f64 bits), the network and fault
//! counters. Any hash-order iteration, wall-clock read, or ambient RNG
//! draw that leaks into simulation state shows up here as a diff. The
//! first run of every scenario must also pass `ClusterSim::audit`.

use dproc::cluster::{ClusterConfig, ClusterSim};
use kecho::Topology;
use proptest::prelude::*;
use simcore::{SimDur, SimTime};
use simnet::{FaultPlan, LinkSpec, NodeId};
use simos::host::HostConfig;

/// Build + start a sim, apply the scenario's setup, and run it.
fn run_one(
    cfg: impl Fn() -> ClusterConfig,
    setup: impl Fn(&mut ClusterSim),
    secs: u64,
) -> ClusterSim {
    let mut sim = ClusterSim::new(cfg());
    sim.start();
    setup(&mut sim);
    sim.run_until(SimTime::from_secs(secs));
    sim
}

/// Fail `name` with every violation `ClusterSim::audit` reports.
fn assert_audited(name: &str, sim: &ClusterSim) {
    let violations = sim.audit();
    assert!(violations.is_empty(), "{name}: audit: {violations:#?}");
}

/// Assert the scenario passes the audit and replays bit-identically.
fn assert_replays(
    name: &str,
    secs: u64,
    cfg: impl Fn() -> ClusterConfig,
    setup: impl Fn(&mut ClusterSim),
) {
    let first = run_one(&cfg, &setup, secs);
    assert!(
        first.world().mon_delivered > 0,
        "{name}: the run did nothing"
    );
    assert_audited(name, &first);
    let second = run_one(&cfg, &setup, secs);
    assert_eq!(
        first.fingerprint(),
        second.fingerprint(),
        "{name}: replay diverged"
    );
}

#[test]
fn default_cluster_is_bit_identical() {
    assert_replays("default", 12, || ClusterConfig::new(4), |_| {});
}

#[test]
fn microsecond_stagger_is_bit_identical() {
    // Phase-locked polls: every node samples and sends at almost the same
    // instant, so same-time ties are broken by sequence number alone.
    assert_replays(
        "tiny-stagger",
        12,
        || ClusterConfig::new(6).stagger(SimDur::from_micros(1)),
        |_| {},
    );
}

#[test]
fn central_topology_is_bit_identical() {
    // Hub relays exercise the transit path (original send timestamps,
    // relay CPU charges, fan-out on the monitoring channel).
    assert_replays(
        "central",
        12,
        || ClusterConfig::new(5).topology(Topology::Central(NodeId(0))),
        |_| {},
    );
}

#[test]
fn workloads_are_bit_identical() {
    // Linpack steals CPU from the service thread; Iperf floods perturb
    // link reservations; both change every delivery time.
    assert_replays(
        "workloads",
        12,
        || ClusterConfig::new(4).host_cfg(2, HostConfig::uniprocessor()),
        |sim| {
            sim.start_linpack(NodeId(2), 2);
            sim.start_iperf(NodeId(1), NodeId(3), 40e6);
        },
    );
}

#[test]
fn event_pad_and_control_are_bit_identical() {
    // Padded events change wire sizes; a control write triggers the
    // control round-trip (request, handler, reply).
    assert_replays(
        "control",
        12,
        || ClusterConfig::new(4).event_pad(512),
        |sim| {
            sim.write_control(NodeId(1), "node0", "period * 2");
            sim.write_control(NodeId(3), "node2", "LOADAVG delta 0.10");
        },
    );
}

#[test]
fn fault_plan_is_bit_identical() {
    // Crash + revive runs the node lifecycle (eviction, rejoin, epoch
    // bumps); partition and loss draw from the fault RNG in delivery
    // order; degrade rewrites link capacities mid-run.
    assert_replays(
        "faults",
        14,
        || ClusterConfig::new(5).failure_bounds(SimDur::from_secs(2), SimDur::from_secs(4)),
        |sim| {
            let plan = FaultPlan::new(42)
                .crash_at(SimTime::from_secs(2), NodeId(1))
                .partition_at(SimTime::from_secs(3), NodeId(2), NodeId(3))
                .loss_at(SimTime::from_secs(4), 0.2)
                .degrade_at(SimTime::from_secs(5), NodeId(4), 0.25)
                .loss_at(SimTime::from_secs(6), 0.0)
                .heal_at(SimTime::from_secs(7), NodeId(2), NodeId(3))
                .revive_at(SimTime::from_secs(8), NodeId(1))
                .heal_link_at(SimTime::from_secs(9), NodeId(4));
            sim.apply_fault_plan(&plan);
        },
    );
}

#[test]
fn overload_backpressure_is_bit_identical() {
    // Saturated links run the whole robustness stack at once — bounded
    // queue admission with deterministic tail-drop, credit stalls, outbox
    // shedding, choke backoff, ladder transitions, gap healing — and all
    // of it must replay identically.
    let cfg = || {
        let mut cfg = ClusterConfig::new(3)
            .poll_period(SimDur::from_secs(1))
            .failure_bounds(SimDur::from_secs(3), SimDur::from_secs(8))
            .event_pad(1_500_000);
        cfg.link = LinkSpec::fast_ethernet().with_queue(3, 64 * 1024 * 1024);
        cfg
    };
    let plan = FaultPlan::new(0x0BAD_10AD)
        .degrade_at(SimTime::from_secs(5), NodeId(2), 0.9)
        .heal_link_at(SimTime::from_secs(45), NodeId(2));

    // Vacuity guard: the scenario must actually drop frames and walk the
    // ladder, or the replay proves nothing.
    let mut probe = ClusterSim::new(cfg());
    probe.start();
    probe.apply_fault_plan(&plan);
    probe.run_until(SimTime::from_secs(60));
    assert!(
        probe.world().net.link_drops() > 0,
        "overload scenario dropped nothing — vacuous"
    );
    assert!(
        probe
            .world()
            .dmons
            .iter()
            .any(|d| d.stats.ladder_transitions > 0),
        "overload scenario never moved the ladder — vacuous"
    );
    assert_audited("overload", &probe);
    let first = probe.fingerprint();
    let second = run_one(cfg, |sim| sim.apply_fault_plan(&plan), 60).fingerprint();
    assert_eq!(first, second, "overload: replay diverged");
}

#[test]
fn compiled_filters_are_bit_identical() {
    // Certified E-code filters take over every stream: two shapes the
    // register compiler specializes into closures (one `Shared`-memo,
    // one `SnapshotKeyed`) plus one impure shape that bypasses the memo
    // per subscriber. Compiled execution, memo sharing, and the batched
    // span gather must all replay bit-identically — the dmon counters
    // inside the fingerprint compare the compile/fallback/bypass split
    // too.
    const SHARED: &str = "{ if (input[LOADAVG].value > 0.25) { output[0] = input[LOADAVG]; } }";
    const SNAP: &str = "{ output[0] = input[FREEMEM]; }";
    const IMPURE: &str =
        "{ if (input[LOADAVG].value > input[LOADAVG].last_value_sent) { output[0] = input[LOADAVG]; } }";
    let cfg = || ClusterConfig::new(6).stagger(SimDur::from_micros(1));
    let setup = |sim: &mut ClusterSim| {
        let calib = sim.world().calib.clone();
        let w = sim.world_mut();
        let n = w.len();
        for p in 0..n {
            for s in 0..n {
                if p == s {
                    continue;
                }
                let source = match (p + s) % 3 {
                    0 => SHARED,
                    1 => SNAP,
                    _ => IMPURE,
                };
                w.dmons[p].on_control(
                    NodeId(s),
                    &kecho::ControlMsg::DeployFilter {
                        source: source.into(),
                    },
                    &calib,
                );
            }
        }
    };

    // Vacuity guards: every deploy must have landed on the register
    // compiler, and the impure shape must actually exercise the
    // per-subscriber bypass path.
    let mut probe = ClusterSim::new(cfg());
    probe.start();
    setup(&mut probe);
    probe.run_until(SimTime::from_secs(12));
    let w = probe.world();
    let compiled: u64 = w.dmons.iter().map(|d| d.stats.filters_compiled).sum();
    let fallbacks: u64 = w.dmons.iter().map(|d| d.stats.interp_fallbacks).sum();
    let bypassed: u64 = w.dmons.iter().map(|d| d.stats.memo_bypassed).sum();
    assert_eq!(compiled, 30, "every deployed filter must compile");
    assert_eq!(fallbacks, 0, "no certified shape may fall back");
    assert!(bypassed > 0, "impure filters must bypass the memo");
    assert!(
        w.mon_delivered > 0,
        "filters suppressed everything — vacuous"
    );
    assert_audited("compiled filters", &probe);
    let first = probe.fingerprint();
    let second = run_one(cfg, setup, 12).fingerprint();
    assert_eq!(first, second, "compiled filters: replay diverged");
}

#[test]
fn hierarchical_racks_are_bit_identical() {
    // Three racks of three with the full fault lifecycle aimed at the
    // aggregation tier: rack 1's aggregator crashes (its rack-mates'
    // failure detectors evict it from the rack channels *and* the spine
    // digest channel), a partition between two other racks' aggregators
    // destroys digests on the wire, and the revival restores exactly the
    // placement's channel set. Every piece — cross-rack 4-hop wire math,
    // digest folds, eviction and rejoin — must replay bit-identically.
    let cfg = || {
        ClusterConfig::new(9)
            .racks(3)
            .failure_bounds(SimDur::from_secs(2), SimDur::from_secs(4))
    };
    let plan = FaultPlan::new(7)
        .crash_at(SimTime::from_secs(3), NodeId(3))
        .partition_at(SimTime::from_secs(4), NodeId(0), NodeId(6))
        .heal_at(SimTime::from_secs(6), NodeId(0), NodeId(6))
        .revive_at(SimTime::from_secs(8), NodeId(3));

    // Vacuity guards: the aggregation tier must be live.
    let mut probe = ClusterSim::new(cfg());
    probe.start();
    probe.apply_fault_plan(&plan);
    probe.run_until(SimTime::from_secs(14));
    let w = probe.world();
    let sent: u64 = w.dmons.iter().map(|d| d.stats.digests_sent).sum();
    let recv: u64 = w.dmons.iter().map(|d| d.stats.digests_received).sum();
    assert!(sent > 0, "no digests sent — vacuous");
    assert!(recv > 0, "no digests received — vacuous");
    assert!(recv < sent, "the partition destroyed no digests — vacuous");
    assert_audited("hierarchical", &probe);
    let first = probe.fingerprint();
    let second = run_one(cfg, |sim| sim.apply_fault_plan(&plan), 14).fingerprint();
    assert_eq!(first, second, "hierarchical: replay diverged");
}

#[test]
fn resumed_runs_are_bit_identical() {
    // Splitting one run into many run_until calls must not change anything:
    // event order depends only on event times, not on call boundaries.
    let mut sim = ClusterSim::new(ClusterConfig::new(4));
    sim.start();
    for k in 1..=8 {
        sim.run_until(SimTime::from_millis(1500 * k));
    }
    assert_audited("resumed", &sim);
    let once = run_one(|| ClusterConfig::new(4), |_| {}, 12).fingerprint();
    assert_eq!(once, sim.fingerprint(), "chunked run diverged");
}

// ---------- randomized replay ----------

/// A randomly drawn scenario: node count, stagger, topology, pad, and an
/// optional crash/partition fault plan.
#[derive(Debug, Clone)]
struct RandomScenario {
    nodes: usize,
    stagger_us: u64,
    central: bool,
    event_pad: u32,
    /// Rack size for a hierarchical topology (star when `None`; the
    /// central-concentrator ablation always stays a star).
    rack_size: Option<usize>,
    plan: Option<(u64, usize, usize)>,
    secs: u64,
}

fn scenario_strategy() -> impl Strategy<Value = RandomScenario> {
    (
        2usize..7,
        prop_oneof![Just(1u64), Just(300), Just(1000)],
        any::<bool>(),
        prop_oneof![Just(0u32), Just(256)],
        prop_oneof![Just(None), Just(Some(2usize)), Just(Some(3usize))],
        (any::<bool>(), any::<u64>(), 0usize..6, 0usize..6),
        6u64..10,
    )
        .prop_map(
            |(
                nodes,
                stagger_us,
                central,
                event_pad,
                rack_size,
                (with_plan, seed, crash, partner),
                secs,
            )| RandomScenario {
                nodes,
                stagger_us,
                central,
                event_pad,
                rack_size: if central { None } else { rack_size },
                plan: with_plan.then_some((seed, crash, partner)),
                secs,
            },
        )
}

fn run_random(s: &RandomScenario) -> ClusterSim {
    let mut cfg = ClusterConfig::new(s.nodes)
        .stagger(SimDur::from_micros(s.stagger_us))
        .event_pad(s.event_pad);
    if s.central {
        cfg = cfg.topology(Topology::Central(NodeId(0)));
    }
    if let Some(rack_size) = s.rack_size {
        cfg = cfg.racks(rack_size);
    }
    let mut sim = ClusterSim::new(cfg);
    sim.start();
    if let Some((seed, crash, partner)) = s.plan {
        let crash = crash % s.nodes;
        let a = partner % s.nodes;
        let b = (partner + 1) % s.nodes;
        let mut plan = FaultPlan::new(seed)
            .crash_at(SimTime::from_secs(2), NodeId(crash))
            .revive_at(SimTime::from_secs(s.secs - 2), NodeId(crash));
        if a != b {
            plan = plan
                .partition_at(SimTime::from_secs(3), NodeId(a), NodeId(b))
                .heal_at(SimTime::from_secs(4), NodeId(a), NodeId(b));
        }
        sim.apply_fault_plan(&plan);
    }
    sim.run_until(SimTime::from_secs(s.secs));
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn random_scenarios_are_bit_identical(s in scenario_strategy()) {
        let first = run_random(&s);
        assert_audited(&format!("{s:?}"), &first);
        let second = run_random(&s);
        prop_assert_eq!(first.fingerprint(), second.fingerprint(), "scenario {:?} diverged", s);
    }
}
