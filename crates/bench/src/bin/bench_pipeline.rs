//! `bench_pipeline` — end-to-end wall-clock throughput of the simulator's
//! poll→sample→filter→encode→deliver pipeline on the 16-node scalability
//! scenario.
//!
//! Unlike the `fig*` binaries (which report *modeled* costs), this measures
//! the harness itself: how many simulated monitoring events per wall-clock
//! second the pipeline sustains, how many wall-clock nanoseconds one d-mon
//! poll tick costs, and how many heap allocations each delivered event
//! drags along. The numbers land in `BENCH_pipeline.json` so every PR has
//! a perf trajectory.
//!
//! Usage:
//!   bench_pipeline [--quick] [--out PATH] [--check BASELINE.json]
//!
//! `--quick` shortens the measured window (CI smoke). `--check` compares
//! against a previously emitted JSON. It runs every exact gate first —
//! the deterministic counters (memo, overload, compile split, digests),
//! `ClusterSim::audit` on the overload, hier and scale runs, the
//! hierarchy's spine drops, the detlint state, and
//! allocs/event (>15% growth fails) — and only then the noisy wall-clock
//! gate (>25% events/sec drop, best of 3). Every failure is reported
//! together before the single non-zero exit, so a noisy throughput
//! sample never hides real drift.

// The counting allocator is the one place in the workspace that needs
// `unsafe`: wrapping the system allocator behind `GlobalAlloc` to count
// allocations per delivered event.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dproc::cluster::{ClusterConfig, ClusterSim};
use simcore::{SimDur, SimTime};
use simnet::{FaultPlan, LinkSpec, NodeId};

/// System allocator wrapper counting every allocation (not bytes — the
/// metric tracked is allocator round-trips on the hot path).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One measured run of the 16-node scenario.
struct Measurement {
    nodes: usize,
    sim_secs: u64,
    wall_ms: f64,
    events: u64,
    events_per_sec: f64,
    ns_per_poll_tick: f64,
    allocs_per_event: f64,
    sched_events_per_sec: f64,
    /// Filter evaluations that had to bypass the shared memo
    /// (`MemoClass::Bypass`, i.e. impure filters). The standard bench
    /// scenario deploys only parameter rules, so this must stay 0 — any
    /// other value means the memo gate regressed.
    memo_bypassed: u64,
}

fn measure(nodes: usize, warmup_s: u64, measure_s: u64) -> Measurement {
    let mut sim = ClusterSim::new(ClusterConfig::new(nodes));
    sim.start();
    sim.run_until(SimTime::from_secs(warmup_s));

    let events_before = sim.world().mon_delivered;
    let polls_before: u64 = sim.world().dmons.iter().map(|d| d.stats.iterations).sum();
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    let start = Instant::now();
    sim.run_for(SimDur::from_secs(measure_s));
    let wall = start.elapsed();
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;

    let events = sim.world().mon_delivered - events_before;
    let memo_bypassed: u64 = sim
        .world()
        .dmons
        .iter()
        .map(|d| d.stats.memo_bypassed)
        .sum();
    let polls: u64 = sim
        .world()
        .dmons
        .iter()
        .map(|d| d.stats.iterations)
        .sum::<u64>()
        - polls_before;
    let wall_s = wall.as_secs_f64().max(1e-9);
    Measurement {
        nodes,
        sim_secs: measure_s,
        wall_ms: wall_s * 1e3,
        events,
        events_per_sec: events as f64 / wall_s,
        ns_per_poll_tick: wall.as_nanos() as f64 / polls.max(1) as f64,
        allocs_per_event: allocs as f64 / events.max(1) as f64,
        sched_events_per_sec: events as f64 / wall_s,
        memo_bypassed,
    }
}

/// Counters from the scripted overload scenario: a 3-node mesh with
/// megabyte events and a fan-out-tight link queue, one node's links
/// degraded to 10% capacity for 40 simulated seconds, then healed. The
/// counters are pure discrete-event-sim outputs — bit-deterministic on
/// any machine — so `--check` compares them exactly: a change means the
/// backpressure/ladder policy changed, not that the machine was noisy.
struct Overload {
    link_drops: u64,
    events_shed: u64,
    ladder_transitions: u64,
    audit: Vec<String>,
}

fn measure_overload() -> Overload {
    let mut cfg = ClusterConfig::new(3)
        .poll_period(SimDur::from_secs(1))
        .failure_bounds(SimDur::from_secs(3), SimDur::from_secs(8))
        .event_pad(1_500_000);
    cfg.link = LinkSpec::fast_ethernet().with_queue(2, 64 * 1024 * 1024);
    let mut sim = ClusterSim::new(cfg);
    sim.start();
    sim.apply_fault_plan(
        &FaultPlan::new(0x0BAD_10AD)
            .degrade_at(SimTime::from_secs(5), NodeId(2), 0.9)
            .heal_link_at(SimTime::from_secs(45), NodeId(2)),
    );
    sim.run_until(SimTime::from_secs(60));
    let w = sim.world();
    Overload {
        link_drops: w.net.link_drops(),
        events_shed: w.dmons.iter().map(|d| d.stats.events_shed).sum(),
        ladder_transitions: w.dmons.iter().map(|d| d.stats.ladder_transitions).sum(),
        audit: sim.audit(),
    }
}

impl Overload {
    fn json_fields(&self) -> String {
        format!(
            "  \"link_drops\": {},\n  \"events_shed\": {},\n  \"ladder_transitions\": {}",
            self.link_drops, self.events_shed, self.ladder_transitions,
        )
    }
}

/// Certified filter sources for the compilation section: one whose
/// effect certificate proves it subscriber-independent (`Shared` memo
/// class) and one pure passthrough (`SnapshotKeyed`). Both must be
/// accepted by the register compiler — an interpreter fallback here is
/// a compile-coverage regression, not noise.
const SHARED_FILTER: &str = "{ if (input[LOADAVG].value > 0.25) { output[0] = input[LOADAVG]; } }";
const SNAPSHOT_FILTER: &str = "{ output[0] = input[FREEMEM]; }";

/// Counters from a scripted filter-deployment scenario: an 8-node mesh
/// where every stream gets one of two certified E-code filters, so all
/// 56 admissions must hit the register compiler. The counters are pure
/// discrete-event-sim outputs — `--check` compares the compile/fallback
/// split exactly: a nonzero fallback count means the compiler stopped
/// covering a certified shape and the hot path silently fell back to
/// the interpreter.
struct FilterWorkload {
    filters_compiled: u64,
    interp_fallbacks: u64,
    filter_events: u64,
}

fn measure_filter_workload() -> FilterWorkload {
    let mut sim = ClusterSim::new(ClusterConfig::new(8).poll_period(SimDur::from_secs(1)));
    sim.start();
    sim.run_until(SimTime::from_secs(2));
    let calib = sim.world().calib.clone();
    {
        let w = sim.world_mut();
        let n = w.len();
        for p in 0..n {
            for s in 0..n {
                if p != s {
                    let source = if (p + s) % 2 == 0 {
                        SHARED_FILTER
                    } else {
                        SNAPSHOT_FILTER
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
        }
    }
    let before = sim.world().mon_delivered;
    sim.run_until(SimTime::from_secs(32));
    let w = sim.world();
    FilterWorkload {
        filters_compiled: w.dmons.iter().map(|d| d.stats.filters_compiled).sum(),
        interp_fallbacks: w.dmons.iter().map(|d| d.stats.interp_fallbacks).sum(),
        filter_events: w.mon_delivered - before,
    }
}

impl FilterWorkload {
    fn json_fields(&self) -> String {
        format!(
            "  \"filters_compiled\": {},\n  \"interp_fallbacks\": {},\n  \"filter_events\": {}",
            self.filters_compiled, self.interp_fallbacks, self.filter_events,
        )
    }
}

/// Counters from the scripted hierarchical-digest scenario: 12 nodes in
/// three racks of four, so each rack's aggregator folds its members into
/// a per-rack digest and publishes it to the other aggregators over the
/// spine. Every field is a pure discrete-event-sim output — `--check`
/// compares the digest counters exactly: a drift means the aggregation
/// tier's cadence or payload shape changed, and any spine drop at steady
/// state means the digest tier stopped fitting its links.
struct HierDigest {
    digests_sent: u64,
    digests_received: u64,
    digest_records: u64,
    spine_drops: u64,
    staleness_p50_s: f64,
    staleness_p95_s: f64,
    audit: Vec<String>,
}

fn measure_hier_digest() -> HierDigest {
    let cfg = ClusterConfig::new(12)
        .racks(4)
        .poll_period(SimDur::from_secs(1));
    let mut sim = ClusterSim::new(cfg);
    sim.start();
    sim.run_until(SimTime::from_secs(30));
    let w = sim.world();
    let mut staleness = simcore::stats::Sampler::new();
    for d in &w.dmons {
        for &s in d.stats.digest_staleness_s.values() {
            staleness.add(s);
        }
    }
    HierDigest {
        digests_sent: w.dmons.iter().map(|d| d.stats.digests_sent).sum(),
        digests_received: w.dmons.iter().map(|d| d.stats.digests_received).sum(),
        digest_records: w.dmons.iter().map(|d| d.stats.digest_records).sum(),
        spine_drops: w.net.spine_drops(),
        staleness_p50_s: staleness.percentile(50.0),
        staleness_p95_s: staleness.percentile(95.0),
        audit: sim.audit(),
    }
}

impl HierDigest {
    fn json_fields(&self) -> String {
        format!(
            "  \"hier_digests_sent\": {},\n  \"hier_digests_received\": {},\n  \"hier_digest_records\": {},\n  \"hier_spine_drops\": {},\n  \"hier_staleness_p50_s\": {:.6},\n  \"hier_staleness_p95_s\": {:.6}",
            self.digests_sent,
            self.digests_received,
            self.digest_records,
            self.spine_drops,
            self.staleness_p50_s,
            self.staleness_p95_s,
        )
    }
}

/// The large hierarchical scenario: the full run drives 4096 nodes in 64
/// racks of 64 through the whole pipeline; `--quick` drops to 1024 nodes
/// in 32 racks (the CI scale smoke). Rack-scoped channels keep per-node
/// fan-out at rack size, so the event volume grows linearly with the
/// cluster — the run both proves the topology completes at scale and
/// checks that the hierarchy is honest: zero spine drops at steady
/// state, and a clean `ClusterSim::audit` (every link's lifetime
/// throughput below its configured rate, queues within their caps).
struct ScaleRun {
    nodes: usize,
    racks: usize,
    sim_secs: u64,
    wall_ms: f64,
    events: u64,
    digests_received: u64,
    spine_drops: u64,
    staleness_p50_s: f64,
    staleness_p95_s: f64,
    staleness_max_s: f64,
    max_link_mbps: f64,
    /// Peak per-link utilization (lifetime payload bits over elapsed sim
    /// time, against the link's configured rate). Must stay ≤ 1.
    max_link_util: f64,
    /// Per-peer state slots summed over every d-mon — the monitor's
    /// memory footprint in peers. Each node holds slots only for the
    /// peers it has talked to, so this grows with nodes × rack size;
    /// cluster-sized per-peer state would make it nodes².
    peer_slots: usize,
    audit: Vec<String>,
}

fn measure_scale(nodes: usize, rack_size: usize, sim_secs: u64) -> ScaleRun {
    let cfg = ClusterConfig::new(nodes).racks(rack_size);
    let mut sim = ClusterSim::new(cfg);
    sim.start();
    let start = Instant::now();
    sim.run_until(SimTime::from_secs(sim_secs));
    let wall = start.elapsed();
    let w = sim.world();
    let (max_bps, max_util) = w.net.peak_link_rate(SimDur::from_secs(sim_secs));
    let mut staleness = simcore::stats::Sampler::new();
    for d in &w.dmons {
        for &s in d.stats.digest_staleness_s.values() {
            staleness.add(s);
        }
    }
    ScaleRun {
        nodes,
        racks: w.net.n_racks(),
        sim_secs,
        wall_ms: wall.as_secs_f64() * 1e3,
        events: w.mon_delivered,
        digests_received: w.dmons.iter().map(|d| d.stats.digests_received).sum(),
        spine_drops: w.net.spine_drops(),
        staleness_p50_s: staleness.percentile(50.0),
        staleness_p95_s: staleness.percentile(95.0),
        staleness_max_s: staleness.max(),
        max_link_mbps: max_bps / 1e6,
        max_link_util: max_util,
        peer_slots: w.dmons.iter().map(|d| d.peer_slots()).sum(),
        audit: sim.audit(),
    }
}

impl ScaleRun {
    fn json_fields(&self) -> String {
        format!(
            "  \"scale_nodes\": {},\n  \"scale_racks\": {},\n  \"scale_sim_secs\": {},\n  \"scale_wall_ms\": {:.3},\n  \"scale_events\": {},\n  \"scale_digests_received\": {},\n  \"scale_spine_drops\": {},\n  \"scale_staleness_p50_s\": {:.6},\n  \"scale_staleness_p95_s\": {:.6},\n  \"scale_staleness_max_s\": {:.6},\n  \"scale_max_link_mbps\": {:.3},\n  \"scale_max_link_util\": {:.6},\n  \"scale_peer_slots\": {}",
            self.nodes,
            self.racks,
            self.sim_secs,
            self.wall_ms,
            self.events,
            self.digests_received,
            self.spine_drops,
            self.staleness_p50_s,
            self.staleness_p95_s,
            self.staleness_max_s,
            self.max_link_mbps,
            self.max_link_util,
            self.peer_slots,
        )
    }
}

impl Measurement {
    fn json_fields(&self) -> String {
        format!(
            "  \"scenario\": \"scalability{}\",\n  \"sim_secs\": {},\n  \"wall_ms\": {:.3},\n  \"events\": {},\n  \"events_per_sec\": {:.1},\n  \"ns_per_poll_tick\": {:.1},\n  \"allocs_per_event\": {:.2},\n  \"sched_events_per_sec\": {:.1},\n  \"memo_bypassed\": {}",
            self.nodes,
            self.sim_secs,
            self.wall_ms,
            self.events,
            self.events_per_sec,
            self.ns_per_poll_tick,
            self.allocs_per_event,
            self.sched_events_per_sec,
            self.memo_bypassed,
        )
    }
}

/// Pull a numeric field out of a previously emitted `BENCH_pipeline.json`
/// (flat object, one `"key": value` pair per line — no JSON dependency).
fn json_field(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    for line in text.lines() {
        if let Some(rest) = line.trim().strip_prefix(&needle) {
            let v = rest.trim_start_matches(':').trim().trim_end_matches(',');
            if let Ok(v) = v.parse::<f64>() {
                return Some(v);
            }
        }
    }
    None
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let arg_val = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = arg_val("--out").unwrap_or_else(|| "BENCH_pipeline.json".to_string());
    let baseline = arg_val("--check");

    let (warmup_s, measure_s) = if quick { (3, 10) } else { (5, 30) };
    let m = measure(16, warmup_s, measure_s);

    // The overload section: deterministic robustness counters from a
    // scripted congestion scenario, so the perf trajectory also tracks
    // the backpressure policy.
    let overload = measure_overload();
    eprintln!(
        "bench_pipeline: overload: {} link drops, {} shed, {} ladder transitions",
        overload.link_drops, overload.events_shed, overload.ladder_transitions
    );

    // The filter-compilation section: every admission in the scripted
    // filter mesh must land on the register compiler; the compiled vs
    // interpreter-fallback split travels with the perf numbers.
    let fw = measure_filter_workload();
    eprintln!(
        "bench_pipeline: filters: {} compiled, {} interpreter fallbacks, {} events",
        fw.filters_compiled, fw.interp_fallbacks, fw.filter_events
    );

    // The hierarchical-digest section: deterministic aggregation-tier
    // counters from a scripted 3-rack scenario.
    let hier = measure_hier_digest();
    eprintln!(
        "bench_pipeline: hier: {} digests sent, {} received, {} records, {} spine drops",
        hier.digests_sent, hier.digests_received, hier.digest_records, hier.spine_drops
    );

    // The scale section: the full hierarchical cluster end to end — 4096
    // nodes (1024 in quick mode, the CI scale smoke).
    let (scale_nodes, rack_size, scale_secs) = if quick { (1024, 32, 6) } else { (4096, 64, 8) };
    let scale = measure_scale(scale_nodes, rack_size, scale_secs);
    eprintln!(
        "bench_pipeline: scale: {} nodes / {} racks, {} sim-s in {:.0} ms, {} events, {} digests, staleness p95 {:.3} s, max link util {:.3}",
        scale.nodes,
        scale.racks,
        scale.sim_secs,
        scale.wall_ms,
        scale.events,
        scale.digests_received,
        scale.staleness_p95_s,
        scale.max_link_util,
    );

    // Record the replay-safety lint state alongside the perf numbers:
    // how many findings the workspace scan produced (fresh + baselined).
    // The committed tree keeps this at 0; the count travels with every
    // bench artifact so a perf trajectory is also a lint trajectory.
    let detlint = detlint_summary();

    let mut sections = vec![m.json_fields()];
    if let Some((fresh_errors, total)) = detlint {
        sections.push(format!("  \"detlint_findings\": {total}"));
        if fresh_errors > 0 {
            eprintln!("bench_pipeline: WARNING {fresh_errors} unbaselined detlint error(s)");
        }
    }
    sections.push(overload.json_fields());
    sections.push(fw.json_fields());
    sections.push(hier.json_fields());
    sections.push(scale.json_fields());
    let json = format!("{{\n{}\n}}\n", sections.join(",\n"));
    print!("{json}");
    std::fs::write(&out_path, &json).expect("write BENCH_pipeline.json");
    eprintln!(
        "bench_pipeline: {} sim-s of 16 nodes in {:.0} ms -> {} written",
        m.sim_secs, m.wall_ms, out_path
    );

    let Some(base_path) = baseline else {
        return;
    };
    let base = std::fs::read_to_string(&base_path)
        .unwrap_or_else(|e| panic!("read baseline {base_path}: {e}"));
    let mut failures = Vec::new();

    // Exact gates first. Every counter below is a bit-deterministic sim
    // output, so a mismatch against the baseline means behavior changed
    // without the baseline being regenerated alongside it — never noise.
    // - memo_bypassed: the bench scenario deploys only parameter rules,
    //   so any bypass means the memo gate misclassifies filters;
    // - overload counters: the backpressure or ladder policy changed;
    // - compile split: every certified filter in the scripted mesh must
    //   compile, and a fallback means the register compiler lost
    //   coverage of a certified shape;
    // - digest counters: the aggregation tier's cadence or payload shape
    //   changed;
    // - scale_peer_slots: d-mon's per-peer footprint in the scale run
    //   (gated only when the baseline ran the same cluster size).
    let scale_slots = (json_field(&base, "scale_nodes") == Some(scale.nodes as f64)).then_some((
        "scale_peer_slots",
        scale.peer_slots as u64,
        "PEER FOOTPRINT DRIFT",
    ));
    for (key, got, what) in [
        ("memo_bypassed", m.memo_bypassed, "MEMO GATE REGRESSION"),
        ("link_drops", overload.link_drops, "OVERLOAD POLICY DRIFT"),
        ("events_shed", overload.events_shed, "OVERLOAD POLICY DRIFT"),
        (
            "ladder_transitions",
            overload.ladder_transitions,
            "OVERLOAD POLICY DRIFT",
        ),
        (
            "filters_compiled",
            fw.filters_compiled,
            "FILTER COMPILE DRIFT",
        ),
        (
            "interp_fallbacks",
            fw.interp_fallbacks,
            "FILTER COMPILE DRIFT",
        ),
        ("hier_digests_sent", hier.digests_sent, "DIGEST DRIFT"),
        (
            "hier_digests_received",
            hier.digests_received,
            "DIGEST DRIFT",
        ),
        ("hier_digest_records", hier.digest_records, "DIGEST DRIFT"),
    ]
    .into_iter()
    .chain(scale_slots)
    {
        if let Some(base_v) = json_field(&base, key) {
            eprintln!("bench_pipeline: {key} {got} vs baseline {base_v:.0}");
            #[allow(clippy::float_cmp)] // integer-valued counters, exact by design
            if got as f64 != base_v {
                failures.push(format!("{what}: {key} {got} vs baseline {base_v:.0}"));
            }
        }
    }
    // Invariants independent of any baseline: every cluster run passes
    // the simulator's own audit (queues and outboxes within their caps,
    // no link above its configured rate), and the digest tier fits its
    // spine links (no drops at steady state, in either scripted scenario
    // or the scale run).
    for (run, audit) in [
        ("overload", &overload.audit),
        ("hier", &hier.audit),
        ("scale", &scale.audit),
    ] {
        failures.extend(audit.iter().map(|v| format!("AUDIT ({run}): {v}")));
    }
    if hier.spine_drops != 0 || scale.spine_drops != 0 {
        failures.push(format!(
            "SPINE DROPS at steady state (hier {}, scale {})",
            hier.spine_drops, scale.spine_drops
        ));
    }
    if scale.digests_received == 0 {
        failures.push("SCALE RUN VACUOUS (no digests delivered)".to_string());
    }
    // New unbaselined lint errors fail the run.
    if let Some((fresh_errors, _)) = detlint {
        if fresh_errors > 0 {
            failures.push(format!("DETLINT ERRORS present ({fresh_errors})"));
        }
    }
    // Allocations per delivered event are deterministic up to rounding:
    // more than 15% growth means a new allocation crept onto the hot
    // path.
    if let Some(base_allocs) = json_field(&base, "allocs_per_event") {
        eprintln!(
            "bench_pipeline: allocs/event {:.2} vs baseline {:.2}",
            m.allocs_per_event, base_allocs
        );
        if m.allocs_per_event > base_allocs * 1.15 {
            failures.push(format!(
                "ALLOCATION REGRESSION beyond 15% budget ({:.2} vs {:.2})",
                m.allocs_per_event, base_allocs
            ));
        }
    }

    // The wall-clock gate last, so its noise never hides the exact
    // gates above. Allow a wide band: machines vary, but a >25% drop
    // against the checked-in baseline flags a hot-path regression. A
    // slow first sample alone is not a verdict — cold caches and
    // frequency scaling produce 2x outliers — so a regression must
    // survive two re-measurements (best-of-3) before it fails the job.
    let base_eps = json_field(&base, "events_per_sec").expect("baseline events_per_sec");
    let mut best = m.events_per_sec;
    for _ in 0..2 {
        if best / base_eps >= 0.75 {
            break;
        }
        let retry = measure(16, warmup_s, measure_s);
        eprintln!(
            "bench_pipeline: retry measured {:.0} events/sec",
            retry.events_per_sec
        );
        best = best.max(retry.events_per_sec);
    }
    let ratio = best / base_eps;
    eprintln!(
        "bench_pipeline: events/sec {:.0} vs baseline {:.0} ({:.2}x)",
        best, base_eps, ratio
    );
    if ratio < 0.75 {
        failures.push(format!(
            "THROUGHPUT REGRESSION beyond 25% budget ({ratio:.2}x of baseline)"
        ));
    }

    if !failures.is_empty() {
        eprintln!("bench_pipeline: {} gate(s) failed:", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}

/// Run the workspace replay-safety scan (same engine as
/// `cargo run -p detlint -- --check`). Returns `(fresh_errors, total
/// findings incl. baselined)`, or `None` when no workspace root is
/// reachable from the current directory (e.g. an installed binary).
fn detlint_summary() -> Option<(u64, u64)> {
    let root = detlint::workspace_root()?;
    let baseline_text = std::fs::read_to_string(root.join("detlint.baseline")).unwrap_or_default();
    let baseline = detlint::Baseline::parse(&baseline_text);
    let report = detlint::run_scan(&root, &baseline).ok()?;
    Some((
        report.fresh_errors() as u64,
        (report.fresh.len() + report.baselined.len()) as u64,
    ))
}
