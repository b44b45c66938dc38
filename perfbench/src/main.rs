//! One measured run of one benchmark workload, in a process of its own.
//!
//! ```text
//! dproc-perfbench --workload <name> --seed <n> [--trace]
//! dproc-perfbench --reference
//! ```
//!
//! Builds the workload (the timed set-up), runs its measured window of
//! fixed simulated length, reads `/proc/cluster` through a reader probe
//! at seeded instants between chunks of the window (probe time is not
//! part of the window), then checks the run's outputs and prints one
//! JSON object on stdout:
//!
//! * `checks`: names of the failed correctness checks (empty when all pass);
//! * `det`: deterministic counters and modeled metrics — identical for
//!   every run of one seed, traced or not;
//! * `wall`: host measurements: wall-clock time, and the CPU time the
//!   process ran (`clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`). On a shared
//!   virtual machine the kernel leaves the time the hypervisor gave the
//!   CPU to other guests (steal) out of CPU time, so CPU time measures the
//!   program's work where wall time also measures its neighbours.
//!
//! `dproc-perfbench --reference` instead runs the fixed [`reference`]
//! workload that gauges the host's speed and prints its time.
//!
//! With `--trace` the window is stepped one dispatch at a time and each
//! dispatch's wall time is charged to the class of work it did, judged by
//! which public counter it moved. The traced run also times isolated
//! layer calls (network sends, filter admission) after the window.

// The counting allocator wraps the system allocator behind `GlobalAlloc`,
// and CPU time is read through libc's `clock_gettime`.
#![allow(unsafe_code)]

mod reference;
mod workloads;

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dproc::cluster::{ClusterSim, ClusterWorld};
use simcore::SimTime;
use simnet::{Network, NodeId, TrafficClass};

use workloads::{Rng, Workload, METRIC_FILES};

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

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has run so far.
fn cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Wall-clock and CPU time of a stretch of work.
#[derive(Clone, Copy, Default)]
struct Spent {
    wall: Duration,
    cpu: Duration,
}

impl std::ops::AddAssign for Spent {
    fn add_assign(&mut self, o: Spent) {
        self.wall += o.wall;
        self.cpu += o.cpu;
    }
}

/// Start timing a stretch of work; `finish` gives what it spent.
struct Timer(Instant, Duration);

impl Timer {
    fn start() -> Timer {
        Timer(Instant::now(), cpu_time())
    }
    fn finish(self) -> Spent {
        Spent {
            wall: self.0.elapsed(),
            cpu: cpu_time() - self.1,
        }
    }
}

/// Set by the stop action scheduled at the end of each chunk.
static STOP: AtomicBool = AtomicBool::new(false);

/// Dispatch classes of the traced run, by the counter a dispatch moved.
const CLASSES: [&str; 4] = ["poll", "deliver_mon", "deliver_ctl", "other"];

#[derive(Default)]
struct Trace {
    ns: [u128; 4],
    dispatches: [u64; 4],
    pending_hwm: usize,
}

/// Lifetime counters summed over the cluster.
#[derive(Clone, Copy, Default)]
struct Counters {
    mon_delivered: u64,
    ctl_delivered: u64,
    sends: u64,
    payload_bytes: u64,
    executed: u64,
    iterations: u64,
    events_sent: u64,
    bytes_sent: u64,
    events_shed: u64,
    events_received: u64,
    heartbeats_sent: u64,
    heartbeats_received: u64,
    digests_sent: u64,
    digests_received: u64,
    digest_records: u64,
    modules_skipped: u64,
    memo_bypassed: u64,
    credits_stalled: u64,
    ladder_transitions: u64,
    gaps_detected: u64,
    nodes_evicted: u64,
    resyncs: u64,
    control_handled: u64,
    control_errors: u64,
    filter_errors: u64,
    filters_rejected: u64,
    filters_compiled: u64,
    interp_fallbacks: u64,
    link_drops: u64,
    spine_drops: u64,
    events_lost: u64,
    crash_drops: u64,
}

fn counters(sim: &mut ClusterSim) -> Counters {
    let executed = sim.parts().1.executed();
    let w = sim.world();
    let mut c = Counters {
        mon_delivered: w.mon_delivered,
        ctl_delivered: w.ctl_delivered,
        sends: w.net.deliveries(),
        payload_bytes: w.net.payload_bytes(),
        executed,
        link_drops: w.net.link_drops(),
        spine_drops: w.net.spine_drops(),
        events_lost: w.fault.stats.events_lost,
        crash_drops: w.fault.stats.crash_drops,
        ..Counters::default()
    };
    for d in &w.dmons {
        let s = &d.stats;
        c.iterations += s.iterations;
        c.events_sent += s.events_sent;
        c.bytes_sent += s.bytes_sent;
        c.events_shed += s.events_shed;
        c.events_received += s.events_received;
        c.heartbeats_sent += s.heartbeats_sent;
        c.heartbeats_received += s.heartbeats_received;
        c.digests_sent += s.digests_sent;
        c.digests_received += s.digests_received;
        c.digest_records += s.digest_records;
        c.modules_skipped += s.modules_skipped;
        c.memo_bypassed += s.memo_bypassed;
        c.credits_stalled += s.credits_stalled;
        c.ladder_transitions += s.ladder_transitions;
        c.gaps_detected += s.gaps_detected;
        c.nodes_evicted += s.nodes_evicted;
        c.resyncs += s.resyncs;
        c.control_handled += s.control_handled;
        c.control_errors += s.control_errors;
        c.filter_errors += s.filter_errors;
        c.filters_rejected += s.filters_rejected;
        c.filters_compiled += s.filters_compiled;
        c.interp_fallbacks += s.interp_fallbacks;
    }
    c
}

/// Lengths of the lifetime samplers at the window start, so the window's
/// samples are the tail of each.
struct SamplerMarks {
    latency: usize,
    submit: Vec<usize>,
    receive: Vec<usize>,
    digest: Vec<usize>,
}

fn sampler_marks(w: &ClusterWorld) -> SamplerMarks {
    SamplerMarks {
        latency: w.mon_latency_us.len(),
        submit: w
            .dmons
            .iter()
            .map(|d| d.stats.submit_cost_us.len())
            .collect(),
        receive: w
            .dmons
            .iter()
            .map(|d| d.stats.receive_cost_us.len())
            .collect(),
        digest: w
            .dmons
            .iter()
            .map(|d| d.stats.digest_staleness_s.len())
            .collect(),
    }
}

/// Nearest-rank percentile of a sorted slice (0 when empty).
fn pct(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Resident set size from the kernel's view of this process.
fn rss_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run the world to `until`. Both modes schedule the same stop action, so
/// the traced and untraced runs see the same event sequence.
fn run_chunk(sim: &mut ClusterSim, until: SimTime, trace: Option<&mut Trace>) -> Spent {
    STOP.store(false, Ordering::Relaxed);
    sim.at(until, |_, _| STOP.store(true, Ordering::Relaxed));
    let timer = Timer::start();
    let Some(tr) = trace else {
        sim.run_until(until);
        return timer.finish();
    };
    let (w, s) = sim.parts();
    loop {
        let (mon, ctl, sends) = (w.mon_delivered, w.ctl_delivered, w.net.deliveries());
        let t0 = Instant::now();
        let ran = s.run_to_completion(w, 1);
        let t1 = Instant::now();
        if ran == 0 || STOP.load(Ordering::Relaxed) {
            break;
        }
        let class = if w.mon_delivered != mon {
            1
        } else if w.ctl_delivered != ctl {
            2
        } else if w.net.deliveries() != sends {
            0
        } else {
            3
        };
        tr.ns[class] += (t1 - t0).as_nanos();
        tr.dispatches[class] += 1;
        tr.pending_hwm = tr.pending_hwm.max(s.pending());
    }
    timer.finish()
}

/// What the reader probe saw over the window.
#[derive(Default)]
struct Probe {
    ages_ms: Vec<f64>,
    peers_read: u64,
    peers_missing: u64,
    reads: u64,
    read_ns: u128,
    entries: u64,
    conns: u64,
}

/// Read every expected peer's metric files on every reader; the age of a
/// peer is `now - ts` of its newest entry.
fn probe(sim: &ClusterSim, readers: &[(usize, Vec<usize>)], out: &mut Probe) {
    let w = sim.world();
    let now = sim.now().as_secs_f64();
    for (reader, peers) in readers {
        let proc = &w.hosts[*reader].proc;
        for &peer in peers {
            let name = &w.hosts[peer].name;
            let mut newest: Option<f64> = None;
            for file in METRIC_FILES {
                let path = format!("cluster/{name}/{file}");
                let t0 = Instant::now();
                let text = proc.read(&path);
                out.read_ns += t0.elapsed().as_nanos();
                out.reads += 1;
                let ts = text
                    .ok()
                    .and_then(|t| t.rsplit_once(" ts "))
                    .and_then(|(_, ts)| ts.trim().parse::<f64>().ok());
                if let Some(ts) = ts {
                    newest = Some(newest.map_or(ts, |n: f64| n.max(ts)));
                }
            }
            out.peers_read += 1;
            match newest {
                Some(ts) => out.ages_ms.push((now - ts) * 1e3),
                None => out.peers_missing += 1,
            }
        }
    }
}

/// `/proc` entries under `cluster/` and tracked connections, summed over
/// the readers.
fn census(sim: &ClusterSim, readers: &[(usize, Vec<usize>)], out: &mut Probe) {
    let w = sim.world();
    for (reader, _) in readers {
        let host = &w.hosts[*reader];
        for dir in host.proc.list("cluster").unwrap_or_default() {
            let path = format!("cluster/{dir}");
            out.entries += host.proc.list(&path).map_or(1, |v| v.len() as u64);
        }
        out.conns += host.conns.len() as u64;
    }
}

/// Time `Network::send_class` on a fresh network of the workload's
/// placement, replaying its fan-out: every node sends one message of the
/// workload's mean payload to each of its rack-mates, round after round.
fn time_sends(wl: &Workload, bytes: usize) -> f64 {
    let w = wl.sim.world();
    let placement = w.placement.clone();
    let n = placement.len();
    let spec = *w.net.spec();
    let mut net = if placement.is_star() {
        Network::new(n, spec)
    } else {
        Network::hierarchical(&placement, spec, wl.switch_link)
    };
    let per_round: usize = placement.racks().map(|r| r.range().len().pow(2)).sum();
    let rounds = (300_000 / per_round.max(1)).max(1);
    let start = Instant::now();
    let mut sends = 0u64;
    for round in 0..rounds {
        for rack in placement.racks() {
            for i in rack.range() {
                let now = SimTime::from_secs(round as u64 + 1) + wl.stagger * (i as u64);
                for j in rack.range().filter(|&j| j != i) {
                    let d = net.send_class(now, NodeId(i), NodeId(j), bytes, TrafficClass::Bulk);
                    std::hint::black_box(d.deliver_at);
                    sends += 1;
                }
            }
        }
    }
    start.elapsed().as_nanos() as f64 / sends.max(1) as f64
}

/// Time filter admission as d-mon does it: compile (which certifies),
/// check the certificate, specialize into a register closure.
fn time_admission(wl: &Workload) -> f64 {
    if wl.sources.is_empty() {
        return 0.0;
    }
    let env = wl.sim.world().dmons[0].env().clone();
    let rounds = 400;
    let start = Instant::now();
    for _ in 0..rounds {
        for src in &wl.sources {
            let f = ecode::Filter::compile(src, &env).expect("benchmark filter compiles");
            assert!(f.admission_error().is_none(), "benchmark filter admitted");
            std::hint::black_box(ecode::compile_filter(&f));
        }
    }
    start.elapsed().as_nanos() as f64 / (rounds * wl.sources.len()) as f64
}

struct Json(String);

impl Json {
    fn new() -> Self {
        Json(String::new())
    }
    fn num(&mut self, key: &str, v: f64) {
        let sep = if self.0.is_empty() { "" } else { ", " };
        // `{:?}` prints the shortest string that reads back to the same f64.
        let _ = write!(self.0, "{sep}\"{key}\": {v:?}");
    }
    fn int(&mut self, key: &str, v: u64) {
        let sep = if self.0.is_empty() { "" } else { ", " };
        let _ = write!(self.0, "{sep}\"{key}\": {v}");
    }
    fn object(&self) -> String {
        format!("{{{}}}", self.0)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let arg = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let name = arg("--workload").unwrap_or_default();
    let seed: u64 = arg("--seed").and_then(|s| s.parse().ok()).unwrap_or(1);
    let traced = args.iter().any(|a| a == "--trace");
    if args.iter().any(|a| a == "--reference") {
        let round = reference::round_time(cpu_time);
        println!("{{\"reference_ms\": {}}}", round.as_secs_f64() * 1e3);
        return;
    }

    // ---- set-up: build, customize, run past the boot ramp ----
    let setup_timer = Timer::start();
    let mut wl = match workloads::build(&name, seed) {
        Ok(wl) => wl,
        Err(e) => {
            eprintln!("dproc-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let setup = setup_timer.finish();
    let rss_after_setup = rss_mb("VmRSS:");
    let mut failed: Vec<&str> = Vec::new();

    let start_c = counters(&mut wl.sim);
    if name == "star64_filtered" && start_c.filters_compiled + start_c.interp_fallbacks != wl.writes
    {
        failed.push("admission_before_window");
    }

    // ---- the measured window ----
    let marks = sampler_marks(wl.sim.world());
    let mut trace = traced.then(Trace::default);
    let mut probe_out = Probe::default();
    let phase0 = Rng::new(seed, 7).next() % 1_000_000_000;
    let mut spent = Spent::default();
    let mut allocs = 0u64;
    let end = wl.window_start + simcore::SimDur::from_secs(wl.window_secs);
    // About 240 probes per window, at phases of the poll round spread
    // evenly by the golden-ratio sequence from a seeded start.
    let per_sec = 240u64.div_ceil(wl.window_secs);
    let mut k = 0u64;
    for sec in 0..wl.window_secs {
        let second = wl.window_start + simcore::SimDur::from_secs(sec);
        let mut stops: Vec<SimTime> = (0..per_sec)
            .map(|_| {
                k += 1;
                let offset_ns = (phase0 + k * 618_033_989) % 999_998_000 + 1_001;
                second + simcore::SimDur::from_nanos(offset_ns)
            })
            .collect();
        stops.sort_unstable();
        stops.push(second + simcore::SimDur::from_secs(1));
        for (i, &stop) in stops.iter().enumerate() {
            let a0 = ALLOCS.load(Ordering::Relaxed);
            spent += run_chunk(&mut wl.sim, stop, trace.as_mut());
            allocs += ALLOCS.load(Ordering::Relaxed) - a0;
            if i + 1 < stops.len() {
                probe(&wl.sim, &wl.readers, &mut probe_out);
            }
        }
    }
    debug_assert_eq!(wl.sim.now(), end);
    census(&wl.sim, &wl.readers, &mut probe_out);
    let end_c = counters(&mut wl.sim);

    // ---- modeled metrics over the window ----
    let w = wl.sim.world();
    let n = w.len();
    let latency = sorted(w.mon_latency_us.values()[marks.latency..].to_vec());
    let cost_us: f64 = w
        .dmons
        .iter()
        .enumerate()
        .map(|(i, d)| {
            d.stats.submit_cost_us.values()[marks.submit[i]..]
                .iter()
                .chain(&d.stats.receive_cost_us.values()[marks.receive[i]..])
                .sum::<f64>()
        })
        .sum();
    let monitor_cpu_pct = 100.0 * cost_us / (n as f64 * wl.window_secs as f64 * 1e6);
    let digest_ages = sorted(
        w.dmons
            .iter()
            .enumerate()
            .flat_map(|(i, d)| d.stats.digest_staleness_s.values()[marks.digest[i]..].to_vec())
            .map(|s| s * 1e3)
            .collect(),
    );
    let ages = sorted(std::mem::take(&mut probe_out.ages_ms));
    let attempted_events = end_c.events_sent + end_c.events_shed;
    let delivered_share = end_c.mon_delivered as f64 / attempted_events.max(1) as f64;

    // ---- deterministic and timed extras of the traced run ----
    let d_mon = end_c.mon_delivered - start_c.mon_delivered;
    let d_sends = end_c.sends - start_c.sends;
    let mean_bytes = (end_c.payload_bytes - start_c.payload_bytes) as f64 / d_sends.max(1) as f64;
    let (send_ns, admit_ns) = if traced {
        (
            time_sends(&wl, mean_bytes.round() as usize),
            time_admission(&wl),
        )
    } else {
        (0.0, 0.0)
    };

    // ---- drain: stop every node, let in-flight work land ----
    // Nothing may be in flight at the window's quiet end: the stop turns
    // any message still travelling into a crash drop.
    {
        let w = wl.sim.world_mut();
        for i in 0..n {
            w.kill_node(NodeId(i));
        }
        let (w, s) = wl.sim.parts();
        s.run_to_completion(w, u64::MAX);
        if s.pending() != 0 {
            failed.push("drain");
        }
    }
    let drained = counters(&mut wl.sim);
    if drained.crash_drops != end_c.crash_drops {
        failed.push("quiet_window_end");
    }
    // Every message the fabric accepted was received, tail-dropped or
    // destroyed by a fault.
    let received = drained.mon_delivered
        + drained.ctl_delivered
        + drained.heartbeats_received
        + drained.digests_received;
    if drained.sends != received + drained.link_drops + drained.events_lost {
        failed.push("conservation_messages");
    }
    // Monitoring events: sent = delivered + lost on the wire, where the
    // wire losses are part of all drops.
    let mon_lost = end_c.events_sent.checked_sub(end_c.mon_delivered);
    match mon_lost {
        Some(lost) if lost <= end_c.link_drops + end_c.events_lost => {}
        _ => failed.push("conservation_events"),
    }
    if end_c.link_drops + end_c.events_lost == 0 && mon_lost != Some(0) {
        failed.push("conservation_events");
    }
    if end_c.events_received != end_c.mon_delivered {
        failed.push("received_equals_delivered");
    }
    if end_c.interp_fallbacks != 0 {
        failed.push("interp_fallbacks");
    }
    if end_c.control_errors + end_c.filter_errors + end_c.filters_rejected != 0 {
        failed.push("control_writes_admitted");
    }
    if probe_out.peers_missing != 0 {
        failed.push("probe_sees_every_peer");
    }
    if d_mon == 0 || ages.is_empty() {
        failed.push("window_not_vacuous");
    }
    match name.as_str() {
        "racks2048" | "churn_racks" if end_c.digests_received == start_c.digests_received => {
            failed.push("digests_flow");
        }
        "churn_racks" if attempted_events == end_c.mon_delivered => {
            failed.push("faults_lose_events");
        }
        _ => {}
    }

    // ---- report ----
    let d = |f: fn(&Counters) -> u64| f(&end_c) - f(&start_c);
    let per_event = |x: f64| x / d_mon.max(1) as f64;
    let mut det = Json::new();
    det.num("proc_age_p50_ms", pct(&ages, 50.0));
    det.num("proc_age_p99_ms", pct(&ages, 99.0));
    det.int("proc_age_samples", ages.len() as u64);
    det.num("mon_latency_p50_us", pct(&latency, 50.0));
    det.num("mon_latency_p99_us", pct(&latency, 99.0));
    det.num("monitor_cpu_pct", monitor_cpu_pct);
    det.num("delivered_share", delivered_share);
    det.int("attempted_events", attempted_events);
    det.int("delivered_events", end_c.mon_delivered);
    det.int("window_events", d_mon);
    det.int("probe_reads", probe_out.peers_read);
    det.int("probe_missing", probe_out.peers_missing);
    det.int("control_writes", wl.writes);
    det.int(
        "failed_writes",
        end_c.control_errors + end_c.filter_errors + end_c.filters_rejected,
    );
    det.num(
        "simcore.dispatches_per_event",
        per_event(d(|c| c.executed) as f64),
    );
    det.num("simnet.sends_per_event", per_event(d_sends as f64));
    det.num(
        "simnet.payload_bytes_per_event",
        per_event(d(|c| c.payload_bytes) as f64),
    );
    det.int("simnet.link_drops", end_c.link_drops);
    det.int("simnet.spine_drops", end_c.spine_drops);
    det.int(
        "simnet.queue_hwm_msgs",
        wl.sim.world().net.queue_hwm().0 as u64,
    );
    det.int("simnet.fault_drops", end_c.events_lost);
    det.num(
        "dmon.events_per_poll",
        d(|c| c.events_sent) as f64 / d(|c| c.iterations).max(1) as f64,
    );
    for (key, v) in [
        ("dmon.heartbeats_sent", d(|c| c.heartbeats_sent)),
        ("dmon.modules_skipped", d(|c| c.modules_skipped)),
        ("dmon.memo_bypassed", d(|c| c.memo_bypassed)),
        ("dmon.events_shed", d(|c| c.events_shed)),
        ("dmon.credits_stalled", d(|c| c.credits_stalled)),
        ("dmon.ladder_transitions", d(|c| c.ladder_transitions)),
        ("dmon.gaps_detected", d(|c| c.gaps_detected)),
        ("dmon.nodes_evicted", d(|c| c.nodes_evicted)),
        ("dmon.resyncs", d(|c| c.resyncs)),
        ("dmon.digests_sent", d(|c| c.digests_sent)),
        ("dmon.digest_records", d(|c| c.digest_records)),
        ("dmon.control_handled", d(|c| c.control_handled)),
        ("dmon.control_errors", end_c.control_errors),
        ("ecode.filters_compiled", end_c.filters_compiled),
        ("ecode.interp_fallbacks", end_c.interp_fallbacks),
        ("simos.procfs_entries", probe_out.entries),
        ("simos.conn_entries", probe_out.conns),
    ] {
        det.int(key, v);
    }
    det.num("dmon.digest_age_p99_ms", pct(&digest_ages, 99.0));
    det.num(
        "kecho.wire_bytes_per_event",
        d(|c| c.bytes_sent) as f64 / d(|c| c.events_sent).max(1) as f64,
    );
    if let Some(tr) = &trace {
        det.int("simcore.pending_hwm", tr.pending_hwm as u64);
        for (i, class) in CLASSES.iter().enumerate() {
            det.int(&format!("cluster.{class}_dispatches"), tr.dispatches[i]);
        }
    }

    let wall_ns = spent.wall.as_nanos() as f64;
    let cpu_ns = spent.cpu.as_nanos() as f64;
    let mut timing = Json::new();
    timing.num("setup_cpu_s", setup.cpu.as_secs_f64());
    timing.num("setup_wall_s", setup.wall.as_secs_f64());
    timing.num("window_wall_s", wall_ns / 1e9);
    timing.num("cpu_ns_per_event", per_event(cpu_ns));
    timing.num("wall_ns_per_event", per_event(wall_ns));
    timing.num("cpu_share_pct", 100.0 * cpu_ns / wall_ns.max(1.0));
    timing.num("dmon.rss_after_setup_mb", rss_after_setup);
    timing.num("proc.allocs_per_event", per_event(allocs as f64));
    timing.num(
        "simos.procfs_read_ns",
        probe_out.read_ns as f64 / probe_out.reads.max(1) as f64,
    );
    if let Some(tr) = &trace {
        let spans: u128 = tr.ns.iter().sum();
        for (i, class) in CLASSES.iter().enumerate() {
            timing.num(&format!("cluster.{class}_ns"), per_event(tr.ns[i] as f64));
        }
        timing.num("cluster.unattributed_ns", per_event(wall_ns - spans as f64));
        timing.num(
            "cluster.attributed_pct",
            100.0 * spans as f64 / wall_ns.max(1.0),
        );
        timing.num("simnet.send_ns", send_ns);
        timing.num("ecode.admit_ns", admit_ns);
    }

    let checks: Vec<String> = failed.iter().map(|c| format!("\"{c}\"")).collect();
    println!(
        "{{\"workload\": \"{name}\", \"seed\": {seed}, \"traced\": {traced}, \"checks\": [{}], \"det\": {}, \"wall\": {}}}",
        checks.join(", "),
        det.object(),
        timing.object(),
    );
}
