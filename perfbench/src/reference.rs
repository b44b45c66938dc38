//! A fixed reference workload that gauges how fast the host runs right now.
//!
//! On a shared host the CPU time of the same work drifts by tens of percent
//! over minutes (clock frequency, a busy sibling hyperthread, a shared
//! cache). The drift scales the program's set-up and its window alike, so
//! just before each run `run.py` times this reference, which uses none of
//! the program's code, and scales the run's CPU times to a host that runs
//! it in a nominal time. A change to the program moves the scaled times in
//! the same proportion as the raw ones. The reference runs in a process of
//! its own, so the measured process's allocator state and peak RSS are
//! the program's alone.
//!
//! The reference mimics the simulator's mix of work: a binary-heap event
//! queue, hash-map updates, random reads over a table larger than the L2
//! cache, and small short-lived allocations.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Duration;

const ROUNDS: usize = 7;
const STEPS: u64 = 120_000;
const TABLE_WORDS: usize = 1 << 18; // 2 MiB

/// Median CPU time of one round of the reference work.
pub fn round_time(cpu_time: fn() -> Duration) -> Duration {
    let table: Vec<u64> = (0..TABLE_WORDS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9))
        .collect();
    let mut times: Vec<Duration> = (0..ROUNDS)
        .map(|r| {
            let t0 = cpu_time();
            black_box(round(&table, r as u64));
            cpu_time() - t0
        })
        .collect();
    times.sort_unstable();
    times[ROUNDS / 2]
}

fn round(table: &[u64], salt: u64) -> u64 {
    let mut heap = BinaryHeap::with_capacity(1024);
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(4096);
    let mut x = 0x2545_F491_4F6C_DD1D ^ salt;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse(x >> 24));
        if heap.len() > 1000 {
            acc = acc.wrapping_add(heap.pop().map_or(0, |r| r.0));
        }
        *map.entry(x & 4095).or_insert(0) += acc & 1;
        acc ^= table[(x as usize) & (TABLE_WORDS - 1)];
        let small: Vec<u64> = vec![acc; (x & 15) as usize + 1];
        acc = acc.wrapping_add(black_box(small).iter().sum::<u64>());
    }
    acc ^ map.len() as u64
}
