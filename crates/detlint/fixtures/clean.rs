//! Clean event-path code: ordered containers, sim time, seeded RNG,
//! and hash maps used only for point lookups.
//! NOT compiled — parsed by detlint's own tests.

struct Table {
    rows: FxHashMap<u32, f64>,
    order: Vec<u32>,
}

// detlint: event-entry
fn execute(t: &mut Table, now: SimTime) {
    let mut total = 0.0;
    // Iteration goes through the sorted index, lookups through the map.
    for id in &t.order {
        total += t.rows.get(id).copied().unwrap_or(0.0);
    }
    // detlint: allow(unordered-iter) sorted before use on the next line
    let mut keys: Vec<u32> = t.rows.keys().copied().collect();
    keys.sort_unstable();
    report(now, total, keys.len());
}

fn report(_now: SimTime, _x: f64, _n: usize) {}
