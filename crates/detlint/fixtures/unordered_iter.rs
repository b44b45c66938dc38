//! Seeded violation: hash-order iteration on the event path.
//! NOT compiled — parsed by detlint's own tests.

struct Table {
    rows: HashMap<u32, f64>,
}

// detlint: event-entry
fn execute(t: &mut Table) {
    let mut total = 0.0;
    // f64 addition is not associative: this sum depends on hasher order.
    for (_k, v) in t.rows.iter() {
        total += v;
    }
    report(total);
}

fn report(_x: f64) {}
