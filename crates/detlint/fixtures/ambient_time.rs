//! Seeded violation: wall-clock read on the event path.
//! NOT compiled — parsed by detlint's own tests.

// detlint: event-entry
fn execute() {
    step();
}

fn step() {
    let started = std::time::Instant::now();
    work();
    let _elapsed = started.elapsed();
}

fn work() {}
