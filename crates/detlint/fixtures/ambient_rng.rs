//! Seeded violation: ambient entropy on the event path.
//! NOT compiled — parsed by detlint's own tests.

// detlint: event-entry
fn execute() {
    let jitter = sample();
    apply(jitter);
}

fn sample() -> f64 {
    let mut rng = thread_rng();
    rng.gen_range(0.0..1.0)
}

fn apply(_j: f64) {}
