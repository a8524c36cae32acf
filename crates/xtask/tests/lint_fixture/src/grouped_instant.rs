//! A grouped import: `Instant` fires at the import and at the use site.

use std::time::{Duration, Instant};

pub fn grouped(d: Duration) -> Duration {
    let t = Instant::now();
    t.elapsed() + d
}
