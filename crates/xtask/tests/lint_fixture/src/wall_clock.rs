//! Wall-clock reads: both types and both `now` calls fire.

use std::time::{Instant, SystemTime};

pub fn stamp() -> (Instant, SystemTime) {
    (Instant::now(), SystemTime::now())
}
