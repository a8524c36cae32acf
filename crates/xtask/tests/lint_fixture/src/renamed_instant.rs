//! A renamed import: `Clock::now()` still resolves to `Instant::now`.

use std::time::Instant as Clock;

pub fn renamed() -> u128 {
    Clock::now().elapsed().as_nanos()
}
