//! Nothing here may fire: doc prose mentioning `thread_rng`,
//! `Instant::now` and `HashMap`, integer comparisons, and a test module
//! doing everything the rules forbid.

/// So is a comment saying .unwrap() or SystemTime::now.
pub fn describe() -> &'static str {
    "call .unwrap() or println!(...): string literals do not count"
}

pub fn compare(a: u64, b: u64) -> bool {
    a == b && a <= 5 && a != 3 && (0..=b).contains(&a)
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::time::Instant;

    #[test]
    fn test_code_is_exempt_from_every_rule() {
        let started = Instant::now();
        let mut map = HashMap::new();
        map.insert("k", 1.5f64);
        println!("elapsed: {:?}", started.elapsed());
        assert!(*map.get("k").unwrap() == 1.5);
    }
}
