//! Hashed containers iterate in a per-process random order.

pub fn tally() -> usize {
    let set = std::collections::HashSet::<u32>::new();
    let map = std::collections::HashMap::<u32, u32>::new();
    set.len() + map.len()
}
