//! Naming a clock or hashed-container type at all is a finding.

pub struct Stamped(pub std::time::SystemTime);

pub struct Index(pub std::collections::HashMap<u32, u32>);

pub struct Hasher(pub std::collections::hash_map::RandomState);
