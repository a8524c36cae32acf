//! Exact float comparison: literals, casts and two variables fire; a
//! comparison with literal zero does not.

pub fn literal_rhs(a: f64) -> bool {
    a == 0.3
}

pub fn literal_lhs(b: f32) -> bool {
    1.5 != b
}

pub fn cast_operand(x: u64, y: f64) -> bool {
    x as f64 == y
}

pub fn two_variables(p: f64, q: f64) -> bool {
    p == q
}

pub fn zero_sentinel(p: f64) -> bool {
    p == 0.0
}
