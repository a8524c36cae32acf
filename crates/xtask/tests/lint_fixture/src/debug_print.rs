//! Library code must not write to stdio.

pub fn shout(x: u32) -> u32 {
    println!("x = {x}");
    eprintln!("still here");
    dbg!(x)
}
