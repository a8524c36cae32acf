//! `World::step` must not allocate per agent: the phase kernels draw
//! from per-agent streams and write into caller-provided buffers, so the
//! allocations of one round are a small constant, far below `n`. A
//! counting global allocator measures that for both channel kinds at one
//! thread, after warm-up rounds have sized every reusable buffer.
//!
//! This file holds a single test so no other test thread allocates while
//! it counts.

// A `GlobalAlloc` implementation is `unsafe` by definition. This one only
// counts calls and forwards every request unchanged to the system
// allocator, and it exists only in this test binary.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use noisy_pull_repro::prelude::*;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a side effect.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for this call are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for this call are passed on as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for this call are passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's guarantees for this call are passed on as is.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Population size: large enough that one allocation per agent per round
/// dwarfs [`MAX_PER_STEP`].
const N: usize = 4096;
/// Allocations one round may make. SF made 29–35 per round on the
/// aggregated channel and 8 on the exact one, for n from 1024 to 16384.
const MAX_PER_STEP: u64 = 64;
const WARM_UP: usize = 2;
const MEASURED: usize = 8;

/// The most allocations any one of [`MEASURED`] rounds made, after
/// [`WARM_UP`] rounds.
fn max_allocations_per_step(kind: ChannelKind, h: usize) -> u64 {
    let config = PopulationConfig::new(N, 0, 1, h).unwrap();
    let params = SfParams::derive(&config, 0.2, 1.0).unwrap();
    let noise = NoiseMatrix::uniform(2, 0.2).unwrap();
    let mut world = World::new(&SourceFilter::new(params), config, &noise, kind, 7).unwrap();
    world.set_threads(1);
    world.run(WARM_UP as u64);
    (0..MEASURED)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            world.step();
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .max()
        .unwrap_or(0)
}

#[test]
fn step_allocations_stay_constant_far_below_n() {
    // The exact channel draws each of the h samples literally; a small h
    // keeps the debug-build run short.
    for (kind, h) in [(ChannelKind::Aggregated, N), (ChannelKind::Exact, 4)] {
        let allocations = max_allocations_per_step(kind, h);
        assert!(
            allocations <= MAX_PER_STEP,
            "{kind:?} channel, n = {N}, h = {h}: {allocations} allocations in one \
             World::step (bound {MAX_PER_STEP}); is something allocated per agent?"
        );
    }
}
