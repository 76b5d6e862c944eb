//! Proof that the disabled trace path allocates nothing.
//!
//! The whole point of `Tracer::emit(|| ...)` taking a closure is that
//! event payloads (format strings, iterate clones) are never built when
//! the sink is a `NopSink`. This test pins that guarantee with a counting
//! global allocator: twenty thousand emits on the disabled path must
//! perform **zero** heap allocations. The phase guards built on `emit`
//! are pinned by `sgs-metrics`' `tests/alloc_disabled.rs`.

// A counting global allocator is the one place in the workspace that
// genuinely needs `unsafe`; keep the exception local to this test.
#![allow(unsafe_code)]

use sgs_trace::{TraceEvent, Tracer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn noop_sink_allocates_nothing_on_the_hot_path() {
    let tracer = Tracer::none();

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..10_000u64 {
        // Cheap event: must not even be constructed.
        tracer.emit(|| TraceEvent::Counter {
            name: "iteration",
            value: i,
        });
        // Expensive event: the closure body would allocate a String and a
        // Vec — it must never run.
        tracer.emit(|| TraceEvent::Diverged {
            outer: i as usize,
            detail: format!("objective is NaN at iteration {i}"),
            x: vec![0.0; 64],
        });
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "disabled trace path performed heap allocations"
    );
}
