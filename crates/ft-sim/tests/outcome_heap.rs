//! Heap held by one retained [`SeedOutcome`].
//!
//! Sweeps keep every seed's outcome until the report is rendered, so a
//! long run's memory grows with the bytes each outcome owns. This
//! binary installs a counting global allocator and measures exactly
//! those bytes — the live-heap drop when the outcome is freed — for a
//! seed of the `ftn 2 8 8` hotspot churn scenario. The per-sample
//! distributions (setup cost, path length, per-stage occupancy) are
//! reduced to the quantiles the report prints at the end of each seed,
//! which is what keeps the outcome well under the bound.
//!
//! One test per binary: the allocator counts every thread, so a second
//! test running alongside would disturb the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ft_sim::{run_seed_with, Scenario, SimWorkspace};

/// [`System`] plus a live-bytes counter. The default `alloc_zeroed`
/// and `realloc` go through `alloc`/`dealloc`, so they count too.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Hotspot churn with sparse faults on 𝒩 (ν = 2, V = 3 616): the
/// fabric and load of the `churn_ftn` benchmark workload.
const CHURN_FTN: &str = "\
network          = ftn 2 8 8 1.0
pattern          = hotspot 0.25 0.5
arrival_rate     = 100
holding          = exp 0.08
fault_rate       = 2e-5
fault_open_share = 0.5
mttr             = 20
duration         = 250
";

#[test]
fn retained_outcome_holds_at_most_one_kib() {
    let scenario = Scenario::parse(CHURN_FTN).expect("scenario parses");
    let fabric = scenario.fabric.build();
    let mut ws = SimWorkspace::default();
    let outcome = run_seed_with(&fabric, &scenario.config, 1_000_001, &mut ws);
    assert!(outcome.metrics.connected > 1000, "the seed must carry load");
    let before = LIVE.load(Ordering::Relaxed);
    drop(outcome);
    let held = before - LIVE.load(Ordering::Relaxed);
    eprintln!("one retained churn_ftn SeedOutcome holds {held} heap bytes");
    assert!(held > 0, "the outcome owns its per-stage vectors");
    assert!(
        held <= 1024,
        "retained outcome holds {held} B of heap (> 1 KiB)"
    );
}
