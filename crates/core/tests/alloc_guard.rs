//! Allocation guard for the negotiation path.
//!
//! The DBC loop prices every candidate it draws from the directory, and a
//! negotiation-bound federation prices about a million of them per run.
//! Candidates are priced straight from their `Copy` quotes, the in-flight
//! job record is boxed once at arrival and moved by pointer, and the audit
//! chain folds fixed-size arrays, so the steady-state event loop allocates
//! far less than once per negotiation message.  This binary installs a
//! counting global allocator and holds a whole Economy OFT100 federation
//! run to that: pricing a candidate through an owned `ResourceSpec` (a
//! formatted name plus its copy, two allocations per candidate) breaks the
//! bound several times over.
//!
//! The guard lives in a test binary of its own because the counting
//! allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use grid_cluster::replicated_resources;
use grid_federation_core::{FederationBuilder, FederationConfig, SchedulingMode};
use grid_workload::{JobSource, PopulationProfile, SyntheticWorkloadConfig, UserPopulation};

/// Counts allocations (including reallocations) made by threads that armed
/// the counter; other threads — the test harness — are not counted.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if ARMED.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter touches no heap memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made by `f` on this thread.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    ARMED.with(|armed| armed.set(true));
    let result = f();
    ARMED.with(|armed| armed.set(false));
    (ALLOCATIONS.load(Ordering::Relaxed) - before, result)
}

/// At most one allocation per this many charged negotiation messages.
/// The run below measures about one per 8 (1.6 per job: the pending-job
/// box, B-tree nodes, LRMS queue growth, plus one-off set-up); pricing
/// candidates through an owned `ResourceSpec` measures about one per
/// message.
const MESSAGES_PER_ALLOCATION: u64 = 4;

#[test]
fn negotiation_allocates_far_less_than_once_per_message() {
    // A negotiation-bound federation: 16 replicated Table 1 clusters, every
    // user optimising for time, the quote cache serving the ranking.
    let n = 16;
    let seed = 2005;
    let duration = 43_200.0;
    let paper = replicated_resources(n);
    let resources = paper.iter().map(|r| r.spec.clone()).collect();
    let workloads = paper
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut cfg = SyntheticWorkloadConfig::new(i, &r.spec.name);
            cfg.duration = duration;
            cfg.total_jobs = (r.jobs_two_days / 4).max(1);
            cfg.max_processors = r.spec.processors;
            cfg.origin_mips = r.spec.mips;
            cfg.offered_load = r.offered_load;
            cfg.max_runtime = 0.25 * duration;
            cfg.user_count = r.user_count;
            cfg.seed = seed ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407);
            let population =
                UserPopulation::new(i, r.user_count, PopulationProfile::new(100), seed);
            cfg.stream().populated(&population).collect_jobs()
        })
        .collect();
    let builder = FederationBuilder::new(resources)
        .workloads(workloads)
        .config(FederationConfig {
            mode: SchedulingMode::Economy,
            seed,
            utilization_horizon: Some(duration),
            ..FederationConfig::default()
        });

    let (allocations, report) = allocations_during(|| builder.run());

    let messages = report.messages.total_messages();
    assert!(
        messages > 10 * report.jobs.len() as u64,
        "the run must be negotiation-bound: {messages} messages for {} jobs",
        report.jobs.len()
    );
    assert!(
        allocations * MESSAGES_PER_ALLOCATION < messages,
        "{allocations} allocations for {messages} charged negotiation messages \
         (bound: one per {MESSAGES_PER_ALLOCATION} messages)"
    );
}
