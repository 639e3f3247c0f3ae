//! Steady-state allocation discipline of [`CpuScanner::scan_into`], plan
//! sessions and the adaptive feedback path: once warmed, none of them may
//! allocate per scan or per chunk.
//!
//! A counting global allocator measures exact allocation counts. `cargo
//! test` runs the tests of this file on parallel threads, so the count is
//! kept per thread (a const-initialised `thread_local!` inside the
//! allocator): a test that scans on its own thread sees exactly its own
//! allocations, whatever the other tests do meanwhile. The one check that
//! counts allocations on worker threads (chunk scaling of the multi-worker
//! engine) reads a process-wide counter instead, and holds [`QUIET`] for
//! writing while it measures; every other test body holds it for reading,
//! so no other test scans inside that window. What the test harness
//! itself allocates there falls within that check's fixed slack.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard};

use sam_core::cpu::CpuScanner;
use sam_core::op::{LinRec, Max, Sum};
use sam_core::plan::{PlanHint, ScanPlan};
use sam_core::scanner::Engine;
use sam_core::ScanSpec;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. Const-initialised and
    /// without a destructor, so reading it never allocates and it stays
    /// readable while the thread exits.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made by every thread.
static ALL_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Read-held by each test body, write-held by the process-wide
/// measurement (see the module docs).
static QUIET: RwLock<()> = RwLock::new(());

fn count_alloc() {
    ALL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates verbatim to `System`; the counters have no effect on
// the returned memory, and updating them never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Holds off the process-wide measurement for the rest of a test body.
fn shared() -> RwLockReadGuard<'static, ()> {
    QUIET.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Allocations the calling thread makes while running `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = THREAD_ALLOCS.with(Cell::get);
    f();
    THREAD_ALLOCS.with(Cell::get) - before
}

/// Allocations any thread makes while running `f`, with every other test
/// of this file held off.
fn all_allocs_during(f: impl FnOnce()) -> u64 {
    let _quiet = QUIET.write().unwrap_or_else(|poisoned| poisoned.into_inner());
    let before = ALL_ALLOCS.load(Ordering::Relaxed);
    f();
    ALL_ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn scan_into_does_not_allocate_per_chunk() {
    let spec = ScanSpec::inclusive().with_order(2).unwrap().with_tuple(3).unwrap();
    let input: Vec<i64> = (0..65_536).map(|i| (i % 977) - 400).collect();
    let mut out = vec![0i64; input.len()];
    let expect = sam_core::serial::scan(&input, &Sum, &spec);

    // Single-worker path: degenerates to the fused serial kernel, which
    // needs no scratch at all once `out` exists.
    let serial_scanner = CpuScanner::new(1);
    serial_scanner.scan_into(&input, &mut out, &Sum, &spec); // warm-up
    let single = {
        let _shared = shared();
        allocs_during(|| {
            for _ in 0..5 {
                serial_scanner.scan_into(&input, &mut out, &Sum, &spec);
            }
        })
    };
    assert_eq!(single, 0, "single-worker steady state must be allocation-free");
    assert_eq!(out, expect);

    // Multi-worker path: compare a few-chunks geometry against a
    // many-chunks geometry on the same input. Worker spawn and per-worker
    // scratch may allocate a bounded number of times per scan, but nothing
    // may scale with the chunk count. Workers allocate on their own
    // threads, so this counts process-wide.
    let few = CpuScanner::new(3).with_chunk_elems(32_768); // 2 chunks
    let many = CpuScanner::new(3).with_chunk_elems(32); // 2048 chunks
    assert_chunk_scaling_flat("sum", &few, &many, |scanner| {
        scanner.scan_into(&input, &mut out, &Sum, &spec);
        assert_eq!(out, expect);
    });

    // The same with the output sweep streamed (the threshold forced down
    // to one byte): the bounce buffer lives on each worker's stack.
    {
        let _stream = sam_core::simd::nt_store_override(1);
        assert_chunk_scaling_flat("streamed sum", &few, &many, |scanner| {
            scanner.scan_into(&input, &mut out, &Sum, &spec);
            assert_eq!(out, expect);
        });
    }

    // An order-2 recurrence, whose publish sweep reads the impulse table
    // the scanner keeps in its arena (on hosts with the dot-product
    // reduction): chunks of at least 512 elements so the table is in use.
    let rec_spec = ScanSpec::inclusive().with_order(2).unwrap();
    let rec = LinRec::new(vec![3i64, -1]).unwrap();
    let rec_expect = sam_core::serial::scan(&input, &rec, &rec_spec);
    let rec_many = CpuScanner::new(3).with_chunk_elems(512); // 128 chunks
    assert_chunk_scaling_flat("recurrence", &few, &rec_many, |scanner| {
        scanner.scan_into(&input, &mut out, &rec, &rec_spec);
        assert_eq!(out, rec_expect);
    });
    // Warmed scanners do not rebuild the table: one build each, at the
    // first scan, where the reduction exists.
    let reduction = sam_core::simd::linrec_reduction_available::<i64>(sam_core::isa::resolved(), 2);
    let builds = rec_many.table_builds();
    assert_eq!(builds, u64::from(reduction), "one table build at warm-up");
    rec_many.scan_into(&input, &mut out, &rec, &rec_spec);
    assert_eq!(rec_many.table_builds(), builds, "a warmed scanner rebuilt its table");
}

/// Warms `few` and `many` (one scan each, which grows their arenas), then
/// asserts that one more scan on `many` allocates, process-wide, no more
/// than a fixed budget beyond one on `few`.
fn assert_chunk_scaling_flat(label: &str, few: &CpuScanner, many: &CpuScanner, mut scan: impl FnMut(&CpuScanner)) {
    scan(few); // warm-up (grows arena)
    scan(many); // warm-up (grows arena)
    let allocs_few = all_allocs_during(|| scan(few));
    let allocs_many = all_allocs_during(|| scan(many));

    // ≥ 128 chunks vs 2 chunks: any per-chunk allocation would add ≥ 126.
    // Thread spawning costs a handful of allocations per scan with some
    // run-to-run jitter, so allow a fixed (chunk-independent) budget.
    assert!(
        allocs_many <= allocs_few + 64 && allocs_many < 256,
        "{label}: allocations scale with chunk count: {allocs_few} for 2 chunks, \
         {allocs_many} for many"
    );
}

/// Plan-once sessions are allocation-free in steady state: after the
/// `PlanHint`-sized output buffer exists, `feed` allocates nothing in any
/// stream mode (cascade, continuous, chunked), and one-shot
/// `ScanSession::scan_into` on a warmed single-worker plan allocates
/// nothing either.
#[test]
fn session_steady_state_is_allocation_free() {
    let _shared = shared();
    let spec = ScanSpec::inclusive().with_order(2).unwrap().with_tuple(3).unwrap();
    let input: Vec<i64> = (0..32_768).map(|i| (i % 613) - 300).collect();

    // Cascade mode (integer sums, serial engine). The hint pre-sizes the
    // output buffer, so even the *first* feed is allocation-free.
    let plan = ScanPlan::new(spec, Engine::Serial, PlanHint::expected_len(input.len()));
    let mut cascade = plan.session::<i64, _>(Sum);
    let first = allocs_during(|| {
        let _ = cascade.feed(&input);
    });
    assert_eq!(first, 0, "hinted first feed must be allocation-free");
    let steady = allocs_during(|| {
        for _ in 0..4 {
            cascade.reset();
            let _ = cascade.feed(&input[..10_000]);
            let _ = cascade.feed(&input[10_000..]);
        }
    });
    assert_eq!(steady, 0, "cascade-mode feed steady state must be allocation-free");

    // Continuous and chunked modes (Max has no cascade weights). The
    // chunked fold runs in the session, not on the workers, so it is
    // strictly allocation-free too.
    for eng in [
        Engine::Cpu(CpuScanner::new(1)),
        Engine::Cpu(CpuScanner::new(3).with_chunk_elems(256)),
    ] {
        let plan = ScanPlan::new(spec, eng, PlanHint::expected_len(input.len()));
        let mut session = plan.session::<i64, _>(Max);
        let _ = session.feed(&input); // warm-up
        session.reset();
        let steady = allocs_during(|| {
            for _ in 0..4 {
                session.reset();
                for batch in input.chunks(1111) {
                    let _ = session.feed(batch);
                }
            }
        });
        assert_eq!(steady, 0, "feed steady state must be allocation-free");
    }

    // One-shot scans through a session reuse the plan's engine: the
    // single-worker CPU path needs no scratch once `out` exists.
    let plan = ScanPlan::new(spec, Engine::Cpu(CpuScanner::new(1)), PlanHint::default());
    let session = plan.session::<i64, _>(Sum);
    let mut out = vec![0i64; input.len()];
    session.scan_into(&input, &mut out); // warm-up
    let one_shot = allocs_during(|| {
        for _ in 0..5 {
            session.scan_into(&input, &mut out);
        }
    });
    assert_eq!(one_shot, 0, "session scan_into steady state must be allocation-free");
    assert_eq!(out, sam_core::serial::scan(&input, &Sum, &spec));
}

/// The adaptive feedback path is allocation-free once converged: driving
/// a `PlanHint::adaptive()` plan to `DriverPhase::Steady` and scanning
/// again must allocate nothing — geometry resolution, the wall-clock cost
/// measurement, and `Driver::observe` all run on pre-allocated state (the
/// one-time persistence write happened at the convergence transition).
#[test]
fn converged_adaptive_feedback_is_allocation_free() {
    use sam_core::adapt::DriverPhase;
    let _shared = shared();

    let spec = ScanSpec::inclusive().with_order(2).unwrap();
    let input: Vec<i64> = (0..32_768).map(|i| (i % 811) - 400).collect();
    let mut out = vec![0i64; input.len()];
    // Single worker: the scan itself is allocation-free once warmed, so
    // any steady-state allocation is attributable to the adaptive layer.
    let plan = ScanPlan::new(spec, Engine::Cpu(CpuScanner::new(1)), PlanHint::adaptive());
    assert!(plan.is_adaptive());

    // Drive the search to convergence (episodes above the observation
    // floor; warmup + climb need a few hundred).
    for _ in 0..3000 {
        plan.scan_into(&input, &mut out, &Sum);
        if plan.adaptive_snapshot().unwrap().phase == DriverPhase::Steady {
            break;
        }
    }
    assert_eq!(
        plan.adaptive_snapshot().unwrap().phase,
        DriverPhase::Steady,
        "driver must converge before the allocation gate"
    );

    plan.scan_into(&input, &mut out, &Sum); // settle
    let steady = allocs_during(|| {
        for _ in 0..10 {
            plan.scan_into(&input, &mut out, &Sum);
        }
    });
    assert_eq!(
        steady, 0,
        "converged adaptive feedback must be allocation-free"
    );
    assert_eq!(out, sam_core::serial::scan(&input, &Sum, &spec));
}

/// Recurrence sessions are allocation-free in steady state: a warmed
/// `ScanSession<i64, LinRec<i64>>::scan_into` on a single-worker plan
/// runs the stride-1 register-window kernel with its state on the stack.
#[test]
fn linrec_session_scan_into_is_allocation_free() {
    let _shared = shared();
    let spec = ScanSpec::inclusive().with_order(2).unwrap();
    let op = LinRec::new(vec![3i64, -1]).unwrap();
    let input: Vec<i64> = (0..32_768).map(|i| (i % 409) - 200).collect();
    let mut out = vec![0i64; input.len()];
    let plan = ScanPlan::new(spec, Engine::Cpu(CpuScanner::new(1)), PlanHint::default());
    let session = plan.session::<i64, _>(op.clone());
    session.scan_into(&input, &mut out); // warm-up
    let steady = allocs_during(|| {
        for _ in 0..5 {
            session.scan_into(&input, &mut out);
        }
    });
    assert_eq!(steady, 0, "recurrence session scan_into steady state must be allocation-free");
    assert_eq!(out, sam_core::serial::scan(&input, &op, &spec));
}
