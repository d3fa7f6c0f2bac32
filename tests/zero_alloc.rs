//! Proves the warm-path allocation claim: once a `QueryScratch` has
//! been warmed on a workload, `nwc_full_with` performs **zero** heap
//! allocations for a query with no qualifying group (pure traversal +
//! window queries + candidate scan), and a steady bounded number —
//! only the groups the sink keeps — for an NWC or kNWC query with hits.
//!
//! Uses a counting global allocator, so everything runs inside one
//! `#[test]` (parallel tests would pollute the counter).

use nwc::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

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
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn warm_queries_do_not_allocate() {
    // A spread-out dataset: plenty of objects to visit and window-query,
    // never 30 of them inside one 12×12 window.
    let mut pts: Vec<Point> = (0..800)
        .map(|i| Point::new(((i * 37) % 211) as f64 * 5.0, ((i * 53) % 197) as f64 * 5.0))
        .collect();
    // A deliberate tight cluster so the hit query actually hits.
    pts.extend([
        Point::new(540.0, 510.0),
        Point::new(543.0, 512.0),
        Point::new(546.0, 509.0),
    ]);
    let index = NwcIndex::build(pts);
    let spec = WindowSpec::square(12.0);
    let scheme = Scheme::NWC_STAR;

    let miss = NwcQuery::new(Point::new(500.0, 480.0), spec, 30);
    let hit = NwcQuery::new(Point::new(500.0, 480.0), spec, 2);

    let mut scratch = QueryScratch::new();
    // Warm the scratch buffers to their workload high-water mark. The
    // baseline scheme runs a window query per visited object (nothing
    // pruned), so it drives the buffers hardest.
    for _ in 0..3 {
        let (r, stats) = index.nwc_full_with(&miss, Scheme::NWC, &mut scratch);
        assert!(r.is_none() && stats.objects_visited > 100, "{stats:?}");
        index.nwc_full_with(&miss, scheme, &mut scratch);
        index.nwc_full_with(&hit, scheme, &mut scratch);
    }

    // A warm no-hit query exercises the whole hot path — traversal,
    // window queries, candidate scans — and must not allocate at all.
    let before = allocs();
    let (r, stats) = index.nwc_full_with(&miss, Scheme::NWC, &mut scratch);
    let during = allocs() - before;
    assert!(r.is_none());
    assert!(stats.window_queries > 0, "{stats:?}");
    assert_eq!(during, 0, "warm miss query (baseline) allocated {during} times");

    // Same under the fully-optimized scheme (DEP prunes the window
    // queries here; the traversal itself must still be allocation-free).
    let before = allocs();
    let (r, _) = index.nwc_full_with(&miss, scheme, &mut scratch);
    let during = allocs() - before;
    assert!(r.is_none());
    assert_eq!(during, 0, "warm miss query (NWC*) allocated {during} times");

    // A warm hit query allocates only for offered result groups: the
    // count is steady across repeats (no hidden per-visit growth).
    let before = allocs();
    let (r1, _) = index.nwc_full_with(&hit, scheme, &mut scratch);
    let first = allocs() - before;
    drop(r1);
    let before = allocs();
    let (r2, _) = index.nwc_full_with(&hit, scheme, &mut scratch);
    let second = allocs() - before;
    assert!(r2.is_some());
    assert_eq!(first, second, "warm hit query allocation count not steady");
    assert!(
        second <= 16,
        "warm hit query allocated {second} times; expected only offered groups"
    );

    // Offers borrow the scan's group buffer, so a warm hit allocates
    // only for the groups it keeps: a steady count bounded by the sink's
    // updates and the result, not by the qualified windows it scored.
    // A dense jittered lattice makes most windows qualify.
    let dense: Vec<Point> = (0..1600u64)
        .map(|i| {
            let jitter = |s: u64| (i.wrapping_mul(s) % 97) as f64 / 194.0;
            Point::new(
                (i % 40) as f64 + jitter(7919),
                (i / 40) as f64 + jitter(104_729),
            )
        })
        .collect();
    let dense = NwcIndex::build(dense);
    let spec = WindowSpec::square(3.0);
    let hit = NwcQuery::new(Point::new(20.3, 20.7), spec, 6);
    let knwc = KnwcQuery::new(Point::new(20.3, 20.7), spec, 6, 3, 2);
    for _ in 0..3 {
        dense.nwc_full_with(&hit, scheme, &mut scratch);
        dense.knwc_with(&knwc, scheme, &mut scratch);
    }
    let mut counts = Vec::new();
    for _ in 0..3 {
        let before = allocs();
        let (r, stats) = dense.nwc_full_with(&hit, scheme, &mut scratch);
        let nwc_allocs = allocs() - before;
        assert!(r.is_some());
        // The kept group and its sorted ids, plus the tie-break ids.
        assert!(
            nwc_allocs <= stats.best_updates + 2,
            "warm NWC* hit allocated {nwc_allocs} times for {} best updates",
            stats.best_updates
        );

        let before = allocs();
        let r = dense.knwc_with(&knwc, scheme, &mut scratch);
        let knwc_allocs = allocs() - before;
        assert_eq!(r.groups.len(), 3);
        // Each kept group is copied once (ids and objects), the buffers
        // holding them grow geometrically, the result copies the
        // selection.
        let kept = r.stats.best_updates + r.groups.len() as u64;
        assert!(
            knwc_allocs <= 3 * kept + 4,
            "warm kNWC* query allocated {knwc_allocs} times for {kept} kept groups"
        );
        counts.push((nwc_allocs, knwc_allocs));
    }
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "warm NWC* hit / kNWC* allocation counts not steady: {counts:?}"
    );
}
