//! Fault-injection sweep over the disk-backed index (not from the
//! paper).
//!
//! The paper's evaluation assumes a storage layer that never fails; this
//! experiment measures what its algorithms cost when it does. A saved
//! clustered page file is queried through a [`FaultStore`] injecting
//! seeded transient read errors at {0 %, 0.1 %, 1 %} of physical reads,
//! with the retry policy of the disk path absorbing every burst — so
//! every cell returns the same answers and the same *logical* I/O, and
//! the sweep isolates what faults add: retries, attributed transient
//! errors, failed readahead runs, and wall-clock latency. A second pass
//! per rate adds 100 µs of per-read device latency to show how retry
//! overhead scales once a physical read actually costs something.
//!
//! Besides the markdown table, the run writes machine-readable
//! `results/BENCH_faults.json`.

use crate::buffer::layout_name;
use crate::context::ExperimentContext;
use crate::runner::build_index;
use crate::table::Table;
use nwc_core::{
    DiskIndexConfig, MetricsSnapshot, NwcIndex, NwcQuery, PageLayout, QueryScratch, RetryPolicy,
    Scheme, SearchStats, WindowSpec,
};
use nwc_store::{FaultPlan, FaultStore, FileStore};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Transient fault rates swept (probability per physical read).
pub const FAULT_RATES: [f64; 3] = [0.0, 0.001, 0.01];

/// Per-read device latencies swept (`None` = the raw device).
pub const LATENCIES: [Option<Duration>; 2] = [None, Some(Duration::from_micros(100))];

/// Consecutive failures per injected burst. The retry budget below
/// clears any burst without ever surfacing an error to the query.
const BURST: u32 = 2;

/// One (latency, rate, scheme) cell of the sweep.
#[derive(Clone, Debug)]
pub struct FaultsPoint {
    /// Injected per-read device latency, microseconds (0 = none).
    pub latency_us: u64,
    /// Transient fault probability per physical read.
    pub rate: f64,
    /// Table-3 scheme name.
    pub scheme: String,
    /// Re-attempted reads across the batch (the retry machinery's cost).
    pub retries: u64,
    /// Failed-then-recovered read attempts attributed to queries.
    pub transient_errors: u64,
    /// Transient errors the store injected (reader + readahead sides).
    pub injected: u64,
    /// Readahead runs abandoned because a speculative read failed.
    pub prefetch_errors: u64,
    /// Physical demand page reads (pool misses) across the batch.
    pub physical_reads: u64,
    /// Mean logical node accesses per query — invariant across every
    /// cell of a scheme: faults never change which nodes a query visits.
    pub avg_io: f64,
    /// Mean wall-clock latency per query, microseconds.
    pub avg_latency_us: f64,
}

/// Everything the faults experiment measured.
#[derive(Clone, Debug)]
pub struct FaultsReport {
    /// Dataset the page file was built from.
    pub dataset: String,
    /// Pages in the saved file.
    pub pages: usize,
    /// Queries per cell.
    pub queries: usize,
    /// Retry attempts budgeted per page read.
    pub max_attempts: u32,
    /// Sweep cells: latency-major, then rate, then scheme (Table-3
    /// order).
    pub points: Vec<FaultsPoint>,
}

/// Runs the experiment and renders the markdown table; also writes
/// `results/BENCH_faults.json` (errors writing the file are reported on
/// stderr, not fatal — the measurement still prints).
pub fn faults(ctx: &ExperimentContext) -> String {
    let report = measure(ctx);
    let json = render_json(ctx, &report);
    let path = "results/BENCH_faults.json";
    match std::fs::create_dir_all("results").and_then(|()| std::fs::write(path, &json)) {
        Ok(()) => eprintln!("[faults] wrote {path}"),
        Err(e) => eprintln!("[faults] could not write {path}: {e}"),
    }
    render_markdown(&report)
}

/// The measurement itself, separated from rendering for tests.
pub fn measure(ctx: &ExperimentContext) -> FaultsReport {
    let ds = ctx.dataset("CA");
    let arena = build_index(&ds);
    let path = std::env::temp_dir().join(format!("nwc-faults-{}.pages", std::process::id()));
    arena
        .save_tree_writable_with_layout(&path, PageLayout::Clustered)
        .unwrap_or_else(|e| panic!("saving page file: {e}"));
    let pages = arena.tree().to_page_file().page_count();
    drop(arena);

    let query_points = ctx.query_points();
    let spec = WindowSpec::square(200.0);
    let n = 8;
    // Enough attempts that a whole budget failing at the highest rate is
    // beyond astronomical; zero backoff so the table measures the
    // *retry* cost, with device latency swept explicitly instead.
    let retry = RetryPolicy {
        max_attempts: 8,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
    };

    let mut points = Vec::new();
    for &latency in &LATENCIES {
        for (ri, &rate) in FAULT_RATES.iter().enumerate() {
            // Open through a *transparent* fault store (the open path
            // validates every page with no retry in front of it), then
            // arm the plan for the measured queries.
            let store = FileStore::open(&path).unwrap_or_else(|e| panic!("opening pages: {e}"));
            let fault = Arc::new(FaultStore::new(store, FaultPlan::default()));
            let index = NwcIndex::open_disk_from_store(
                Box::new(Arc::clone(&fault)),
                DiskIndexConfig {
                    pool_capacity: Some(((pages / 10).max(1)).min(pages)),
                    prefetch: 16,
                    pool_shards: Some(1),
                    retry,
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("opening faulted index: {e}"));
            fault.set_plan(FaultPlan {
                seed: ctx.seed ^ ((ri as u64 + 1) << 32),
                transient_rate: rate,
                transient_burst: BURST,
                torn_rate: 0.0,
                latency,
            });
            let storage = index.tree().storage().expect("disk-backed");

            for scheme in Scheme::TABLE3 {
                storage.reset();
                index.tree().stats().reset();
                let injected0 = fault.stats().transient;
                let mut acc = SearchStats::default();
                let mut scratch = QueryScratch::new();
                let start = Instant::now();
                for &q in &query_points {
                    let query = NwcQuery::new(q, spec, n);
                    let (_, stats) = index
                        .try_nwc_full_with(&query, scheme, &mut scratch)
                        .unwrap_or_else(|e| panic!("transient fault leaked at rate {rate}: {e}"));
                    acc.accumulate(&stats);
                }
                let elapsed = start.elapsed();
                // One unified capture instead of plucking fields off
                // IoStats / PoolStats / FaultStats by hand.
                let snap = MetricsSnapshot::capture(&index)
                    .with_search(acc)
                    .with_faults(fault.stats());
                let pool = snap.pool.expect("disk-backed index has a pool");
                points.push(FaultsPoint {
                    latency_us: latency.map_or(0, |d| d.as_micros() as u64),
                    rate,
                    scheme: scheme.to_string(),
                    retries: snap.io.retries,
                    transient_errors: snap.io.transient_errors,
                    injected: snap.faults.map_or(0, |f| f.transient) - injected0,
                    prefetch_errors: snap.io.prefetch_errors,
                    physical_reads: pool.misses,
                    avg_io: snap.search.io_total as f64 / query_points.len() as f64,
                    avg_latency_us: elapsed.as_secs_f64() * 1e6 / query_points.len() as f64,
                });
            }
        }
    }
    std::fs::remove_file(&path).ok();

    FaultsReport {
        dataset: ds.name.clone(),
        pages,
        queries: query_points.len(),
        max_attempts: retry.max_attempts,
        points,
    }
}

fn render_markdown(r: &FaultsReport) -> String {
    let mut t = Table::new(
        "Fault-injection sweep",
        format!(
            "{} page file ({} pages, {} layout), seeded transient faults on physical reads, \
             burst {BURST}, retry budget {} attempts, {} queries, w = 200 × 200, n = 8; \
             answers and logical I/O are identical in every cell",
            r.dataset,
            r.pages,
            layout_name(PageLayout::Clustered),
            r.max_attempts,
            r.queries
        ),
        vec![
            "device latency",
            "fault rate",
            "scheme",
            "retries",
            "transient errs",
            "injected",
            "pf errors",
            "physical reads",
            "avg IO",
            "avg latency (µs)",
        ],
    );
    for p in &r.points {
        t.push_row(vec![
            if p.latency_us == 0 {
                "none".to_string()
            } else {
                format!("{} µs", p.latency_us)
            },
            format!("{:.2}%", p.rate * 100.0),
            p.scheme.clone(),
            p.retries.to_string(),
            p.transient_errors.to_string(),
            p.injected.to_string(),
            p.prefetch_errors.to_string(),
            p.physical_reads.to_string(),
            format!("{:.1}", p.avg_io),
            format!("{:.1}", p.avg_latency_us),
        ]);
    }
    t.to_markdown()
}

/// Hand-rolled JSON (the workspace has no serde): stable field order,
/// numbers via `format!` so the file diffs cleanly between runs.
fn render_json(ctx: &ExperimentContext, r: &FaultsReport) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"experiment\": \"faults\",\n");
    s.push_str(&format!("  \"dataset\": \"{}\",\n", r.dataset));
    s.push_str(&format!("  \"scale\": {},\n", ctx.scale));
    s.push_str(&format!("  \"seed\": {},\n", ctx.seed));
    s.push_str(&format!("  \"pages\": {},\n", r.pages));
    s.push_str(&format!("  \"queries\": {},\n", r.queries));
    s.push_str(&format!("  \"max_attempts\": {},\n", r.max_attempts));
    s.push_str(&format!("  \"transient_burst\": {BURST},\n"));
    s.push_str("  \"sweep\": [\n");
    for (i, p) in r.points.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"latency_us\": {}, \"rate\": {}, \"scheme\": \"{}\", \
             \"retries\": {}, \"transient_errors\": {}, \"injected\": {}, \
             \"prefetch_errors\": {}, \"physical_reads\": {}, \
             \"avg_io\": {:.2}, \"avg_latency_us\": {:.2}}}{}\n",
            p.latency_us,
            p.rate,
            p.scheme,
            p.retries,
            p.transient_errors,
            p.injected,
            p.prefetch_errors,
            p.physical_reads,
            p.avg_io,
            p.avg_latency_us,
            if i + 1 == r.points.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_isolates_fault_overhead_and_json_well_formed() {
        let ctx = ExperimentContext::tiny();
        let r = measure(&ctx);
        assert_eq!(
            r.points.len(),
            LATENCIES.len() * FAULT_RATES.len() * Scheme::TABLE3.len()
        );
        for scheme in Scheme::TABLE3 {
            let name = scheme.to_string();
            let cells: Vec<&FaultsPoint> =
                r.points.iter().filter(|p| p.scheme == name).collect();
            for c in &cells {
                // Logical I/O is invariant: faults change what a read
                // costs, never which nodes an algorithm visits.
                assert_eq!(
                    c.avg_io, cells[0].avg_io,
                    "{name}: logical I/O diverged at rate {} / {} µs",
                    c.rate, c.latency_us
                );
                if c.rate == 0.0 {
                    assert_eq!(
                        (c.retries, c.transient_errors, c.injected, c.prefetch_errors),
                        (0, 0, 0, 0),
                        "{name}: fault-free cell shows fault traffic"
                    );
                } else {
                    // Every attributed recovery was a real retry, and
                    // nothing the store injected went unrecovered.
                    assert!(c.retries >= c.transient_errors);
                    assert!(
                        c.injected >= c.transient_errors,
                        "{name}: more recoveries than injections"
                    );
                }
            }
        }
        // At the top rate something must actually have fired on the
        // reader side (the tiny context still issues hundreds of reads).
        let max_rate = FAULT_RATES[FAULT_RATES.len() - 1];
        let hot: u64 = r
            .points
            .iter()
            .filter(|p| p.rate == max_rate)
            .map(|p| p.injected)
            .sum();
        assert!(hot > 0, "top-rate cells injected nothing");
        let json = render_json(&ctx, &r);
        assert!(json.contains("\"experiment\": \"faults\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count(), "{json}");
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let md = render_markdown(&r);
        assert!(md.contains("Fault-injection sweep"));
    }
}
