//! Buffer-pool capacity sweep over the disk-backed index (not from the
//! paper).
//!
//! The paper reports I/O as R\*-tree node accesses with no buffering.
//! This experiment puts a real buffer pool between the queries and a
//! saved page file ([`NwcIndex::open_disk`]) and sweeps its capacity
//! across {1 %, 5 %, 10 %, 25 %, 100 %} of the file's pages, for every
//! Table-3 scheme — crossed with three storage configurations
//! ([`LAYOUT_CONFIGS`]): the legacy bottom-up page layout with
//! readahead off (the PR 3 baseline), bottom-up with readahead on, and
//! the clustered (DFS/Hilbert) layout with readahead on. Per sweep cell
//! it reports the pool hit rate, the physical page reads that remain,
//! the readahead counters, and per-query latency.
//!
//! Because the pool uses exact LRU (a stack algorithm) and each scheme's
//! page reference string is deterministic, the readahead-off baseline's
//! hit rate is non-decreasing — and physical reads non-increasing — in
//! capacity; the smoke test asserts exactly that. (With readahead on,
//! speculative admissions perturb the LRU stack, so the inclusion
//! property no longer applies cell-to-cell.) The logical I/O (`avg_io`)
//! is invariant across *every* cell of a scheme — capacity, layout and
//! readahead change what a node access costs, never which nodes an
//! algorithm visits; the test asserts that too.
//!
//! Besides the markdown table, the run writes machine-readable
//! `results/BENCH_buffer.json`.

use crate::context::ExperimentContext;
use crate::runner::build_index;
use crate::table::Table;
use nwc_core::{
    DiskIndexConfig, NwcIndex, NwcQuery, PageLayout, QueryScratch, Scheme, SearchStats, WindowSpec,
};
use std::time::Instant;

/// Pool capacities swept, as fractions of the page file's page count.
pub const CAPACITY_FRACTIONS: [f64; 5] = [0.01, 0.05, 0.10, 0.25, 1.0];

/// The (page layout, readahead width) configurations swept. The first
/// entry is the PR 3 baseline; the last is the full locality stack.
pub const LAYOUT_CONFIGS: [(PageLayout, usize); 3] = [
    (PageLayout::BottomUp, 0),
    (PageLayout::BottomUp, 16),
    (PageLayout::Clustered, 16),
];

/// The JSON/report name of a layout.
pub fn layout_name(layout: PageLayout) -> &'static str {
    match layout {
        PageLayout::BottomUp => "bottom_up",
        PageLayout::Clustered => "clustered",
    }
}

/// One (layout, prefetch, capacity, scheme) cell of the sweep.
#[derive(Clone, Debug)]
pub struct BufferPoint {
    /// Page layout of the file queried ("bottom_up" / "clustered").
    pub layout: String,
    /// Readahead width the index was opened with (0 = off).
    pub prefetch: usize,
    /// Pool capacity as a fraction of the file's pages.
    pub capacity_frac: f64,
    /// Pool capacity in pages (`ceil(frac × pages)`, at least 1).
    pub capacity_pages: usize,
    /// Table-3 scheme name.
    pub scheme: String,
    /// Buffer pool hits across the query batch (cold start).
    pub hits: u64,
    /// Physical *demand* page reads (pool misses) across the batch.
    pub physical_reads: u64,
    /// Frames evicted across the batch.
    pub evictions: u64,
    /// `hits / (hits + physical_reads)`.
    pub hit_rate: f64,
    /// Pages read speculatively by readahead (outside `physical_reads`).
    pub prefetch_reads: u64,
    /// Demand hits served from readahead-admitted frames.
    pub prefetch_hits: u64,
    /// Readahead-admitted frames evicted or dropped untouched.
    pub prefetch_waste: u64,
    /// Vectored readahead calls; `prefetch_reads / prefetch_batches` is
    /// the mean run length the clustered layout exists to raise.
    pub prefetch_batches: u64,
    /// Readahead runs abandoned on a read error (always 0 on a healthy
    /// device; the faults sweep is where this moves).
    pub prefetch_errors: u64,
    /// Peak decoded nodes resident at once during the batch: the
    /// demand pager's memory gauge, bounded by `capacity_pages`.
    pub peak_resident_nodes: usize,
    /// Mean logical node accesses per query (invariant across cells).
    pub avg_io: f64,
    /// Mean wall-clock latency per query, microseconds.
    pub avg_latency_us: f64,
}

/// Everything the buffer experiment measured.
#[derive(Clone, Debug)]
pub struct BufferReport {
    /// Dataset the page file was built from.
    pub dataset: String,
    /// Pages in the saved file.
    pub pages: usize,
    /// Queries per cell.
    pub queries: usize,
    /// Sweep cells, config-major, then capacity, then scheme
    /// (Table-3 order).
    pub points: Vec<BufferPoint>,
}

/// Runs the experiment and renders the markdown table; also writes
/// `results/BENCH_buffer.json` (errors writing the file are reported on
/// stderr, not fatal — the measurement still prints).
pub fn buffer(ctx: &ExperimentContext) -> String {
    let report = measure(ctx);
    let json = render_json(ctx, &report);
    let path = "results/BENCH_buffer.json";
    match std::fs::create_dir_all("results").and_then(|()| std::fs::write(path, &json)) {
        Ok(()) => eprintln!("[buffer] wrote {path}"),
        Err(e) => eprintln!("[buffer] could not write {path}: {e}"),
    }
    render_markdown(&report)
}

/// The measurement itself, separated from rendering for tests.
pub fn measure(ctx: &ExperimentContext) -> BufferReport {
    let ds = ctx.dataset("CA");
    // Build in memory once, persist one file per layout, and from here
    // on query the files.
    let arena = build_index(&ds);
    let pid = std::process::id();
    let path_of = |layout: PageLayout| {
        std::env::temp_dir().join(format!("nwc-buffer-{pid}-{}.pages", layout_name(layout)))
    };
    for layout in [PageLayout::BottomUp, PageLayout::Clustered] {
        arena
            .save_tree_writable_with_layout(path_of(layout), layout)
            .unwrap_or_else(|e| panic!("saving page file: {e}"));
    }
    let pages = arena.tree().to_page_file().page_count();
    drop(arena);

    let query_points = ctx.query_points();
    let spec = WindowSpec::square(200.0);
    let n = 8;

    let mut points = Vec::new();
    for &(layout, prefetch) in &LAYOUT_CONFIGS {
        for &frac in &CAPACITY_FRACTIONS {
            let capacity = ((pages as f64 * frac).ceil() as usize).max(1);
            let index = NwcIndex::open_disk(
                path_of(layout),
                DiskIndexConfig {
                    pool_capacity: Some(capacity),
                    prefetch,
                    // One stripe keeps LRU behavior exact and
                    // machine-independent, so the baseline's inclusion
                    // property holds wherever the sweep runs.
                    pool_shards: Some(1),
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("opening page file: {e}"));
            let storage = index.tree().storage().expect("open_disk is disk-backed");

            for scheme in Scheme::TABLE3 {
                // Each scheme measures from a cold buffer and zeroed
                // counters (the storage reset covers pool/store/batch
                // tallies, the stats reset the per-tree I/O ones).
                storage.reset();
                index.tree().stats().reset();
                let mut acc = SearchStats::default();
                let mut scratch = QueryScratch::new();
                let start = Instant::now();
                for &q in &query_points {
                    let query = NwcQuery::new(q, spec, n);
                    let (_, stats) = index.nwc_full_with(&query, scheme, &mut scratch);
                    acc.accumulate(&stats);
                }
                let elapsed = start.elapsed();
                let pool = storage.pool_stats();
                points.push(BufferPoint {
                    layout: layout_name(layout).to_string(),
                    prefetch,
                    capacity_frac: frac,
                    capacity_pages: capacity,
                    scheme: scheme.to_string(),
                    hits: pool.hits,
                    physical_reads: pool.misses,
                    evictions: pool.evictions,
                    hit_rate: pool.hit_rate(),
                    prefetch_reads: index.tree().stats().prefetch_reads(),
                    prefetch_hits: pool.prefetch_hits,
                    prefetch_waste: pool.prefetch_waste,
                    prefetch_batches: storage.prefetch_batches(),
                    prefetch_errors: index.tree().stats().prefetch_errors(),
                    peak_resident_nodes: storage.peak_resident_nodes(),
                    avg_io: acc.io_total as f64 / query_points.len() as f64,
                    avg_latency_us: elapsed.as_secs_f64() * 1e6 / query_points.len() as f64,
                });
            }
        }
    }
    for layout in [PageLayout::BottomUp, PageLayout::Clustered] {
        std::fs::remove_file(path_of(layout)).ok();
    }

    BufferReport {
        dataset: ds.name.clone(),
        pages,
        queries: query_points.len(),
        points,
    }
}

fn render_markdown(r: &BufferReport) -> String {
    let mut t = Table::new(
        "Buffer-pool sweep",
        format!(
            "{} page file ({} pages), cold single-stripe LRU pool per cell, {} queries, \
             w = 200 × 200, n = 8; pf = readahead width",
            r.dataset, r.pages, r.queries
        ),
        vec![
            "layout/pf",
            "capacity",
            "scheme",
            "hit rate",
            "physical reads",
            "pf reads (hit/waste)",
            "batches",
            "pf errors",
            "peak resident",
            "avg IO",
            "avg latency (µs)",
        ],
    );
    for p in &r.points {
        t.push_row(vec![
            format!("{}/{}", p.layout, p.prefetch),
            format!("{:.0}% ({} pg)", p.capacity_frac * 100.0, p.capacity_pages),
            p.scheme.clone(),
            format!("{:.1}%", p.hit_rate * 100.0),
            p.physical_reads.to_string(),
            format!("{} ({}/{})", p.prefetch_reads, p.prefetch_hits, p.prefetch_waste),
            p.prefetch_batches.to_string(),
            p.prefetch_errors.to_string(),
            p.peak_resident_nodes.to_string(),
            format!("{:.1}", p.avg_io),
            format!("{:.1}", p.avg_latency_us),
        ]);
    }
    t.to_markdown()
}

/// Hand-rolled JSON (the workspace has no serde): stable field order,
/// numbers via `format!` so the file diffs cleanly between runs.
fn render_json(ctx: &ExperimentContext, r: &BufferReport) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"experiment\": \"buffer\",\n");
    s.push_str(&format!("  \"dataset\": \"{}\",\n", r.dataset));
    s.push_str(&format!("  \"scale\": {},\n", ctx.scale));
    s.push_str(&format!("  \"seed\": {},\n", ctx.seed));
    s.push_str(&format!("  \"pages\": {},\n", r.pages));
    s.push_str(&format!("  \"queries\": {},\n", r.queries));
    s.push_str("  \"sweep\": [\n");
    for (i, p) in r.points.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"layout\": \"{}\", \"prefetch\": {}, \
             \"capacity_frac\": {}, \"capacity_pages\": {}, \"scheme\": \"{}\", \
             \"hits\": {}, \"physical_reads\": {}, \"evictions\": {}, \
             \"hit_rate\": {:.4}, \"prefetch_reads\": {}, \"prefetch_hits\": {}, \
             \"prefetch_waste\": {}, \"prefetch_batches\": {}, \
             \"prefetch_errors\": {}, \"peak_resident_nodes\": {}, \
             \"avg_io\": {:.2}, \"avg_latency_us\": {:.2}}}{}\n",
            p.layout,
            p.prefetch,
            p.capacity_frac,
            p.capacity_pages,
            p.scheme,
            p.hits,
            p.physical_reads,
            p.evictions,
            p.hit_rate,
            p.prefetch_reads,
            p.prefetch_hits,
            p.prefetch_waste,
            p.prefetch_batches,
            p.prefetch_errors,
            p.peak_resident_nodes,
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
    fn sweep_is_monotone_and_json_well_formed() {
        let ctx = ExperimentContext::tiny();
        let r = measure(&ctx);
        assert_eq!(
            r.points.len(),
            LAYOUT_CONFIGS.len() * CAPACITY_FRACTIONS.len() * Scheme::TABLE3.len()
        );
        for scheme in Scheme::TABLE3 {
            let name = scheme.to_string();
            let cells: Vec<&BufferPoint> =
                r.points.iter().filter(|p| p.scheme == name).collect();
            assert_eq!(cells.len(), LAYOUT_CONFIGS.len() * CAPACITY_FRACTIONS.len());
            // Logical I/O is invariant across every cell of the scheme:
            // capacity, layout and readahead never change which nodes a
            // query visits.
            for c in &cells {
                assert_eq!(
                    c.avg_io, cells[0].avg_io,
                    "{name}: logical I/O not invariant ({}/{} cap {})",
                    c.layout, c.prefetch, c.capacity_pages
                );
                assert!(c.peak_resident_nodes > 0, "{name}: gauge never moved");
            }
            // The readahead-off baseline is pure LRU: the inclusion
            // property makes it monotone in capacity.
            let baseline: Vec<&&BufferPoint> = cells
                .iter()
                .filter(|p| p.prefetch == 0 && p.layout == "bottom_up")
                .collect();
            assert_eq!(baseline.len(), CAPACITY_FRACTIONS.len());
            for w in baseline.windows(2) {
                assert!(
                    w[1].hit_rate >= w[0].hit_rate - 1e-12,
                    "{name}: hit rate fell from {} to {} (caps {} -> {})",
                    w[0].hit_rate,
                    w[1].hit_rate,
                    w[0].capacity_pages,
                    w[1].capacity_pages
                );
                assert!(
                    w[1].physical_reads <= w[0].physical_reads,
                    "{name}: physical reads rose from {} to {}",
                    w[0].physical_reads,
                    w[1].physical_reads
                );
            }
            for c in &baseline {
                assert_eq!(
                    (c.prefetch_reads, c.prefetch_hits, c.prefetch_waste, c.prefetch_batches),
                    (0, 0, 0, 0),
                    "{name}: readahead-off cell has prefetch traffic"
                );
            }
            for c in &cells {
                assert_eq!(c.prefetch_errors, 0, "{name}: healthy device erred");
            }
            // The full-size baseline pool never evicts and hits on
            // every re-access.
            let full = baseline.last().unwrap();
            assert_eq!(full.evictions, 0);
            assert!(full.physical_reads as usize <= r.pages);
            assert!(
                full.peak_resident_nodes <= full.capacity_pages,
                "{name}: {} resident nodes in a {}-frame pool",
                full.peak_resident_nodes,
                full.capacity_pages
            );
            // Readahead cells keep the books consistent: every hit or
            // wasted frame was admitted by a speculative read.
            for c in cells.iter().filter(|p| p.prefetch > 0) {
                assert!(
                    c.prefetch_hits + c.prefetch_waste <= c.prefetch_reads,
                    "{name}: {}h + {}w > {} admitted",
                    c.prefetch_hits,
                    c.prefetch_waste,
                    c.prefetch_reads
                );
                if c.prefetch_reads > 0 {
                    assert!(c.prefetch_batches > 0);
                    assert!(c.prefetch_batches <= c.prefetch_reads);
                }
            }
        }
        let json = render_json(&ctx, &r);
        assert!(json.contains("\"experiment\": \"buffer\""));
        assert!(json.contains("\"layout\": \"clustered\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count(), "{json}");
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let md = render_markdown(&r);
        assert!(md.contains("Buffer-pool sweep"));
    }
}
