//! Kernel + device-latency sweep (not from the paper).
//!
//! Two measurements of the disk query hot path, in one report:
//!
//! 1. **Microbench** — ns/rect for the scalar `Rect::mindist` /
//!    `Rect::intersects` loops vs the batched SoA kernels, plus the
//!    detected kernel backend and core count. Both sides compute
//!    bit-identical results (see `tests/kernel_equivalence.rs`); only
//!    the throughput may differ.
//! 2. **End-to-end** — NWC* with readahead over a saved clustered CA
//!    page file behind a [`FaultStore`], cold pool per cell, at {no
//!    latency, 100 µs per physical read}. Answers and logical I/O are
//!    identical in every cell; the sweep isolates what device latency
//!    adds to wall clock. The no-latency row runs at page-cache speed;
//!    the 100 µs row models real storage.
//!
//! Besides the markdown table, the run writes machine-readable
//! `results/BENCH_kernels.json`.

use crate::context::ExperimentContext;
use crate::runner::build_index;
use crate::table::Table;
use nwc_core::{
    DiskIndexConfig, NwcIndex, NwcQuery, PageLayout, QueryScratch, Scheme, WindowSpec,
};
use nwc_geom::{kernel_backend, MbrSoa, Point, Rect};
use nwc_store::{FaultPlan, FaultStore, FileStore};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-read device latencies swept (`None` = the raw device).
pub const LATENCIES: [Option<Duration>; 2] = [None, Some(Duration::from_micros(100))];

/// Rectangles per microbench pass — one branch-array's worth, sized
/// like a run of internal fanouts rather than a cache-busting sweep.
const MICRO_RECTS: usize = 256;

/// Microbench half of the report.
#[derive(Clone, Debug)]
pub struct KernelMicro {
    /// Scalar `Rect::mindist` loop, nanoseconds per rectangle.
    pub mindist_scalar_ns: f64,
    /// Batched SoA MINDIST kernel, nanoseconds per rectangle.
    pub mindist_batched_ns: f64,
    /// Scalar `Rect::intersects` loop, nanoseconds per rectangle.
    pub intersects_scalar_ns: f64,
    /// Batched SoA window-intersection kernel, nanoseconds per rectangle.
    pub intersects_batched_ns: f64,
}

impl KernelMicro {
    /// Scalar-to-batched MINDIST speedup (> 1 means batching wins).
    pub fn mindist_speedup(&self) -> f64 {
        self.mindist_scalar_ns / self.mindist_batched_ns
    }

    /// Scalar-to-batched intersection speedup.
    pub fn intersects_speedup(&self) -> f64 {
        self.intersects_scalar_ns / self.intersects_batched_ns
    }
}

/// One device-latency cell of the end-to-end sweep.
#[derive(Clone, Debug)]
pub struct LatencyPoint {
    /// Injected per-read device latency, microseconds (0 = none).
    pub latency_us: u64,
    /// Mean logical node accesses per query — invariant across cells.
    pub avg_io: f64,
    /// Mean wall-clock latency per query, microseconds.
    pub avg_latency_us: f64,
    /// Physical demand reads (pool misses) across the batch.
    pub physical_reads: u64,
    /// Pages read by readahead across the batch.
    pub prefetch_reads: u64,
}

/// Everything the kernels experiment measured.
#[derive(Clone, Debug)]
pub struct KernelsReport {
    /// Detected batch-kernel backend ("avx2" or "portable").
    pub backend: String,
    /// Cores visible to this process.
    pub cores: usize,
    /// Dataset the page file was built from.
    pub dataset: String,
    /// Pages in the saved file.
    pub pages: usize,
    /// Queries per cell.
    pub queries: usize,
    /// Microbench results.
    pub micro: KernelMicro,
    /// End-to-end sweep cells, one per swept latency.
    pub points: Vec<LatencyPoint>,
}

/// Runs the experiment and renders the markdown table; also writes
/// `results/BENCH_kernels.json` (errors writing the file are reported
/// on stderr, not fatal — the measurement still prints).
pub fn kernels(ctx: &ExperimentContext) -> String {
    let report = measure(ctx);
    let json = render_json(ctx, &report);
    let path = "results/BENCH_kernels.json";
    match std::fs::create_dir_all("results").and_then(|()| std::fs::write(path, &json)) {
        Ok(()) => eprintln!("[kernels] wrote {path}"),
        Err(e) => eprintln!("[kernels] could not write {path}: {e}"),
    }
    render_markdown(&report)
}

/// The microbench alone: median-of-5 passes of a tight loop over one
/// branch-array-sized rectangle soup.
pub fn measure_micro() -> KernelMicro {
    let rects: Vec<Rect> = (0..MICRO_RECTS)
        .map(|i| {
            let x = ((i * 37) % 1000) as f64;
            let y = ((i * 73) % 1000) as f64;
            Rect::new(Point::new(x, y), Point::new(x + 40.0, y + 25.0))
        })
        .collect();
    let soa: MbrSoa = rects.iter().copied().collect();
    let q = Point::new(481.0, 517.0);
    let w = Rect::new(Point::new(200.0, 200.0), Point::new(700.0, 650.0));
    const REPS: usize = 4_000;

    let mindist_scalar_ns = best_of(5, || {
        let mut acc = 0.0f64;
        for _ in 0..REPS {
            for r in &rects {
                acc += r.mindist(&q);
            }
        }
        std::hint::black_box(acc);
    });
    let mut out = vec![0.0f64; rects.len()];
    let mindist_batched_ns = best_of(5, || {
        for _ in 0..REPS {
            soa.mindist_into(&q, &mut out);
            std::hint::black_box(out[0]);
        }
    });
    let intersects_scalar_ns = best_of(5, || {
        let mut n = 0usize;
        for _ in 0..REPS {
            for r in &rects {
                n += usize::from(r.intersects(&w));
            }
        }
        std::hint::black_box(n);
    });
    let mut mask = vec![false; rects.len()];
    let intersects_batched_ns = best_of(5, || {
        for _ in 0..REPS {
            soa.intersects_into(&w, &mut mask);
            std::hint::black_box(mask[0]);
        }
    });

    let per_rect = (REPS * MICRO_RECTS) as f64;
    KernelMicro {
        mindist_scalar_ns: mindist_scalar_ns / per_rect,
        mindist_batched_ns: mindist_batched_ns / per_rect,
        intersects_scalar_ns: intersects_scalar_ns / per_rect,
        intersects_batched_ns: intersects_batched_ns / per_rect,
    }
}

/// Best (minimum) wall clock of `passes` runs of `f`, in nanoseconds —
/// the minimum is the least-noise estimator for a CPU-bound loop.
fn best_of(passes: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..passes {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e9);
    }
    best
}

/// The measurement itself, separated from rendering for tests.
pub fn measure(ctx: &ExperimentContext) -> KernelsReport {
    let micro = measure_micro();

    let ds = ctx.dataset("CA");
    let arena = build_index(&ds);
    let path = std::env::temp_dir().join(format!("nwc-kernels-{}.pages", std::process::id()));
    arena
        .save_tree_writable_with_layout(&path, PageLayout::Clustered)
        .unwrap_or_else(|e| panic!("saving page file: {e}"));
    let pages = arena.tree().to_page_file().page_count();
    drop(arena);

    let query_points = ctx.query_points();
    let spec = WindowSpec::square(200.0);
    let n = 8;

    let mut points = Vec::new();
    for &latency in &LATENCIES {
        let store = FileStore::open(&path).unwrap_or_else(|e| panic!("opening pages: {e}"));
        let fault = Arc::new(FaultStore::new(store, FaultPlan::default()));
        let index = NwcIndex::open_disk_from_store(
            Box::new(Arc::clone(&fault)),
            DiskIndexConfig {
                // A bounded pool an order smaller than the file, so
                // every cell actually reads from the device.
                pool_capacity: Some(((pages / 10).max(1)).min(pages)),
                prefetch: 16,
                pool_shards: Some(1),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("opening index: {e}"));
        fault.set_plan(FaultPlan { latency, ..FaultPlan::default() });
        let storage = index.tree().storage().expect("disk-backed");

        // Cold pool per cell so each measures the same physical work.
        storage.reset();
        index.tree().stats().reset();
        let mut io_total = 0u64;
        let mut scratch = QueryScratch::new();
        let start = Instant::now();
        for &q in &query_points {
            let query = NwcQuery::new(q, spec, n);
            let (_, stats) = index
                .try_nwc_full_with(&query, Scheme::NWC_STAR, &mut scratch)
                .unwrap_or_else(|e| panic!("query failed: {e}"));
            io_total += stats.io_total;
        }
        let elapsed = start.elapsed();
        points.push(LatencyPoint {
            latency_us: latency.map_or(0, |d| d.as_micros() as u64),
            avg_io: io_total as f64 / query_points.len() as f64,
            avg_latency_us: elapsed.as_secs_f64() * 1e6 / query_points.len() as f64,
            physical_reads: storage.pool_stats().misses,
            prefetch_reads: index.tree().stats().prefetch_reads(),
        });
    }
    std::fs::remove_file(&path).ok();

    KernelsReport {
        backend: kernel_backend().to_string(),
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        dataset: ds.name.clone(),
        pages,
        queries: query_points.len(),
        micro,
        points,
    }
}

fn render_markdown(r: &KernelsReport) -> String {
    let mut out = String::new();
    let mut micro = Table::new(
        "Geometry kernel microbench",
        format!(
            "{MICRO_RECTS}-rect branch array, best of 5 passes, backend = {}, {} core(s); \
             results are bit-identical — only throughput differs",
            r.backend, r.cores
        ),
        vec!["kernel", "scalar (ns/rect)", "batched (ns/rect)", "speedup"],
    );
    micro.push_row(vec![
        "MINDIST".into(),
        format!("{:.2}", r.micro.mindist_scalar_ns),
        format!("{:.2}", r.micro.mindist_batched_ns),
        format!("{:.2}x", r.micro.mindist_speedup()),
    ]);
    micro.push_row(vec![
        "window intersect".into(),
        format!("{:.2}", r.micro.intersects_scalar_ns),
        format!("{:.2}", r.micro.intersects_batched_ns),
        format!("{:.2}x", r.micro.intersects_speedup()),
    ]);
    out.push_str(&micro.to_markdown());
    out.push('\n');

    let mut sweep = Table::new(
        "Device-latency sweep",
        format!(
            "NWC* over a {} page file ({} pages, clustered), {} queries, cold pool per cell, \
             prefetch 16; answers and logical I/O identical in every cell. The no-latency row \
             runs at page-cache speed",
            r.dataset, r.pages, r.queries
        ),
        vec![
            "device latency",
            "avg IO",
            "avg latency (µs)",
            "physical reads",
            "prefetch reads",
        ],
    );
    for p in &r.points {
        sweep.push_row(vec![
            if p.latency_us == 0 { "none".to_string() } else { format!("{} µs", p.latency_us) },
            format!("{:.1}", p.avg_io),
            format!("{:.1}", p.avg_latency_us),
            p.physical_reads.to_string(),
            p.prefetch_reads.to_string(),
        ]);
    }
    out.push_str(&sweep.to_markdown());
    out
}

/// Hand-rolled JSON (the workspace has no serde): stable field order,
/// numbers via `format!` so the file diffs cleanly between runs.
fn render_json(ctx: &ExperimentContext, r: &KernelsReport) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"experiment\": \"kernels\",\n");
    s.push_str(&format!("  \"backend\": \"{}\",\n", r.backend));
    s.push_str(&format!("  \"cores\": {},\n", r.cores));
    s.push_str(&format!("  \"dataset\": \"{}\",\n", r.dataset));
    s.push_str(&format!("  \"scale\": {},\n", ctx.scale));
    s.push_str(&format!("  \"seed\": {},\n", ctx.seed));
    s.push_str(&format!("  \"pages\": {},\n", r.pages));
    s.push_str(&format!("  \"queries\": {},\n", r.queries));
    s.push_str(&format!(
        "  \"micro\": {{\"rects\": {MICRO_RECTS}, \
         \"mindist_scalar_ns\": {:.3}, \"mindist_batched_ns\": {:.3}, \
         \"mindist_speedup\": {:.3}, \
         \"intersects_scalar_ns\": {:.3}, \"intersects_batched_ns\": {:.3}, \
         \"intersects_speedup\": {:.3}}},\n",
        r.micro.mindist_scalar_ns,
        r.micro.mindist_batched_ns,
        r.micro.mindist_speedup(),
        r.micro.intersects_scalar_ns,
        r.micro.intersects_batched_ns,
        r.micro.intersects_speedup(),
    ));
    s.push_str("  \"sweep\": [\n");
    for (i, p) in r.points.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"latency_us\": {}, \"avg_io\": {:.2}, \"avg_latency_us\": {:.2}, \
             \"physical_reads\": {}, \"prefetch_reads\": {}}}{}\n",
            p.latency_us,
            p.avg_io,
            p.avg_latency_us,
            p.physical_reads,
            p.prefetch_reads,
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
    fn kernels_match_and_sweep_holds_io_invariant() {
        let ctx = ExperimentContext::tiny();
        let r = measure(&ctx);
        assert!(matches!(r.backend.as_str(), "avx2" | "portable"));
        assert!(r.cores >= 1);
        assert!(r.micro.mindist_scalar_ns > 0.0 && r.micro.mindist_batched_ns > 0.0);
        assert_eq!(r.points.len(), LATENCIES.len());
        // Logical I/O is the paper's metric and must not move with the
        // device latency; neither may the physical work of a cold pool.
        for p in &r.points {
            let at = p.latency_us;
            assert_eq!(p.avg_io, r.points[0].avg_io, "logical I/O at {at} µs");
            assert_eq!(p.physical_reads, r.points[0].physical_reads, "{at} µs");
            assert_eq!(p.prefetch_reads, r.points[0].prefetch_reads, "{at} µs");
        }
        let json = render_json(&ctx, &r);
        assert!(json.contains("\"experiment\": \"kernels\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count(), "{json}");
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let md = render_markdown(&r);
        assert!(md.contains("Geometry kernel microbench"));
        assert!(md.contains("Device-latency sweep"));
    }
}
