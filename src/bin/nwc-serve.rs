//! `nwc-serve` — the NWC query service.
//!
//! ```text
//! nwc-serve serve <pages-file> [addr] [workers] [queue-depth] [default-deadline-ms]
//! nwc-serve --self-test
//! ```
//!
//! `serve` opens a page file written by `NwcIndex::save_tree_writable` and
//! serves the binary protocol (see `nwc-serve`'s crate docs) until a
//! client sends `Shutdown` or the process is killed. A running server
//! hot-swaps to a new page file when a client sends `Swap(path)`.
//!
//! `--self-test` is the end-to-end smoke used by `scripts/verify.sh`:
//! it builds two small datasets, saves them as two page-file
//! generations, starts a server on an ephemeral port, fires a few
//! hundred concurrent NWC/kNWC queries with mixed deadlines, hot-swaps
//! to the second generation mid-load, and exits non-zero unless every
//! request resolved to a typed outcome (answer, deadline, shed, or
//! stopped — never a protocol error, a worker loss, or a pin leak).

use nwc_core::{DiskIndexConfig, Scheme};
use nwc_datagen::Dataset;
use nwc_serve::{IndexHandle, QueryOutcome, ServeClient, Server, ServerConfig};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("--self-test") => self_test(),
        _ => {
            println!("nwc-serve — NWC query service over a saved page file\n");
            println!("  nwc-serve serve <pages-file> [addr] [workers] [queue] [deadline-ms]");
            println!("  nwc-serve --self-test");
            println!("\ndefaults: addr 127.0.0.1:7171, workers 4, queue 128, no default deadline");
            Ok(())
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn parse<T: std::str::FromStr>(args: &[String], i: usize, what: &str) -> Result<Option<T>, String> {
    match args.get(i) {
        None => Ok(None),
        Some(s) => s
            .parse()
            .map(Some)
            .map_err(|_| format!("cannot parse {what}: {s}")),
    }
}

fn serve(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing <pages-file>")?;
    let addr = args.get(1).cloned().unwrap_or_else(|| "127.0.0.1:7171".to_string());
    let mut config = ServerConfig {
        // The CLI's documented workflow includes wire-driven hot-swap
        // and shutdown, so the control plane is on — which means any
        // client that can reach the port can swap the index or stop
        // the process. Bind a loopback/trusted address accordingly.
        allow_control_plane: true,
        ..ServerConfig::default()
    };
    if let Some(workers) = parse(args, 2, "workers")? {
        config.workers = workers;
    }
    if let Some(queue) = parse(args, 3, "queue depth")? {
        config.queue_depth = queue;
    }
    if let Some(ms) = parse::<u64>(args, 4, "deadline-ms")? {
        config.default_deadline = Some(Duration::from_millis(ms));
    }
    let index = nwc_core::NwcIndex::open_disk(path, config.swap_config)
        .map_err(|e| format!("opening {path}: {e}"))?;
    let handle = Arc::new(IndexHandle::new(index));
    let server =
        Server::start(handle, &addr, config).map_err(|e| format!("binding {addr}: {e}"))?;
    println!(
        "serving {path} on {} ({} workers); send Shutdown to stop \
         (control plane open: any client may Swap/Shutdown)",
        server.local_addr(),
        config.workers
    );
    // Runs until a client sends the Shutdown opcode: park this thread
    // by re-joining the server (shutdown() blocks on the worker pool,
    // which only exits once the stop flag rises).
    server.shutdown_when_stopped();
    println!("server stopped");
    Ok(())
}

// ---------------------------------------------------------------------
// Self-test
// ---------------------------------------------------------------------

/// Per-thread tally of typed outcomes.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    answers: usize,
    empty: usize,
    deadline: usize,
    shed: usize,
    stopped: usize,
    bad: usize,
}

fn self_test() -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("nwc-serve-selftest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let result = self_test_in(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn self_test_in(dir: &std::path::Path) -> Result<(), String> {
    // Two generations: same space, different points, so answers differ
    // but every query is valid against either.
    let gen1 = dir.join("gen1.pages");
    let gen2 = dir.join("gen2.pages");
    for (path, seed) in [(&gen1, 1u64), (&gen2, 2u64)] {
        let dataset = Dataset::uniform(20_000, seed);
        nwc_core::NwcIndex::build(dataset.points)
            .save_tree_writable(path)
            .map_err(|e| format!("saving {}: {e}", path.display()))?;
    }

    let config = ServerConfig {
        workers: 4,
        queue_depth: 256,
        max_estimated_wait: Duration::from_secs(2),
        default_deadline: Some(Duration::from_secs(5)),
        swap_config: DiskIndexConfig::default(),
        allow_control_plane: true,
        shed_degrade_epsilon: None,
    };
    let index = nwc_core::NwcIndex::open_disk(&gen1, config.swap_config)
        .map_err(|e| format!("opening generation 1: {e}"))?;
    let server = Server::start(Arc::new(IndexHandle::new(index)), "127.0.0.1:0", config)
        .map_err(|e| format!("starting server: {e}"))?;
    let addr = server.local_addr();

    // 4 client threads × 100 mixed queries, a third with deliberately
    // tight (1 ms) deadlines to exercise the typed Deadline path.
    const THREADS: usize = 4;
    const PER_THREAD: usize = 100;
    let mut tallies: Vec<Result<Tally, String>> = Vec::new();
    let mut swap = Err("swap never ran".to_string());
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for t in 0..THREADS {
            joins.push(scope.spawn(move || client_load(addr, t)));
        }
        // Hot-swap mid-load from the main thread.
        std::thread::sleep(Duration::from_millis(30));
        swap = run_swap(addr, &gen2);
        for j in joins {
            tallies.push(j.join().unwrap_or_else(|_| Err("client thread panicked".into())));
        }
    });

    let swap = swap?;
    if swap.old_generation != 1 || swap.new_generation != 2 {
        return Err(format!("unexpected swap generations: {swap:?}"));
    }
    if swap.old_pinned != 0 {
        return Err(format!("pin leak across hot-swap: {} frames", swap.old_pinned));
    }

    let mut total = Tally::default();
    for t in tallies {
        let t = t?;
        total.answers += t.answers;
        total.empty += t.empty;
        total.deadline += t.deadline;
        total.shed += t.shed;
        total.stopped += t.stopped;
        total.bad += t.bad;
    }
    let sum = total.answers + total.empty + total.deadline + total.shed + total.stopped;
    if total.bad != 0 || sum != THREADS * PER_THREAD {
        return Err(format!("untyped or missing outcomes: {total:?}"));
    }
    if total.answers == 0 {
        return Err("no query produced an answer".to_string());
    }

    // The scrape must reflect the flip and the served load.
    let mut client =
        ServeClient::connect(addr).map_err(|e| format!("connecting for stats: {e}"))?;
    let stats = client.stats().map_err(|e| format!("stats scrape: {e}"))?;
    for needle in ["server_generation 2", "server_swaps_total 1", "latency_count"] {
        if !stats.contains(needle) {
            return Err(format!("stats scrape is missing `{needle}`:\n{stats}"));
        }
    }
    client.shutdown().map_err(|e| format!("shutdown request: {e}"))?;
    server.shutdown();
    println!(
        "self-test ok: {} answers, {} empty, {} deadline, {} shed, {} stopped across {} queries; \
         swap 1→2 drained={} in {} µs",
        total.answers,
        total.empty,
        total.deadline,
        total.shed,
        total.stopped,
        THREADS * PER_THREAD,
        swap.drained,
        swap.drain_us,
    );
    Ok(())
}

fn client_load(addr: std::net::SocketAddr, thread: usize) -> Result<Tally, String> {
    let mut client = ServeClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let queries = Dataset::query_points(100, 42 + thread as u64);
    let mut tally = Tally::default();
    for (i, q) in queries.iter().enumerate() {
        // Tight deadlines on every third query; generous otherwise.
        let deadline_ms = if i % 3 == 0 { 1 } else { 2_000 };
        let outcome = if i % 4 == 0 {
            client.knwc(Scheme::NWC_PLUS, q.x, q.y, 400.0, 400.0, 4, 3, 1, deadline_ms)
        } else {
            client.nwc(Scheme::NWC_STAR, q.x, q.y, 400.0, 400.0, 6, deadline_ms)
        };
        match outcome.map_err(|e| format!("query {i}: {e}"))? {
            QueryOutcome::Answer { groups, .. } if groups.is_empty() => tally.empty += 1,
            QueryOutcome::Answer { .. } => tally.answers += 1,
            QueryOutcome::Deadline | QueryOutcome::Partial { .. } => tally.deadline += 1,
            QueryOutcome::Shed { .. } => tally.shed += 1,
            QueryOutcome::Stopped => tally.stopped += 1,
            QueryOutcome::BadRequest(_) | QueryOutcome::IoFailed(_) => tally.bad += 1,
        }
    }
    Ok(tally)
}

fn run_swap(
    addr: std::net::SocketAddr,
    gen2: &std::path::Path,
) -> Result<nwc_serve::SwapOutcome, String> {
    let mut client = ServeClient::connect(addr).map_err(|e| format!("swap connect: {e}"))?;
    client
        .swap(&gen2.display().to_string())
        .map_err(|e| format!("swap request: {e}"))?
        .map_err(|msg| format!("server refused swap: {msg}"))
}
