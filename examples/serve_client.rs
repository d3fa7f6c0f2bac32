//! The serving layer end-to-end: start an `nwc-serve` server in
//! process, speak the wire protocol to it, watch a deadline fire, and
//! hot-swap the index under the client's feet.
//!
//! Everything here also works across machines — the client only needs
//! the address — but an in-process server keeps the example
//! self-contained.
//!
//! Run with: `cargo run --example serve_client`

use nwc::prelude::*;
use nwc_serve::{IndexHandle, QueryOutcome, ServeClient, Server, ServerConfig};
use std::sync::Arc;

fn main() {
    // ---- two index generations on disk -------------------------------
    let dir = std::env::temp_dir().join(format!("nwc-serve-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let gen1 = dir.join("gen1.pages");
    let gen2 = dir.join("gen2.pages");
    for (path, seed) in [(&gen1, 7u64), (&gen2, 8u64)] {
        let dataset = Dataset::uniform(10_000, seed);
        NwcIndex::build(dataset.points)
            .save_tree_writable(path)
            .expect("saving page file");
    }

    // ---- serve generation 1 ------------------------------------------
    let config = ServerConfig {
        workers: 2,
        // Opt in to wire-driven Swap/Shutdown — off by default because
        // those opcodes carry no authentication.
        allow_control_plane: true,
        ..ServerConfig::default()
    };
    let index = NwcIndex::open_disk(&gen1, config.swap_config).expect("opening generation 1");
    let server = Server::start(Arc::new(IndexHandle::new(index)), "127.0.0.1:0", config)
        .expect("starting server");
    let addr = server.local_addr();
    println!("serving generation 1 on {addr}");

    // ---- the wire protocol, request by request -----------------------
    let mut client = ServeClient::connect(addr).expect("connecting");
    client.ping().expect("ping");

    // A plain NWC query under the paper's full scheme, 2 s deadline.
    match client
        .nwc(Scheme::NWC_STAR, 5_000.0, 5_000.0, 400.0, 400.0, 6, 2_000)
        .expect("nwc request")
    {
        QueryOutcome::Answer { groups, stats } => {
            let ids: Vec<u32> = groups[0].objects.iter().map(|o| o.id).collect();
            println!(
                "NWC*: group {ids:?} at distance {:.1} ({} node accesses)",
                groups[0].distance,
                stats.io_total,
            );
        }
        other => println!("NWC*: {other:?}"),
    }

    // kNWC: top-3 groups sharing at most one object.
    if let QueryOutcome::Answer { groups, .. } = client
        .knwc(Scheme::NWC_PLUS, 5_000.0, 5_000.0, 400.0, 400.0, 4, 3, 1, 2_000)
        .expect("knwc request")
    {
        println!("kNWC+: {} groups, best distance {:.1}", groups.len(), groups[0].distance);
    }

    // A 1 ms deadline on a cold index is (almost always) not enough:
    // the server answers with a typed Deadline, and the worker that ran
    // it is already serving the next request.
    match client
        .nwc(Scheme::NWC_STAR, 2_500.0, 7_500.0, 400.0, 400.0, 6, 1)
        .expect("tight-deadline request")
    {
        QueryOutcome::Deadline => println!("1 ms budget: typed Deadline response, worker intact"),
        other => println!("1 ms budget: finished anyway ({other:?})"),
    }

    // ---- zero-downtime hot-swap --------------------------------------
    let swap = client
        .swap(&gen2.display().to_string())
        .expect("swap request")
        .expect("server accepted the swap");
    println!(
        "hot-swap {} → {}: drained={} in {} µs, {} pinned frames leaked",
        swap.old_generation, swap.new_generation, swap.drained, swap.drain_us, swap.old_pinned,
    );

    // Same query, new generation, no reconnect.
    if let QueryOutcome::Answer { groups, .. } = client
        .nwc(Scheme::NWC_STAR, 5_000.0, 5_000.0, 400.0, 400.0, 6, 2_000)
        .expect("post-swap request")
    {
        println!("post-swap NWC*: best distance {:.1}", groups[0].distance);
    }

    // ---- the metrics scrape ------------------------------------------
    let stats = client.stats().expect("stats scrape");
    let interesting = ["server_generation", "server_completed_total", "latency_p99_us"];
    for line in stats.lines().filter(|l| interesting.iter().any(|k| l.starts_with(k))) {
        println!("scrape: {line}");
    }

    client.shutdown().expect("shutdown request");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    println!("server drained and stopped");
}
