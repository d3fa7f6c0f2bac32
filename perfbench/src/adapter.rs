//! The only module that calls into the library crates.
//!
//! Every workload reaches `nwc-core`, `nwc-rtree` (through the index),
//! `nwc-store` (through the disk-backed index) and `nwc-serve` through
//! the functions here, in the benchmark's own vocabulary: [`Query`],
//! [`Answer`], [`Counts`]. When the library's query API changes, this
//! file is the one to update; the workloads stay as they are.

use nwc_core::{
    CancelToken, DiskIndexConfig, KnwcQuery, MetricsSnapshot, NwcIndex, NwcQuery, PageLayout,
    Point, QueryScratch, Rect, SearchStats, WindowSpec,
};
use nwc_serve::protocol::{
    decode_response, encode_request, encode_scheme, write_frame, OkShape, QuerySpec, Request,
};
use nwc_serve::{
    FrameReader, IndexHandle, QueryOutcome, Response, ServeClient, Server, ServerConfig, WireGroup,
};
use std::io::Read;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// One query, as the workloads generate it. Windows are square.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Query {
    /// `NWC(q, w, w, n)`.
    Nwc { x: f64, y: f64, w: f64, n: u32 },
    /// `kNWC(k, q, w, w, n, m)`.
    Knwc {
        x: f64,
        y: f64,
        w: f64,
        n: u32,
        k: u32,
        m: u32,
    },
}

/// The optimisation schemes the benchmark uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// All four techniques (the paper's NWC\*).
    Star,
    /// SRR + DIP (the paper's NWC+).
    Plus,
    /// Distance-based pruning only: the reference for most answers.
    Dip,
    /// No optimisation at all: the reference for a sample of answers.
    Plain,
}

impl Scheme {
    fn lib(self) -> nwc_core::Scheme {
        match self {
            Scheme::Star => nwc_core::Scheme::NWC_STAR,
            Scheme::Plus => nwc_core::Scheme::NWC_PLUS,
            Scheme::Dip => nwc_core::Scheme::DIP,
            Scheme::Plain => nwc_core::Scheme::NWC,
        }
    }
}

/// The work counters of one search (the library's `SearchStats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub io_total: u64,
    pub io_traversal: u64,
    pub io_window: u64,
    pub objects_visited: u64,
    pub window_queries: u64,
    pub srr_skips: u64,
    pub dep_skips: u64,
    pub dip_pruned: u64,
    pub dep_pruned: u64,
    pub candidates: u64,
    pub qualified: u64,
    pub best_updates: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.io_total += o.io_total;
        self.io_traversal += o.io_traversal;
        self.io_window += o.io_window;
        self.objects_visited += o.objects_visited;
        self.window_queries += o.window_queries;
        self.srr_skips += o.srr_skips;
        self.dep_skips += o.dep_skips;
        self.dip_pruned += o.dip_pruned;
        self.dep_pruned += o.dep_pruned;
        self.candidates += o.candidates;
        self.qualified += o.qualified;
        self.best_updates += o.best_updates;
    }
}

impl From<&SearchStats> for Counts {
    fn from(s: &SearchStats) -> Self {
        Counts {
            io_total: s.io_total,
            io_traversal: s.io_traversal,
            io_window: s.io_window_queries,
            objects_visited: s.objects_visited,
            window_queries: s.window_queries,
            srr_skips: s.skipped_by_srr,
            dep_skips: s.skipped_by_dep,
            dip_pruned: s.nodes_pruned_by_dip,
            dep_pruned: s.nodes_pruned_by_dep,
            candidates: s.candidate_windows,
            qualified: s.qualified_windows,
            best_updates: s.best_updates,
        }
    }
}

/// One answer group: its score and its canonical (sorted) id set.
#[derive(Clone, Debug, PartialEq)]
pub struct Group {
    pub score: f64,
    pub ids: Vec<u32>,
}

impl Group {
    fn new(score: f64, ids: impl Iterator<Item = u32>) -> Group {
        let mut ids: Vec<u32> = ids.collect();
        ids.sort_unstable();
        Group { score, ids }
    }
}

/// A query answer: zero or one group for NWC, up to `k` for kNWC.
#[derive(Clone, Debug)]
pub struct Answer {
    pub groups: Vec<Group>,
    pub counts: Counts,
}

/// Buffer-pool counters of a disk-backed index (from
/// `MetricsSnapshot::capture`).
#[derive(Clone, Copy, Debug, Default)]
pub struct Pool {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub pinned: u64,
}

/// Reusable per-thread query buffers.
#[derive(Default)]
pub struct Scratch(QueryScratch);

/// An index, in memory or over a writable page file.
pub struct Index(NwcIndex);

fn run(
    index: &NwcIndex,
    q: &Query,
    scheme: Scheme,
    scratch: &mut Scratch,
) -> Result<Answer, String> {
    let cancel = CancelToken::none();
    match *q {
        Query::Nwc { x, y, w, n } => {
            let query = NwcQuery::new(Point::new(x, y), WindowSpec::square(w), n as usize);
            let (best, stats) = index
                .try_nwc_full_cancel(&query, scheme.lib(), &mut scratch.0, &cancel)
                .map_err(|e| format!("nwc: {e}"))?;
            let groups = best
                .map(|r| Group::new(r.distance, r.objects.iter().map(|e| e.id)))
                .into_iter()
                .collect();
            Ok(Answer {
                groups,
                counts: Counts::from(&stats),
            })
        }
        Query::Knwc { x, y, w, n, k, m } => {
            let query = KnwcQuery::new(
                Point::new(x, y),
                WindowSpec::square(w),
                n as usize,
                k as usize,
                m as usize,
            );
            let r = index
                .try_knwc_cancel(&query, scheme.lib(), &mut scratch.0, &cancel)
                .map_err(|e| format!("knwc: {e}"))?;
            let groups = r
                .groups
                .iter()
                .map(|g| Group::new(g.distance, g.objects.iter().map(|e| e.id)))
                .collect();
            Ok(Answer {
                groups,
                counts: Counts::from(&r.stats),
            })
        }
    }
}

fn pool_of(index: &NwcIndex) -> Option<Pool> {
    MetricsSnapshot::capture(index).pool.map(|p| Pool {
        hits: p.hits,
        misses: p.misses,
        evictions: p.evictions,
        pinned: p.pinned as u64,
    })
}

impl Index {
    /// Builds an in-memory index (R\*-tree, density grid, IWP).
    pub fn build(points: &[(f64, f64)]) -> Index {
        Index(NwcIndex::build(
            points.iter().map(|&(x, y)| Point::new(x, y)).collect(),
        ))
    }

    /// Writes the tree as a writable (v2) page file in clustered layout.
    pub fn save_writable(&self, path: &Path) -> Result<(), String> {
        self.0
            .save_tree_writable_with_layout(path, PageLayout::Clustered)
            .map_err(|e| format!("save {}: {e}", path.display()))
    }

    /// Opens a page file with a buffer pool of `frames` pages (`None`:
    /// unbounded).
    pub fn open(path: &Path, frames: Option<usize>) -> Result<Index, String> {
        let config = DiskIndexConfig {
            pool_capacity: frames,
            ..DiskIndexConfig::default()
        };
        NwcIndex::open_disk(path, config)
            .map(Index)
            .map_err(|e| format!("open {}: {e}", path.display()))
    }

    pub fn query(
        &self,
        q: &Query,
        scheme: Scheme,
        scratch: &mut Scratch,
    ) -> Result<Answer, String> {
        run(&self.0, q, scheme, scratch)
    }

    /// The Definition-3 answer to a kNWC query: the greedy selection
    /// over every qualified window, with distance pruning off
    /// (`knwc_exact`, which the library's property tests hold equal to
    /// the brute-force oracle). `None` for an NWC query.
    pub fn knwc_exact(&self, q: &Query) -> Option<Answer> {
        let Query::Knwc { x, y, w, n, k, m } = *q else {
            return None;
        };
        let query = KnwcQuery::new(
            Point::new(x, y),
            WindowSpec::square(w),
            n as usize,
            k as usize,
            m as usize,
        );
        let r = self.0.knwc_exact(&query, nwc_core::Scheme::NWC_STAR);
        Some(Answer {
            groups: r
                .groups
                .iter()
                .map(|g| Group::new(g.distance, g.objects.iter().map(|e| e.id)))
                .collect(),
            counts: Counts::from(&r.stats),
        })
    }

    pub fn insert(&mut self, (x, y): (f64, f64)) -> Result<u32, String> {
        self.0
            .insert(Point::new(x, y))
            .map_err(|e| format!("insert: {e}"))
    }

    pub fn remove(&mut self, id: u32) -> Result<(), String> {
        match self.0.remove(id) {
            Ok(true) => Ok(()),
            Ok(false) => Err(format!("remove: id {id} is not live")),
            Err(e) => Err(format!("remove: {e}")),
        }
    }

    pub fn commit(&mut self) -> Result<(), String> {
        self.0.commit().map_err(|e| format!("commit: {e}"))
    }

    /// Faults every node into the pool with one window query over the
    /// whole space.
    pub fn warm(&self) -> Result<(), String> {
        let all = Rect::new(
            Point::new(f64::MIN, f64::MIN),
            Point::new(f64::MAX, f64::MAX),
        );
        self.0
            .tree()
            .try_window_count(&all)
            .map(|_| ())
            .map_err(|e| format!("warm: {e}"))
    }

    pub fn pool(&self) -> Option<Pool> {
        pool_of(&self.0)
    }

    pub fn live_points(&self) -> usize {
        self.0.len()
    }
}

/// Server-side counters from the wire `Stats` scrape.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerCounters {
    pub shed: u64,
    pub deadline: u64,
}

/// An in-process `nwc-serve` server over a disk-backed index.
pub struct Service(Server);

impl Service {
    pub fn start(index: Index, workers: usize) -> Result<Service, String> {
        let config = ServerConfig {
            workers,
            ..ServerConfig::default()
        };
        Server::start(Arc::new(IndexHandle::new(index.0)), "127.0.0.1:0", config)
            .map(Service)
            .map_err(|e| format!("server start: {e}"))
    }

    pub fn addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    /// Runs `q` on the served generation in-process (through
    /// `Server::handle()`), bypassing the wire and the queue.
    pub fn core_query(
        &self,
        q: &Query,
        scheme: Scheme,
        scratch: &mut Scratch,
    ) -> Result<Answer, String> {
        let generation = self.0.handle().load();
        match &generation.index {
            nwc_serve::ServedIndex::Single(index) => run(index, q, scheme, scratch),
            nwc_serve::ServedIndex::Sharded(_) => Err("sharded generation".to_string()),
        }
    }

    pub fn pool(&self) -> Option<Pool> {
        let generation = self.0.handle().load();
        match &generation.index {
            nwc_serve::ServedIndex::Single(index) => pool_of(index),
            nwc_serve::ServedIndex::Sharded(_) => None,
        }
    }

    /// Scrapes the server counters over the wire.
    pub fn scrape(&self) -> Result<ServerCounters, String> {
        let text = ServeClient::connect(self.addr())
            .and_then(|mut c| c.stats())
            .map_err(|e| format!("stats scrape: {e}"))?;
        let mut out = ServerCounters::default();
        for line in text.lines() {
            let mut it = line.split_whitespace();
            let (Some(name), Some(value)) = (it.next(), it.next()) else {
                continue;
            };
            let value: u64 = value.parse().unwrap_or(0);
            match name {
                "server_shed_total" => out.shed = value,
                "server_deadline_total" => out.deadline = value,
                _ => {}
            }
        }
        Ok(out)
    }

    /// Stops the server and joins its threads.
    pub fn stop(self) {
        self.0.shutdown();
    }
}

/// How one wire request ended.
#[derive(Clone, Debug)]
pub enum Outcome {
    Answer(Answer),
    /// A typed non-answer (deadline, shed, partial, error), by name.
    Failed(String),
}

fn wire_answer(groups: &[WireGroup], stats: &SearchStats) -> Answer {
    Answer {
        groups: groups
            .iter()
            .map(|g| Group::new(g.distance, g.objects.iter().map(|o| o.id)))
            .collect(),
        counts: Counts::from(stats),
    }
}

fn wire_spec(q: &Query, scheme: Scheme, deadline: Duration) -> Result<QuerySpec, String> {
    let Query::Nwc { x, y, w, n } = *q else {
        return Err("the served workload sends NWC requests only".to_string());
    };
    Ok(QuerySpec {
        scheme_bits: encode_scheme(scheme.lib()),
        qx: x,
        qy: y,
        l: w,
        w,
        n,
        deadline_ms: deadline.as_millis() as u32,
    })
}

/// One length-prefixed NWC request frame, ready to write.
pub fn encode_nwc(
    request_id: u32,
    q: &Query,
    scheme: Scheme,
    deadline: Duration,
) -> Result<Vec<u8>, String> {
    let spec = wire_spec(q, scheme, deadline)?;
    let payload = encode_request(
        request_id,
        &Request::Nwc {
            spec,
            anytime: None,
        },
    );
    let mut frame = Vec::with_capacity(payload.len() + 4);
    write_frame(&mut frame, &payload).map_err(|e| format!("encode: {e}"))?;
    Ok(frame)
}

/// Reads response frames off a pipelined connection.
#[derive(Default)]
pub struct ResponseReader(FrameReader);

impl ResponseReader {
    /// The next response and the request id it answers.
    pub fn next(&mut self, r: &mut impl Read) -> Result<(u32, Outcome), String> {
        let payload = self.0.read_frame(r).map_err(|e| format!("read: {e}"))?;
        let (id, resp) =
            decode_response(payload, OkShape::Groups).map_err(|e| format!("decode: {e}"))?;
        let outcome = match resp {
            Response::Groups { groups, stats } => Outcome::Answer(wire_answer(&groups, &stats)),
            Response::Deadline => Outcome::Failed("deadline".into()),
            Response::Shed { .. } => Outcome::Failed("shed".into()),
            Response::Partial { .. } => Outcome::Failed("partial".into()),
            other => Outcome::Failed(format!("{other:?}")),
        };
        Ok((id, outcome))
    }
}

/// A blocking client for unloaded round trips (one request in flight).
pub struct Client(ServeClient);

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        ServeClient::connect(addr)
            .map(Client)
            .map_err(|e| format!("connect: {e}"))
    }

    pub fn query(
        &mut self,
        q: &Query,
        scheme: Scheme,
        deadline: Duration,
    ) -> Result<Outcome, String> {
        let s = wire_spec(q, scheme, deadline)?;
        let out = self
            .0
            .nwc(scheme.lib(), s.qx, s.qy, s.l, s.w, s.n, s.deadline_ms)
            .map_err(|e| format!("round trip: {e}"))?;
        Ok(match out {
            QueryOutcome::Answer { groups, stats } => Outcome::Answer(wire_answer(&groups, &stats)),
            other => Outcome::Failed(format!("{other:?}")),
        })
    }
}
