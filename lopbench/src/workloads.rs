//! The four workloads.  Each is a closed loop from one client thread that
//! runs whole rounds of the same ops, checks every output, and logs the
//! wall time of each op.
//!
//! * `dnc` — mergesort plus Karatsuba: all time goes through `join`, the
//!   α·log₂ p cutoff and steals (Master-theorem cases 2 and 1).
//! * `graph-wide` — BFS plus union-find connectivity on a streamed
//!   G(n, m): about ten wide levels, so the blocked scan/pack/expand
//!   passes and the arena carry the time.
//! * `deep` — grid BFS plus a wavefront DP: hundreds of levels, each below
//!   one grain, so per-level synchronisation, wakeups and parks carry it.
//! * `serve` — a `JobService` with jobs in flight: admission, queueing,
//!   dispatch and retry sit on the path of every op.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lopram_core::{PalPool, TraceConfig};
use lopram_dnc::karatsuba::{karatsuba_mul, karatsuba_mul_seq};
use lopram_dnc::mergesort::{merge_sort, merge_sort_seq};
use lopram_dp::problems::edit_distance::EditDistance;
use lopram_dp::{solve_sequential, solve_wavefront};
use lopram_graph::bfs::{bfs_par, bfs_seq};
use lopram_graph::cc::components_seq;
use lopram_graph::uf::components_union_find;
use lopram_graph::{gen, CsrGraph};
use lopram_serve::{Fault, FaultPlan, JobService, JobSpec, RetryPolicy, ServeConfig};

use crate::check;
use crate::rng::Rng;
use crate::spans::Spans;

/// Processors of every pool the workloads run on: `nproc` of the host the
/// benchmark is calibrated on.
pub const P: usize = 2;

/// The workload names, in the order the benchmark lists them.
pub const NAMES: [&str; 4] = ["dnc", "graph-wide", "deep", "serve"];

/// Input sizes.  [`Scale::FULL`] is what the benchmark measures;
/// [`Scale::TINY`] lets the tests run every workload in moments.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Keys per mergesort.
    pub keys: usize,
    /// Coefficients per Karatsuba factor.
    pub poly: usize,
    /// Vertices and edges of the `graph-wide` G(n, m).
    pub gnm: (usize, usize),
    /// Side of the `deep` grid.
    pub grid: usize,
    /// Length of the `deep` edit-distance strings.
    pub text: usize,
    /// Keys per `serve` sort job.
    pub serve_keys: usize,
    /// Vertices and edges of the `serve` graph.
    pub serve_gnm: (usize, usize),
    /// Elements per sub-grain `serve` scan job.
    pub serve_scan: usize,
}

impl Scale {
    /// The sizes the benchmark measures.
    pub const FULL: Scale = Scale {
        keys: 1 << 20,
        poly: 1 << 13,
        gnm: (1 << 17, 1 << 20),
        grid: 384,
        text: 300,
        serve_keys: 1 << 15,
        serve_gnm: (1 << 14, 1 << 17),
        serve_scan: 192,
    };

    /// Small sizes for tests.
    pub const TINY: Scale = Scale {
        keys: 1 << 12,
        poly: 1 << 7,
        gnm: (1 << 10, 1 << 13),
        grid: 24,
        text: 24,
        serve_keys: 1 << 9,
        serve_gnm: (1 << 8, 1 << 10),
        serve_scan: 64,
    };
}

/// A `p`-processor pool, optionally recording a `DagTrace`.
pub fn pool(p: usize, traced: bool) -> PalPool {
    let builder = PalPool::builder().processors(p);
    let builder = if traced {
        // Room for one op of the largest workload (a 2^20-key mergesort)
        // per drain, so no event is dropped.
        builder.trace(TraceConfig {
            capacity_per_worker: 1 << 19,
        })
    } else {
        builder
    };
    builder.build().expect("p > 0")
}

/// One serve job's measured path, from its report.
#[derive(Debug, Clone, Copy)]
pub struct JobSample {
    /// Submit to report reaching the client.
    pub round_trip: Duration,
    /// Time inside `JobService::submit`.
    pub submit: Duration,
    /// `JobReport::queue_wait`.
    pub queue_wait: Duration,
    /// `JobReport::run_time`.
    pub run_time: Duration,
    /// `JobReport::attempts`.
    pub attempts: u32,
    /// A sub-grain scan job.
    pub small: bool,
}

/// What a timed loop saw.
#[derive(Debug, Default)]
pub struct OpLog {
    /// Wall time of every completed op, in ms.
    pub op_ms: Vec<f64>,
    /// Ops started.
    pub attempted: u64,
    /// Ops that ended in an error (a rejected submit or a failed job).
    pub failed: u64,
    /// Submits the service refused for lack of queue space.
    pub rejected: u64,
    /// Outputs that failed their check (first few kept in `errors`).
    pub wrong: u64,
    /// Descriptions of the first wrong outputs and failures.
    pub errors: Vec<String>,
    /// Serve jobs' samples (kept only when `traced`).
    pub jobs: Vec<JobSample>,
    /// A traced loop: drain the pool's `DagTrace` after every op and keep
    /// every serve job's sample.  An untraced loop keeps no per-job sample,
    /// so its peak RSS does not grow with the number of ops it managed.
    pub traced: bool,
    /// Trace events recorded and dropped across drains.
    pub trace_events: u64,
    /// Trace events dropped for lack of buffer space.
    pub trace_dropped: u64,
    /// Process CPU time of the benchmark's own work between ops (input
    /// copies and output checks), which is not charged to the ops.
    pub bench_cpu: Duration,
}

impl OpLog {
    fn verdict(&mut self, check: check::Check) {
        if let Err(e) = check {
            self.wrong += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    fn failure(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Run benchmark-side work and charge its process CPU time to
    /// [`bench_cpu`](Self::bench_cpu).
    fn bench<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let cpu = crate::host::process_cpu();
        let out = f(self);
        self.bench_cpu += crate::host::process_cpu().saturating_sub(cpu);
        out
    }

    fn after_op(&mut self, pool: &PalPool) {
        if self.traced {
            if let Some(trace) = pool.take_trace() {
                self.trace_events += trace.events.len() as u64;
                self.trace_dropped += trace.dropped;
            }
        }
    }
}

/// A kernel call on its own, with its sequential twin: the unit the
/// per-kernel ledger and the model replay measure.
pub struct Kernel {
    /// Metric name of the kernel (`sort`, `bfs_wide`, ...).
    pub name: &'static str,
    /// The parallel kernel on a given pool; returns a value to keep the
    /// work observable.
    pub par: Box<dyn Fn(&PalPool) -> u64>,
    /// The sequential twin.
    pub seq: Box<dyn Fn() -> u64>,
}

/// A workload: inputs, the pool or service its ops run on, and its op.
pub trait Workload {
    /// Ops in one round.  Every run attempts whole rounds.
    fn ops_per_round(&self) -> usize;
    /// Run one round; its ops are numbered from `first`.
    fn round(&mut self, first: u64, log: &mut OpLog, spans: &mut Spans);
    /// Wait for ops still in flight (the serve client's window).
    fn drain(&mut self, _log: &mut OpLog, _spans: &mut Spans) {}
    /// The pool the ops run on.
    fn pool(&self) -> &PalPool;
    /// Run the ops on `pool` from now on.  `false` when the pool is not
    /// the benchmark's to choose (the service builds its own).
    fn set_pool(&mut self, pool: PalPool) -> bool;
    /// The kernels one op calls, on the op's first inputs.
    fn op_kernels(&self) -> Vec<Kernel>;
}

/// Build `name`'s inputs and pool from `seed`.
pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "dnc" => Box::new(Dnc::new(seed, scale, 2)),
        "graph-wide" => Box::new(GraphWide::new(seed, scale, 4)),
        "deep" => Box::new(Deep::new(seed, scale)),
        "serve" => Box::new(Serve::new(seed, scale)),
        _ => return None,
    })
}

/// Run whole rounds until the pool's arena stops growing (at most
/// `max_rounds`); returns the next op id.
pub fn warm(w: &mut dyn Workload, first: u64, max_rounds: usize, log: &mut OpLog) -> u64 {
    let mut spans = Spans::new(false);
    let mut op = first;
    for _ in 0..max_rounds {
        let before = w.pool().metrics().snapshot().arena_bytes;
        w.round(op, log, &mut spans);
        w.drain(log, &mut spans);
        op += w.ops_per_round() as u64;
        if w.pool().metrics().snapshot().arena_bytes == before {
            break;
        }
    }
    op
}

fn elapsed_ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

// ---------------------------------------------------------------- dnc

struct DncSet {
    keys: Vec<i64>,
    sorted: Vec<i64>,
    a: Vec<i64>,
    b: Vec<i64>,
}

/// Mergesort of seeded keys plus a Karatsuba product of two seeded
/// polynomials per op.
pub struct Dnc {
    sets: Vec<Arc<DncSet>>,
    points: Vec<u64>,
    buf: Vec<i64>,
    pool: PalPool,
}

impl Dnc {
    /// `sets` input sets; op `i` uses set `i mod sets`.
    pub fn new(seed: u64, scale: Scale, sets: usize) -> Self {
        let mut rng = Rng::new(seed, 1);
        let sets = (0..sets)
            .map(|_| {
                let keys: Vec<i64> = (0..scale.keys).map(|_| rng.next_u64() as i64).collect();
                let mut sorted = keys.clone();
                sorted.sort_unstable();
                let a = (0..scale.poly).map(|_| rng.signed(1 << 20)).collect();
                let b = (0..scale.poly).map(|_| rng.signed(1 << 20)).collect();
                Arc::new(DncSet { keys, sorted, a, b })
            })
            .collect();
        Dnc {
            sets,
            points: (0..4).map(|_| rng.next_u64()).collect(),
            buf: vec![0; scale.keys],
            pool: pool(P, false),
        }
    }
}

impl Workload for Dnc {
    fn ops_per_round(&self) -> usize {
        self.sets.len()
    }

    fn round(&mut self, first: u64, log: &mut OpLog, spans: &mut Spans) {
        for (i, set) in self.sets.iter().enumerate() {
            let op = first + i as u64;
            log.bench(|_| self.buf.copy_from_slice(&set.keys));
            log.attempted += 1;
            let t = Instant::now();
            let span = spans.begin("bench", "op", op);
            spans.time("kernel", "merge_sort", op, || {
                merge_sort(&self.pool, &mut self.buf)
            });
            let prod = spans.time("kernel", "karatsuba_mul", op, || {
                karatsuba_mul(&self.pool, &set.a, &set.b)
            });
            spans.end(span);
            log.op_ms.push(elapsed_ms(t));
            log.after_op(&self.pool);
            spans.time("check", "sort+karatsuba", op, || {
                log.bench(|log| {
                    log.verdict(check::sorted_keys(&self.buf, &set.sorted));
                    log.verdict(check::poly_product(&set.a, &set.b, &prod, &self.points));
                })
            });
        }
    }

    fn pool(&self) -> &PalPool {
        &self.pool
    }

    fn set_pool(&mut self, pool: PalPool) -> bool {
        self.pool = pool;
        true
    }

    fn op_kernels(&self) -> Vec<Kernel> {
        let (s1, s2, s3, s4) = (
            self.sets[0].clone(),
            self.sets[0].clone(),
            self.sets[0].clone(),
            self.sets[0].clone(),
        );
        vec![
            Kernel {
                name: "sort",
                par: Box::new(move |pool| {
                    let mut v = s1.keys.clone();
                    merge_sort(pool, &mut v);
                    v[v.len() / 2] as u64
                }),
                seq: Box::new(move || {
                    let mut v = s2.keys.clone();
                    merge_sort_seq(&mut v);
                    v[v.len() / 2] as u64
                }),
            },
            Kernel {
                name: "karatsuba",
                par: Box::new(move |pool| karatsuba_mul(pool, &s3.a, &s3.b)[1] as u64),
                seq: Box::new(move || karatsuba_mul_seq(&s4.a, &s4.b)[1] as u64),
            },
        ]
    }
}

// --------------------------------------------------------- graph-wide

/// BFS from a seeded source plus union-find connectivity on a streamed
/// G(n, m) per op.
pub struct GraphWide {
    g: Arc<CsrGraph>,
    sources: Vec<usize>,
    labels: Vec<usize>,
    pool: PalPool,
}

impl GraphWide {
    /// `sources` seeded BFS sources; op `i` searches from source `i mod
    /// sources`.
    pub fn new(seed: u64, scale: Scale, sources: usize) -> Self {
        let (n, m) = scale.gnm;
        let g = gen::gnm_streamed(n, m, seed);
        let mut rng = Rng::new(seed, 2);
        let sources = (0..sources).map(|_| rng.below(n)).collect();
        let labels = check::component_minima(&g);
        GraphWide {
            g: Arc::new(g),
            sources,
            labels,
            pool: pool(P, false),
        }
    }

    /// The graph, for the union-find phase metering.
    pub fn graph(&self) -> &CsrGraph {
        &self.g
    }
}

impl Workload for GraphWide {
    fn ops_per_round(&self) -> usize {
        self.sources.len()
    }

    fn round(&mut self, first: u64, log: &mut OpLog, spans: &mut Spans) {
        for (i, &src) in self.sources.iter().enumerate() {
            let op = first + i as u64;
            log.attempted += 1;
            let t = Instant::now();
            let span = spans.begin("bench", "op", op);
            let dist = spans.time("kernel", "bfs_par", op, || {
                bfs_par(&self.g, &self.pool, src)
            });
            let labels = spans.time("kernel", "components_union_find", op, || {
                components_union_find(&self.g, &self.pool)
            });
            spans.end(span);
            log.op_ms.push(elapsed_ms(t));
            log.after_op(&self.pool);
            spans.time("check", "bfs+cc", op, || {
                log.bench(|log| {
                    log.verdict(check::bfs_certificate(&self.g, src, &dist));
                    log.verdict(check::labels(&labels, &self.labels));
                })
            });
        }
    }

    fn pool(&self) -> &PalPool {
        &self.pool
    }

    fn set_pool(&mut self, pool: PalPool) -> bool {
        self.pool = pool;
        true
    }

    fn op_kernels(&self) -> Vec<Kernel> {
        let (g1, g2, g3, g4) = (
            self.g.clone(),
            self.g.clone(),
            self.g.clone(),
            self.g.clone(),
        );
        let src = self.sources[0];
        vec![
            Kernel {
                name: "bfs_wide",
                par: Box::new(move |pool| bfs_par(&g1, pool, src)[0] as u64),
                seq: Box::new(move || bfs_seq(&g2, src)[0] as u64),
            },
            Kernel {
                name: "cc_wide",
                par: Box::new(move |pool| components_union_find(&g3, pool)[1] as u64),
                seq: Box::new(move || components_seq(&g4)[1] as u64),
            },
        ]
    }
}

// --------------------------------------------------------------- deep

struct Text {
    problem: Arc<EditDistance>,
    distance: u32,
}

/// Grid BFS from a corner plus a wavefront edit distance per op.
pub struct Deep {
    grid: Arc<CsrGraph>,
    side: usize,
    corners: Vec<usize>,
    texts: Vec<Text>,
    pool: PalPool,
}

impl Deep {
    /// The four corners in a seeded order, and two seeded string pairs:
    /// a random string over four letters and a copy with about one edit
    /// in eight.
    pub fn new(seed: u64, scale: Scale) -> Self {
        let side = scale.grid;
        let mut rng = Rng::new(seed, 3);
        let mut corners = vec![0, side - 1, side * (side - 1), side * side - 1];
        rng.shuffle(&mut corners);
        let texts = (0..2)
            .map(|_| {
                let a: Vec<u8> = (0..scale.text).map(|_| b"acgt"[rng.below(4)]).collect();
                let mut b = Vec::with_capacity(a.len() + a.len() / 8);
                for &c in &a {
                    match rng.below(24) {
                        0 => {}
                        1 => b.extend([c, b"acgt"[rng.below(4)]]),
                        2 => b.push(b"acgt"[rng.below(4)]),
                        _ => b.push(c),
                    }
                }
                let distance = check::edit_distance_two_row(&a, &b);
                Text {
                    problem: Arc::new(EditDistance::new(a, b)),
                    distance,
                }
            })
            .collect();
        Deep {
            grid: Arc::new(gen::grid(side, side)),
            side,
            corners,
            texts,
            pool: pool(P, false),
        }
    }
}

impl Workload for Deep {
    fn ops_per_round(&self) -> usize {
        self.corners.len()
    }

    fn round(&mut self, first: u64, log: &mut OpLog, spans: &mut Spans) {
        for (i, &corner) in self.corners.iter().enumerate() {
            let op = first + i as u64;
            let text = &self.texts[i % self.texts.len()];
            log.attempted += 1;
            let t = Instant::now();
            let span = spans.begin("bench", "op", op);
            let dist = spans.time("kernel", "bfs_par", op, || {
                bfs_par(&self.grid, &self.pool, corner)
            });
            let distance = spans.time("kernel", "solve_wavefront", op, || {
                solve_wavefront(text.problem.as_ref(), &self.pool).goal
            });
            spans.end(span);
            log.op_ms.push(elapsed_ms(t));
            log.after_op(&self.pool);
            spans.time("check", "grid+edit", op, || {
                log.bench(|log| {
                    log.verdict(check::grid_distances(self.side, self.side, corner, &dist));
                    log.verdict(check::edit_distance(distance, text.distance));
                })
            });
        }
    }

    fn pool(&self) -> &PalPool {
        &self.pool
    }

    fn set_pool(&mut self, pool: PalPool) -> bool {
        self.pool = pool;
        true
    }

    fn op_kernels(&self) -> Vec<Kernel> {
        let (g1, g2) = (self.grid.clone(), self.grid.clone());
        let (e1, e2) = (self.texts[0].problem.clone(), self.texts[0].problem.clone());
        let corner = self.corners[0];
        vec![
            Kernel {
                name: "bfs_deep",
                par: Box::new(move |pool| bfs_par(&g1, pool, corner)[0] as u64),
                seq: Box::new(move || bfs_seq(&g2, corner)[0] as u64),
            },
            Kernel {
                name: "dp",
                par: Box::new(move |pool| u64::from(solve_wavefront(e1.as_ref(), pool).goal)),
                seq: Box::new(move || u64::from(solve_sequential(e2.as_ref()).goal)),
            },
        ]
    }
}

// -------------------------------------------------------------- serve

/// Jobs kept in flight by the serve client: more than one, so the
/// executor never waits on the client.
pub const IN_FLIGHT: usize = 4;

/// Submission indices the fault plan covers.
const MAX_JOBS: u64 = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Job {
    Sort(usize),
    Bfs(usize),
    Cc,
    Scan(usize),
}

struct ServeInputs {
    g: CsrGraph,
    keys: Vec<Vec<i64>>,
    sources: Vec<usize>,
    scans: Vec<Vec<u64>>,
}

impl ServeInputs {
    fn run(&self, job: Job, pool: &PalPool) -> u64 {
        match job {
            Job::Sort(k) => {
                let mut v = self.keys[k].clone();
                merge_sort(pool, &mut v);
                check::fold_digest(v.into_iter().map(|x| x as u64))
            }
            Job::Bfs(k) => check::fold_digest(
                bfs_par(&self.g, pool, self.sources[k])
                    .into_iter()
                    .map(|d| d as u64),
            ),
            Job::Cc => check::fold_digest(
                components_union_find(&self.g, pool)
                    .into_iter()
                    .map(|l| l as u64),
            ),
            Job::Scan(k) => {
                let s = pool.scan_copy(&self.scans[k], 0u64, u64::wrapping_add);
                check::fold_digest(s.exclusive.into_iter().chain([s.total]))
            }
        }
    }

    /// `job` through the sequential twins of its kernels.
    fn run_seq(&self, job: Job) -> u64 {
        match job {
            Job::Sort(k) => {
                let mut v = self.keys[k].clone();
                merge_sort_seq(&mut v);
                check::fold_digest(v.into_iter().map(|x| x as u64))
            }
            Job::Bfs(k) => check::fold_digest(
                bfs_seq(&self.g, self.sources[k])
                    .into_iter()
                    .map(|d| d as u64),
            ),
            Job::Cc => check::fold_digest(components_seq(&self.g).into_iter().map(|l| l as u64)),
            Job::Scan(_) => self.expected(job),
        }
    }

    /// The digest `job` must produce, from the benchmark's own references.
    fn expected(&self, job: Job) -> u64 {
        match job {
            Job::Sort(k) => {
                let mut v = self.keys[k].clone();
                v.sort_unstable();
                check::fold_digest(v.into_iter().map(|x| x as u64))
            }
            Job::Bfs(k) => check::fold_digest(
                check::bfs_reference(&self.g, self.sources[k])
                    .into_iter()
                    .map(|d| d as u64),
            ),
            Job::Cc => check::fold_digest(
                check::component_minima(&self.g)
                    .into_iter()
                    .map(|l| l as u64),
            ),
            Job::Scan(k) => {
                let mut acc = 0u64;
                let mut out = Vec::with_capacity(self.scans[k].len() + 1);
                for &x in &self.scans[k] {
                    out.push(acc);
                    acc = acc.wrapping_add(x);
                }
                out.push(acc);
                check::fold_digest(out)
            }
        }
    }
}

struct InFlight {
    ticket: lopram_serve::JobTicket,
    job: Job,
    submitted: Instant,
    submit: Duration,
}

/// A job service over a p = 2 pool with one executor; the client keeps
/// [`IN_FLIGHT`] jobs in flight.  A round is 16 jobs in a seeded order:
/// four mergesorts, four BFS and four union-find runs on a shared graph,
/// and four sub-grain scans; the job in one seeded slot of every round is
/// fault-cancelled on its first attempt and healed by one retry.
pub struct Serve {
    inputs: Arc<ServeInputs>,
    round: Vec<Job>,
    expected: Vec<u64>,
    inflight: VecDeque<InFlight>,
    service: JobService,
}

impl Serve {
    /// Inputs, job order and faulted slot from `seed`.
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (n, m) = scale.serve_gnm;
        let mut rng = Rng::new(seed, 4);
        let inputs = ServeInputs {
            g: gen::gnm_streamed(n, m, seed ^ 0x5e7e),
            keys: (0..4)
                .map(|_| {
                    (0..scale.serve_keys)
                        .map(|_| rng.next_u64() as i64)
                        .collect()
                })
                .collect(),
            sources: (0..4).map(|_| rng.below(n)).collect(),
            scans: (0..4)
                .map(|_| (0..scale.serve_scan).map(|_| rng.next_u64()).collect())
                .collect(),
        };
        let mut round: Vec<Job> = (0..4)
            .flat_map(|k| [Job::Sort(k), Job::Bfs(k), Job::Cc, Job::Scan(k)])
            .collect();
        rng.shuffle(&mut round);
        let expected = round.iter().map(|&j| inputs.expected(j)).collect();
        let faulted = rng.below(round.len()) as u64;
        let per_round = round.len() as u64;
        let fault_plan = (0..MAX_JOBS / per_round).fold(FaultPlan::none(), |plan, r| {
            plan.inject(r * per_round + faulted, Fault::Cancel { at_step: 1 })
        });
        let service = JobService::start(ServeConfig {
            processors: P,
            executors: 1,
            queue_capacity: 64,
            fault_plan,
            retry: RetryPolicy {
                max_retries: 1,
                ..RetryPolicy::default()
            },
            ..ServeConfig::default()
        });
        Serve {
            inputs: Arc::new(inputs),
            round,
            expected,
            inflight: VecDeque::new(),
            service,
        }
    }

    fn complete_oldest(&mut self, log: &mut OpLog, spans: &mut Spans) {
        let Some(f) = self.inflight.pop_front() else {
            return;
        };
        let op = f.ticket.id();
        let report = spans.time("serve", "wait", op, || f.ticket.wait());
        let round_trip = f.submitted.elapsed();
        log.op_ms.push(round_trip.as_secs_f64() * 1e3);
        if log.traced {
            log.jobs.push(JobSample {
                round_trip,
                submit: f.submit,
                queue_wait: report.queue_wait,
                run_time: report.run_time,
                attempts: report.attempts,
                small: matches!(f.job, Job::Scan(_)),
            });
        }
        let slot = (op % self.round.len() as u64) as usize;
        match report.outcome {
            Ok(digest) => log.verdict(check::digest(op, digest, self.expected[slot])),
            Err(e) => log.failure(format!("serve: job {op} failed: {e}")),
        }
    }
}

impl Workload for Serve {
    fn ops_per_round(&self) -> usize {
        self.round.len()
    }

    fn round(&mut self, first: u64, log: &mut OpLog, spans: &mut Spans) {
        assert!(
            first + self.round.len() as u64 <= MAX_JOBS,
            "serve run outgrew its fault plan"
        );
        for (i, &job) in self.round.clone().iter().enumerate() {
            let op = first + i as u64;
            if self.inflight.len() == IN_FLIGHT {
                self.complete_oldest(log, spans);
            }
            let inputs = self.inputs.clone();
            let spec = JobSpec::new(0, move |cx| {
                cx.step();
                inputs.run(job, cx.pool())
            });
            log.attempted += 1;
            let submitted = Instant::now();
            let result = spans.time("serve", "submit", op, || self.service.submit(spec));
            let submit = submitted.elapsed();
            match result {
                Ok(ticket) => {
                    assert_eq!(ticket.id(), op, "job ids follow submission order");
                    self.inflight.push_back(InFlight {
                        ticket,
                        job,
                        submitted,
                        submit,
                    });
                }
                Err(e) => {
                    log.rejected +=
                        u64::from(matches!(e, lopram_serve::SubmitError::Rejected { .. }));
                    log.failure(format!("serve: submit of op {op} refused: {e}"));
                }
            }
        }
    }

    fn drain(&mut self, log: &mut OpLog, spans: &mut Spans) {
        while !self.inflight.is_empty() {
            self.complete_oldest(log, spans);
        }
    }

    fn pool(&self) -> &PalPool {
        self.service.pool()
    }

    fn set_pool(&mut self, _pool: PalPool) -> bool {
        false
    }

    fn op_kernels(&self) -> Vec<Kernel> {
        [
            ("serve_sort", Job::Sort(0)),
            ("serve_bfs", Job::Bfs(0)),
            ("serve_cc", Job::Cc),
            ("serve_scan", Job::Scan(0)),
        ]
        .into_iter()
        .map(|(name, job)| {
            let (i1, i2) = (self.inputs.clone(), self.inputs.clone());
            Kernel {
                name,
                par: Box::new(move |pool| i1.run(job, pool)),
                seq: Box::new(move || i2.run_seq(job)),
            }
        })
        .collect()
    }
}
