//! One benchmark run: set-up, the timed closed loop, and the metrics.
//!
//! A run with tracing off reports the end-to-end metrics.  A run with
//! tracing on is a separate process: it times the workload once without
//! and once with the tracer (pool `DagTrace` plus the benchmark's spans),
//! and then measures each layer on its own — the kernel ledger, the
//! blocked primitives, an empty `join`, the service, and the replay
//! model's prediction for one op.

use std::hint::black_box;
use std::time::{Duration, Instant};

use lopram_core::{MetricsSnapshot, PalPool};
use lopram_graph::uf::{components_union_find_metered, UnionFindConfig};
use lopram_sim::{ReplayGrain, TraceReplay};

use crate::host::{self, HostDelta, HostSample};
use crate::report::{median, quantile, Outcome, KERNELS};
use crate::rng::mix;
use crate::spans::Spans;
use crate::workloads::{self, Deep, Dnc, GraphWide, Kernel, OpLog, Scale, Serve, Workload, P};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Rounds the warm-up may take before the arena must have stopped growing.
const WARM_ROUNDS: usize = 6;

/// Repetitions of each ledger, primitive and replay measurement.
const REPS: usize = 5;

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// One of [`workloads::NAMES`].
    pub workload: String,
    /// Seed of every input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Run the traced, per-layer measurement instead of the timed one.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Where to write the traced run's spans (`None`: keep them in memory).
    pub span_dir: Option<std::path::PathBuf>,
}

/// Run `cfg`; `Err` for an unknown workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    if !workloads::NAMES.contains(&cfg.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; expected one of {:?}",
            cfg.workload,
            workloads::NAMES
        ));
    }
    Ok(if cfg.trace { traced(cfg) } else { timed(cfg) })
}

fn build(cfg: &Config) -> Box<dyn Workload> {
    workloads::build(&cfg.workload, cfg.seed, cfg.scale).expect("name checked in run")
}

/// Counters over one timed window.
struct Window {
    wall: Duration,
    host: HostDelta,
    pool: MetricsSnapshot,
    ops: u64,
    next_op: u64,
}

/// Run whole rounds until `seconds` have passed (at least one round).
fn timed_loop(
    w: &mut dyn Workload,
    first: u64,
    seconds: f64,
    log: &mut OpLog,
    spans: &mut Spans,
) -> Window {
    let attempted = log.attempted;
    let m0 = w.pool().metrics().snapshot();
    let h0 = HostSample::now();
    let t0 = Instant::now();
    let mut op = first;
    loop {
        w.round(op, log, spans);
        op += w.ops_per_round() as u64;
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    w.drain(log, spans);
    let wall = t0.elapsed();
    Window {
        wall,
        host: HostSample::now().since(&h0),
        pool: w.pool().metrics().snapshot().delta_since(&m0),
        ops: log.attempted - attempted,
        next_op: op,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn note_errors(out: &mut Outcome, logs: &[&OpLog]) {
    for log in logs {
        out.correct &= log.wrong == 0;
        for e in &log.errors {
            out.notes.push(format!("error: {e}"));
        }
    }
}

fn host_notes(out: &mut Outcome, win: &Window) {
    let ops = win.ops.max(1) as f64;
    out.notes.push(format!(
        "host.steal_pct {:.2} %  sched.run_delay_ms_per_op {:.4} ms  sched.vol_ctx_switches_per_op {:.2}",
        win.host.steal_pct,
        ms(win.host.run_delay) / ops,
        win.host.vol_ctx as f64 / ops
    ));
}

/// Build the workload and warm it up; returns it with its next op id and
/// the set-up's wall time in seconds.
fn set_up(cfg: &Config, warm_log: &mut OpLog) -> (Box<dyn Workload>, u64, f64) {
    let t = Instant::now();
    let mut w = build(cfg);
    let next = workloads::warm(w.as_mut(), 0, WARM_ROUNDS, warm_log);
    (w, next, t.elapsed().as_secs_f64())
}

/// The closed loop's wall-time figures (see [`crate::report::LOOP`]).
fn loop_figures(log: &OpLog, win: &Window) -> [(&'static str, f64); 3] {
    [
        (
            "loop.ops_per_s",
            (win.ops - log.failed) as f64 / win.wall.as_secs_f64(),
        ),
        ("loop.op_ms_p50", median(&log.op_ms)),
        ("loop.op_ms_p90", quantile(&log.op_ms, 0.9)),
    ]
}

/// Process CPU per op, less the benchmark's own copies and checks.
fn cpu_per_op(log: &OpLog, win: &Window) -> f64 {
    ms(win.host.cpu.saturating_sub(log.bench_cpu)) / win.ops.max(1) as f64
}

/// The end-to-end measurement: one set-up, one closed loop of `seconds`
/// with tracing off, then further set-ups that are only timed.
fn timed(cfg: &Config) -> Outcome {
    let mut warm_log = OpLog::default();
    let (mut w, first, setup) = set_up(cfg, &mut warm_log);
    let mut log = OpLog::default();
    let win = timed_loop(
        w.as_mut(),
        first,
        cfg.seconds,
        &mut log,
        &mut Spans::new(false),
    );
    // Read before the extra set-ups: a set-up built while the previous
    // one's freed memory is still held by the allocator would raise the
    // peak by an amount that differs from run to run.
    let peak_rss = host::peak_rss_mb();
    drop(w);
    let mut setups = vec![setup];
    for _ in 1..SETUP_REPS {
        let (w, _, t) = set_up(cfg, &mut warm_log);
        setups.push(t);
        drop(w);
    }

    let mut out = Outcome {
        correct: true,
        attempted: log.attempted,
        failed: log.failed,
        ..Outcome::default()
    };
    out.notes.push(host::describe());
    out.metric("setup_s", median(&setups));
    out.metric("cpu_ms_per_op", cpu_per_op(&log, &win));
    out.metric("peak_rss_mb", peak_rss);
    let figures = loop_figures(&log, &win);
    out.notes.push(format!(
        "{} {:.4} 1/s  {} {:.4} ms  {} {:.4} ms  over {} ops; set-ups {setups:.3?} s",
        figures[0].0,
        figures[0].1,
        figures[1].0,
        figures[1].1,
        figures[2].0,
        figures[2].1,
        log.op_ms.len()
    ));
    host_notes(&mut out, &win);
    note_errors(&mut out, &[&warm_log, &log]);
    out
}

/// The per-layer measurement.
fn traced(cfg: &Config) -> Outcome {
    let mut warm_log = OpLog::default();
    let mut w = build(cfg);
    let op = workloads::warm(w.as_mut(), 0, WARM_ROUNDS, &mut warm_log);

    // The same loop without, then with, the tracer: their p50s give the
    // tracing overhead.
    let mut plain = OpLog::default();
    let a = timed_loop(
        w.as_mut(),
        op,
        cfg.seconds * 0.3,
        &mut plain,
        &mut Spans::new(false),
    );
    let mut op = a.next_op;
    if w.set_pool(workloads::pool(P, true)) {
        op = workloads::warm(w.as_mut(), op, WARM_ROUNDS, &mut warm_log);
        w.pool().take_trace();
    }
    let mut log = OpLog {
        traced: true,
        ..OpLog::default()
    };
    let mut spans = Spans::new(true);
    let b = timed_loop(w.as_mut(), op, cfg.seconds * 0.5, &mut log, &mut spans);

    let mut out = Outcome {
        correct: true,
        attempted: plain.attempted + log.attempted,
        failed: plain.failed + log.failed,
        ..Outcome::default()
    };
    out.notes.push(host::describe());
    let ops = b.ops.max(1) as f64;

    for (name, value) in loop_figures(&plain, &a) {
        out.metric(name, value);
    }
    ledger(cfg, &mut out);
    for (name, value) in primitives(w.pool(), cfg.scale) {
        out.metric(name, value);
    }
    out.metric(
        "prim.arena_bytes_per_op",
        b.pool.arena_bytes as i64 as f64 / ops,
    );
    out.metric("sched.forks_per_op", b.pool.forks() as f64 / ops);
    out.metric("sched.spawned_per_op", b.pool.spawned as f64 / ops);
    out.metric("sched.elided_per_op", b.pool.elided as f64 / ops);
    out.metric("sched.steals_per_op", b.pool.steals as f64 / ops);
    out.metric("sched.join_ns", join_ns(w.pool()));
    out.metric("sched.vol_ctx_switches_per_op", b.host.vol_ctx as f64 / ops);
    out.metric("sched.run_delay_ms_per_op", ms(b.host.run_delay) / ops);

    // The serve layer: this run's own jobs on `serve`, otherwise a short
    // session of the serve workload on the same seed.
    let mut session = OpLog {
        traced: true,
        ..OpLog::default()
    };
    let jobs = if cfg.workload == "serve" {
        &log
    } else {
        let mut s = Serve::new(cfg.seed, cfg.scale);
        let next = workloads::warm(&mut s, 0, 1, &mut warm_log);
        timed_loop(
            &mut s,
            next,
            cfg.seconds * 0.1,
            &mut session,
            &mut Spans::new(false),
        );
        &session
    };
    serve_metrics(jobs, &mut out);
    out.attempted += session.attempted;
    out.failed += session.failed;

    let (fork_error, speedup_gap) = replay(&w.op_kernels(), &mut out);
    out.metric("sim.fork_error", fork_error.unsigned_abs() as f64);
    out.metric("sim.speedup_gap", speedup_gap);
    out.metric(
        "trace.overhead_pct",
        100.0 * (median(&log.op_ms) / median(&plain.op_ms) - 1.0),
    );
    out.metric("trace.dropped_events", log.trace_dropped as f64);
    out.metric("host.steal_pct", b.host.steal_pct);

    out.notes.push(format!(
        "traced loop: {} ops, {} trace events, op_ms_p50 {:.4} traced vs {:.4} plain",
        b.ops,
        log.trace_events,
        median(&log.op_ms),
        median(&plain.op_ms)
    ));
    host_notes(&mut out, &b);
    let by_layer = spans.self_time_by_layer();
    let total: Duration = by_layer.values().sum();
    for (layer, t) in by_layer {
        out.notes.push(format!(
            "self time {layer:>7}: {:10.3} ms ({:5.1} %)",
            ms(t),
            100.0 * t.as_secs_f64() / total.as_secs_f64().max(1e-12)
        ));
    }
    if let Some(dir) = &cfg.span_dir {
        let path = dir.join(format!("spans-{}-seed{}.tsv", cfg.workload, cfg.seed));
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans.to_tsv()));
        out.notes.push(match written {
            Ok(()) => format!(
                "{} spans written to {}",
                spans.spans().len(),
                path.display()
            ),
            Err(e) => format!("spans not written to {}: {e}", path.display()),
        });
    }
    note_errors(&mut out, &[&warm_log, &plain, &log, &session]);
    out
}

/// Wall and CPU time of one call, in ms.
fn time_call(f: impl FnOnce() -> u64) -> (f64, f64) {
    let cpu = host::process_cpu();
    let t = Instant::now();
    black_box(f());
    (ms(t.elapsed()), ms(host::process_cpu() - cpu))
}

/// The per-kernel ledger: each kernel at p = 2, at p = 1 and as its
/// sequential twin, on fresh pools, [`REPS`] times each (medians).
fn ledger(cfg: &Config, out: &mut Outcome) {
    let dnc = Dnc::new(cfg.seed, cfg.scale, 1);
    let wide = GraphWide::new(cfg.seed, cfg.scale, 1);
    let deep = Deep::new(cfg.seed, cfg.scale);
    let kernels: Vec<Kernel> = [dnc.op_kernels(), wide.op_kernels(), deep.op_kernels()]
        .into_iter()
        .flatten()
        .collect();
    let (p2, p1) = (workloads::pool(P, false), workloads::pool(1, false));
    for k in &kernels {
        // Warm both pools' arenas.
        black_box((k.par)(&p2));
        black_box((k.par)(&p1));
        let (mut t2, mut cpu2, mut t1, mut tseq) = (vec![], vec![], vec![], vec![]);
        for _ in 0..REPS {
            let (wall, cpu) = time_call(|| (k.par)(&p2));
            t2.push(wall);
            cpu2.push(cpu);
            t1.push(time_call(|| (k.par)(&p1)).0);
            tseq.push(time_call(|| (k.seq)()).0);
        }
        let (t2, t1, tseq) = (median(&t2), median(&t1), median(&tseq));
        out.metric(&format!("kernel.{}.ms", k.name), t2);
        out.metric(&format!("kernel.{}.cpu_ms", k.name), median(&cpu2));
        out.metric(&format!("kernel.{}.seq_ms", k.name), tseq);
        out.metric(&format!("kernel.{}.work_overhead", k.name), t1 / tseq);
        out.metric(&format!("kernel.{}.speedup", k.name), tseq / t2);
    }
    debug_assert_eq!(kernels.iter().map(|k| k.name).collect::<Vec<_>>(), KERNELS);
    let (_, phases) = components_union_find_metered(wide.graph(), &p2, &UnionFindConfig::default());
    out.metric("kernel.cc_wide.sample_forks", phases.sample.forks() as f64);
    out.metric("kernel.cc_wide.finish_forks", phases.finish.forks() as f64);
}

/// Median of [`REPS`] timings of `f`, after one untimed call.
fn median_time(mut f: impl FnMut()) -> Duration {
    f();
    let mut times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    Duration::from_secs_f64(times[REPS / 2])
}

/// The blocked primitives called directly on `pool`: scan, pack and
/// expand over 2^20 elements (at full scale), and one scan plus one pack
/// of 64 elements — the shape of one `deep` level.
fn primitives(pool: &PalPool, scale: Scale) -> Vec<(&'static str, f64)> {
    let n = if scale.keys >= 1 << 20 {
        1 << 20
    } else {
        1 << 12
    };
    let input: Vec<u64> = (0..n as u64).map(mix).collect();
    let sizes: Vec<usize> = input
        .iter()
        .take(n / 4)
        .map(|&x| 3 + (x % 3) as usize)
        .collect();
    let mut out = Vec::new();
    let mut packed = Vec::new();
    let mut expanded = Vec::new();
    let per_elem = |d: Duration, elems: usize| d.as_secs_f64() * 1e9 / elems as f64;
    let scan = median_time(|| {
        black_box(pool.scan_copy_in(&input, 0, u64::wrapping_add, &mut out));
    });
    let pack = median_time(|| pool.pack_in(&input, |_, &x| x & 1 == 0, &mut packed));
    let expand = median_time(|| {
        pool.expand_in(
            &sizes,
            0u64,
            |i, region| region.iter_mut().for_each(|s| *s = i as u64),
            &mut expanded,
        )
    });
    let small = &input[..64];
    let mut small_times: Vec<f64> = (0..2000)
        .map(|_| {
            let t = Instant::now();
            black_box(pool.scan_copy_in(small, 0, u64::wrapping_add, &mut out));
            pool.pack_in(small, |_, &x| x & 1 == 0, &mut packed);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    small_times.drain(..100);
    vec![
        ("prim.scan_ns_per_elem", per_elem(scan, n)),
        ("prim.pack_ns_per_elem", per_elem(pack, n)),
        ("prim.expand_ns_per_elem", per_elem(expand, expanded.len())),
        ("prim.small_pass_us", median(&small_times)),
    ]
}

/// Wall time of one empty `join` forked from inside a pool worker, where
/// the kernels fork (median over batches).
fn join_ns(pool: &PalPool) -> f64 {
    const BATCH: u32 = 20_000;
    let mut per_join: Vec<f64> = (0..REPS + 1)
        .map(|_| {
            let (t, ()) = pool.join(
                || {
                    let t = Instant::now();
                    for i in 0..BATCH {
                        black_box(pool.join(|| black_box(i), || black_box(i + 1)));
                    }
                    t.elapsed()
                },
                || (),
            );
            t.as_secs_f64() * 1e9 / f64::from(BATCH)
        })
        .collect();
    per_join.remove(0);
    median(&per_join)
}

/// The serve layer's metrics from the client's job samples.
fn serve_metrics(log: &OpLog, out: &mut Outcome) {
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let jobs = &log.jobs;
    let col = |f: &dyn Fn(&workloads::JobSample) -> f64| jobs.iter().map(f).collect::<Vec<_>>();
    out.metric(
        "serve.queue_wait_ms_p50",
        median(&col(&|j| ms(j.queue_wait))),
    );
    out.metric("serve.run_ms_p50", median(&col(&|j| ms(j.run_time))));
    out.metric(
        "serve.overhead_us_p50",
        median(&col(&|j| {
            us(j.round_trip) - us(j.queue_wait) - us(j.run_time)
        })),
    );
    let small: Vec<f64> = jobs
        .iter()
        .filter(|j| j.small)
        .map(|j| us(j.round_trip))
        .collect();
    out.metric("serve.small_job_us_p50", median(&small));
    out.metric("serve.submit_us_p50", median(&col(&|j| us(j.submit))));
    let n = jobs.len().max(1) as f64;
    out.metric(
        "serve.attempts_per_job",
        jobs.iter().map(|j| f64::from(j.attempts)).sum::<f64>() / n,
    );
    out.metric(
        "serve.rejected_per_kjob",
        1000.0 * log.rejected as f64 / log.attempted.max(1) as f64,
    );
}

/// Capture one op's kernels on a traced pool and replay the capture at
/// its own configuration: returns the predicted minus the measured fork
/// count, and the model's speedup over the measured `T_seq / T_2`.
fn replay(kernels: &[Kernel], out: &mut Outcome) -> (i64, f64) {
    let traced = workloads::pool(P, true);
    let run_all = |pool: &PalPool| {
        kernels
            .iter()
            .map(|k| (k.par)(pool))
            .fold(0, u64::wrapping_add)
    };
    black_box(run_all(&traced));
    traced.take_trace();
    let (_, measured) = traced.scoped_metrics(|| black_box(run_all(&traced)));
    let trace = traced
        .take_trace()
        .expect("the pool was built with a tracer");
    let complete = trace.is_complete();
    let prediction = TraceReplay::from_trace(trace).predict(P, 2.0, ReplayGrain::Adaptive);
    drop(traced);

    let p2 = workloads::pool(P, false);
    let t2 = median_time(|| {
        black_box(run_all(&p2));
    });
    let tseq = median_time(|| {
        black_box(kernels.iter().map(|k| (k.seq)()).fold(0, u64::wrapping_add));
    });
    let measured_speedup = tseq.as_secs_f64() / t2.as_secs_f64();
    out.notes.push(format!(
        "replay: predicted {} forks, measured {}, complete capture {complete}; model speedup {:.3}, measured T_seq/T_2 {:.3}",
        prediction.forks,
        measured.forks(),
        prediction.speedup(),
        measured_speedup
    ));
    (
        prediction.forks as i64 - measured.forks() as i64,
        prediction.speedup() / measured_speedup,
    )
}
