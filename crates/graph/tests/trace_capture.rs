//! Trace capture over the irregular graph kernels: a traced pool must
//! record BFS's entire fork structure (every fork of a blocked primitive
//! is a pass fork), reproduce the pool's `RunMetrics` from the event
//! stream, and stay an observer — identical distances and identical
//! schedule-independent counters as an untraced twin pool.

use lopram_core::policy::DEFAULT_STEAL_GRAIN;
use lopram_core::{PalPool, TraceConfig};
use lopram_graph::prelude::*;

fn traced_pool(p: usize) -> PalPool {
    PalPool::builder()
        .processors(p)
        .trace(TraceConfig::default())
        .build()
        .unwrap()
}

/// Exact pass count of [`bfs_par`] from `src`, from the BFS level sizes:
/// a level whose frontier length and degree sum are both below
/// `DEFAULT_STEAL_GRAIN` runs inline and records no pass; any other level
/// records one degree map and two expansion passes, plus the candidate
/// pack — none when there are no candidates, one when none survives, two
/// otherwise.
fn bfs_passes(graph: &CsrGraph, src: usize) -> u64 {
    let dist = bfs_seq(graph, src);
    let mut frontiers = vec![Vec::new(); levels(&dist) + 2];
    for (v, &d) in dist.iter().enumerate() {
        if d != UNREACHED {
            frontiers[d].push(v);
        }
    }
    frontiers
        .windows(2)
        .map(|w| {
            let (frontier, next) = (&w[0], &w[1]);
            let degrees: usize = frontier.iter().map(|&u| graph.degree(u)).sum();
            if frontier.len() < DEFAULT_STEAL_GRAIN && degrees < DEFAULT_STEAL_GRAIN {
                0
            } else if degrees == 0 {
                3
            } else if next.is_empty() {
                4
            } else {
                5
            }
        })
        .sum()
}

#[test]
fn traced_bfs_reproduces_metrics_on_every_shape() {
    let shapes: Vec<(&str, CsrGraph)> = vec![
        ("gnm", gnm(1024, 4096, 7)),
        ("gnm-wide", gnm(16_384, 65_536, 7)),
        ("grid", grid(24, 24)),
        ("star", star(512)),
        ("star-wide", star(DEFAULT_STEAL_GRAIN + 1)),
        ("tree", binary_tree(511)),
    ];
    for (name, graph) in &shapes {
        let expected = bfs_seq(graph, 0);
        if name.ends_with("-wide") {
            assert!(bfs_passes(graph, 0) > 0, "{name}: some level must fork");
        }
        for p in [1usize, 2, 4] {
            let pool = traced_pool(p);
            assert_eq!(&bfs_par(graph, &pool, 0), &expected, "{name}, p = {p}");
            let m = pool.metrics().snapshot();
            let trace = pool.take_trace().expect("tracing was on");
            assert!(trace.is_complete(), "{name}, p = {p}: dropped events");
            let s = trace.summary();
            assert_eq!(s.forks, m.forks(), "{name}, p = {p}: forks");
            assert_eq!(s.elided, m.elided, "{name}, p = {p}: elided");
            assert_eq!(s.spawned, m.spawned, "{name}, p = {p}: spawned");
            assert_eq!(s.inlined, m.inlined, "{name}, p = {p}: inlined");
            assert_eq!(s.steals, m.steals, "{name}, p = {p}: steals");
            assert_eq!(s.unclassified, 0, "{name}, p = {p}: quiesced capture");
            // BFS obtains all parallelism from blocked primitives, so its
            // fork count is exactly the pass-fork count — the property
            // that makes its replay predictions exact at any (p, grain).
            assert_eq!(s.forks, s.pass_forks, "{name}, p = {p}: all pass forks");
            // Sub-grain levels run inline and record nothing; every other
            // level records its passes, whatever p is.
            assert_eq!(s.passes, bfs_passes(graph, 0), "{name}, p = {p}: passes");
            if p == 1 {
                assert_eq!(s.steals, 0, "{name}: one processor cannot steal");
                assert_eq!(s.elided, s.forks, "{name}: p = 1 elides everything");
            }
        }
    }
}

#[test]
fn tracing_is_an_observer_for_graph_kernels() {
    let graph = gnm(2048, 8192, 42);
    for p in [1usize, 2, 4] {
        let plain = PalPool::new(p).unwrap();
        let traced = traced_pool(p);
        assert_eq!(
            bfs_par(&graph, &plain, 0),
            bfs_par(&graph, &traced, 0),
            "p = {p}: tracing changed BFS output"
        );
        assert_eq!(
            components_hook(&graph, &plain),
            components_hook(&graph, &traced),
            "p = {p}: tracing changed CC output"
        );
        let mp = plain.metrics().snapshot();
        let mt = traced.metrics().snapshot();
        assert_eq!(mp.forks(), mt.forks(), "p = {p}: tracing changed forks");
        assert_eq!(mp.elided, mt.elided, "p = {p}: tracing changed elisions");
    }
}

#[test]
fn repeated_bfs_capture_windows_stay_complete() {
    // Re-running BFS and draining between runs: every window is complete
    // (buffers reset on drain) and every window records the same structure
    // (BFS fork counts are schedule-independent).
    let graph = grid(32, 32);
    let pool = traced_pool(2);
    let mut first_forks = None;
    for round in 0..5 {
        let dist = bfs_par(&graph, &pool, 0);
        assert_eq!(dist, bfs_seq(&graph, 0), "round {round}");
        let trace = pool.take_trace().expect("tracing was on");
        assert!(trace.is_complete(), "round {round}: dropped events");
        let forks = trace.summary().forks;
        match first_forks {
            None => first_forks = Some(forks),
            Some(f) => assert_eq!(forks, f, "round {round}: structure drifted"),
        }
    }
}
