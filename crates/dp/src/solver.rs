//! Bottom-up schedulers for [`DpProblem`]s: sequential, wavefront
//! (antichain-by-antichain) and the counter-based Algorithm 1.
//!
//! All three run on one flat dependency structure built per solve
//! (`Schedule`): the cells' dependency lists gathered into one offsets
//! array plus one flat array, a successor CSR built from it by counting
//! sort, and a Kahn layering that writes every cell once into an `order`
//! array with antichain bounds.  There is no per-cell lock and no per-cell
//! adjacency vector.  The build is a few sequential sweeps on the caller.
//! Gathering in blocks on the workers was tried: it cost more processor
//! time than it saved at p = 2, and the block buffers stayed in the
//! workers' allocator heaps — a 300×300 edit distance peaked at 15–21 MiB
//! resident that way against 9 MiB on the caller (2-CPU x86-64 host).  The
//! parallel work is evaluating the cells.
//!
//! The wavefront splits each antichain into
//! [`grain_size`]`(len, p, DEFAULT_GRAIN, 0)` balanced blocks.  An
//! antichain that fits one block — every antichain shorter than
//! `2·DEFAULT_GRAIN` cells — runs inline on the caller and never touches
//! the executor; a larger one is one [`Executor::for_each_index`] task per
//! block.  So a table whose anti-diagonals are below the grain wakes no
//! second processor, and a wider one makes exactly `blocks` spawns per
//! antichain.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use lopram_analysis::Dag;
use lopram_core::policy::{grain_size, DEFAULT_GRAIN};
use lopram_core::Executor;
use parking_lot::Mutex;

use crate::spec::DpProblem;

/// The fully evaluated table of a dynamic program plus its goal value.
#[derive(Debug, Clone)]
pub struct DpSolution<V> {
    /// Value of every cell, indexed by cell id.
    pub values: Vec<V>,
    /// Value of the goal cell.
    pub goal: V,
}

/// Run `f` over the non-empty `0..len` cut into `grain_size(len, p,
/// DEFAULT_GRAIN, 0)` balanced blocks — never more than `4p`.  One block
/// runs inline on the caller without calling `exec`; more are one
/// `for_each_index` task each.
fn for_each_block<E: Executor>(exec: &E, len: usize, f: impl Fn(Range<usize>) + Sync) {
    let blocks = grain_size(len, exec.processors(), DEFAULT_GRAIN, 0);
    if blocks == 1 {
        f(0..len);
    } else {
        exec.for_each_index(0..blocks, |b| f(b * len / blocks..(b + 1) * len / blocks));
    }
}

/// Gather every cell's dependency list into `(offsets, deps)`: cell `c`
/// depends on `deps[offsets[c]..offsets[c + 1]]`, in the order
/// [`DpProblem::dependencies`] lists them.
fn gather<P: DpProblem>(problem: &P) -> (Vec<usize>, Vec<usize>) {
    let n = problem.num_cells();
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0);
    let mut deps = Vec::new();
    for cell in 0..n {
        deps.extend(problem.dependencies(cell));
        offsets.push(deps.len());
    }
    (offsets, deps)
}

/// The flat evaluation schedule of a dynamic program: successor lists and
/// the Mirsky antichain decomposition (§4.3), each in one array.
struct Schedule {
    /// `succ[succ_off[c]..succ_off[c + 1]]` are the cells that depend on
    /// `c`, ascending.
    succ_off: Vec<usize>,
    succ: Vec<usize>,
    /// Every cell once, antichain by antichain: antichain `k` is
    /// `order[bounds[k]..bounds[k + 1]]`, and a cell's antichain is the
    /// length of the longest dependency chain ending at it.
    order: Vec<usize>,
    bounds: Vec<usize>,
}

impl Schedule {
    /// Gather the dependencies, then build the successor CSR (counting
    /// sort) and the Kahn layering.
    ///
    /// Panics on an out-of-range dependency or a dependency cycle.
    fn build<P: DpProblem>(problem: &P) -> Self {
        let n = problem.num_cells();
        let (dep_off, deps) = gather(problem);

        let mut succ_off = vec![0usize; n + 1];
        for &d in &deps {
            assert!(d < n, "dependency {d} out of range for {n} cells");
            succ_off[d + 1] += 1;
        }
        for c in 0..n {
            succ_off[c + 1] += succ_off[c];
        }
        let mut cursor = succ_off[..n].to_vec();
        let mut succ = vec![0usize; deps.len()];
        for cell in 0..n {
            for &d in &deps[dep_off[cell]..dep_off[cell + 1]] {
                succ[cursor[d]] = cell;
                cursor[d] += 1;
            }
        }

        drop((deps, cursor));
        // The offsets become each cell's count of pending dependencies,
        // in place.
        let mut pending = dep_off;
        for c in 0..n {
            pending[c] = pending[c + 1] - pending[c];
        }
        pending.pop();

        // Kahn layering: a cell joins the antichain after the one that
        // released its last pending dependency.
        let mut order: Vec<usize> = (0..n).filter(|&c| pending[c] == 0).collect();
        order.reserve(n - order.len());
        let mut bounds = vec![0];
        let mut head = 0;
        while head < order.len() {
            let end = order.len();
            bounds.push(end);
            for i in head..end {
                let u = order[i];
                for &v in &succ[succ_off[u]..succ_off[u + 1]] {
                    pending[v] -= 1;
                    if pending[v] == 0 {
                        order.push(v);
                    }
                }
            }
            head = end;
        }
        assert_eq!(order.len(), n, "dependency graph must be acyclic");
        Schedule {
            succ_off,
            succ,
            order,
            bounds,
        }
    }

    fn successors(&self, cell: usize) -> &[usize] {
        &self.succ[self.succ_off[cell]..self.succ_off[cell + 1]]
    }

    fn antichains(&self) -> impl Iterator<Item = &[usize]> {
        self.bounds.windows(2).map(|w| &self.order[w[0]..w[1]])
    }
}

/// Build the dependency DAG of `problem` (§4.3): edge `y → x` for every
/// dependency `y ≺ x`, i.e. edges point in the direction of computation.
///
/// The dependency lists are gathered into one flat array — the same
/// gather the solvers build their `Schedule` from — and assembled into
/// the adjacency structure afterwards.  The gather is one sequential
/// sweep on the caller (see the module docs), so `exec` is not used; it
/// stays in the signature for the callers that pass one.
pub fn dependency_dag<P: DpProblem, E: Executor>(problem: &P, _exec: &E) -> Dag {
    let n = problem.num_cells();
    let (offsets, deps) = gather(problem);
    let mut dag = Dag::new(n);
    for cell in 0..n {
        for &d in &deps[offsets[cell]..offsets[cell + 1]] {
            dag.add_edge(d, cell);
        }
    }
    dag
}

/// Evaluate the table bottom-up on one processor, in a topological order of
/// the dependency DAG.  This is the `T_1` baseline of §4.6.
pub fn solve_sequential<P: DpProblem>(problem: &P) -> DpSolution<P::Value> {
    let n = problem.num_cells();
    assert!(n > 0, "a dynamic program needs at least one cell");
    let schedule = Schedule::build(problem);
    let mut values: Vec<Option<P::Value>> = vec![None; n];
    for &cell in &schedule.order {
        let get = |i: usize| {
            values[i]
                .clone()
                .expect("dependency computed before dependant in topological order")
        };
        let v = problem.compute(cell, &get);
        values[cell] = Some(v);
    }
    finish(
        problem,
        values
            .into_iter()
            .map(|v| v.expect("all cells computed"))
            .collect(),
    )
}

/// Evaluate the table antichain by antichain (§4.3): the cells of one level
/// of the Mirsky decomposition are mutually independent and are computed in
/// parallel with `exec`; levels are processed in order.
///
/// Each antichain is cut into `grain_size(len, p, DEFAULT_GRAIN, 0)`
/// blocks: a one-block antichain runs inline on the caller, a larger one
/// makes exactly one `for_each_index` spawn per block (see the module
/// docs).
pub fn solve_wavefront<P: DpProblem, E: Executor>(problem: &P, exec: &E) -> DpSolution<P::Value> {
    let n = problem.num_cells();
    assert!(n > 0, "a dynamic program needs at least one cell");
    let schedule = Schedule::build(problem);
    let table: Vec<OnceLock<P::Value>> = (0..n).map(|_| OnceLock::new()).collect();
    for antichain in schedule.antichains() {
        for_each_block(exec, antichain.len(), |block| {
            for &cell in &antichain[block] {
                let get = |i: usize| {
                    table[i]
                        .get()
                        .expect("dependency belongs to an earlier antichain")
                        .clone()
                };
                let value = problem.compute(cell, &get);
                table[cell]
                    .set(value)
                    .unwrap_or_else(|_| panic!("cell {cell} computed twice"));
            }
        });
    }
    collect(problem, table)
}

/// The paper's Algorithm 1: every cell carries a counter of outstanding
/// dependencies; when a processor finishes a cell it decrements the counters
/// of the cells that depend on it and ready cells are picked up by the
/// available processors in creation order.
pub fn solve_counter<P: DpProblem, E: Executor>(problem: &P, exec: &E) -> DpSolution<P::Value> {
    let n = problem.num_cells();
    assert!(n > 0, "a dynamic program needs at least one cell");
    let schedule = Schedule::build(problem);

    // cv ← in-degree of v (number of vertices v depends on).
    let mut in_degree = vec![0usize; n];
    for &v in &schedule.succ {
        in_degree[v] += 1;
    }
    let counters: Vec<AtomicUsize> = in_degree.into_iter().map(AtomicUsize::new).collect();
    let table: Vec<OnceLock<P::Value>> = (0..n).map(|_| OnceLock::new()).collect();
    // Ready queue seeded with the base cases (in-degree 0, the first
    // antichain), in creation order.
    let base_cases = schedule
        .antichains()
        .next()
        .expect("an acyclic non-empty table has base cases");
    let ready: Mutex<std::collections::VecDeque<usize>> =
        Mutex::new(base_cases.iter().copied().collect());
    let remaining = AtomicUsize::new(n);

    let p = exec.processors();
    // One worker loop per processor: each worker repeatedly takes a ready
    // cell, computes it and releases the cells that become ready — the
    // `computeVertex` routine of Algorithm 1 executed by whichever processor
    // is available.
    exec.for_each_index(0..p, |_| loop {
        if remaining.load(Ordering::Acquire) == 0 {
            break;
        }
        let next = ready.lock().pop_front();
        let Some(cell) = next else {
            std::thread::yield_now();
            continue;
        };
        let get = |i: usize| {
            table[i]
                .get()
                .expect("counter reached zero only after all dependencies completed")
                .clone()
        };
        let value = problem.compute(cell, &get);
        table[cell]
            .set(value)
            .unwrap_or_else(|_| panic!("cell {cell} computed twice"));
        remaining.fetch_sub(1, Ordering::AcqRel);
        for &succ in schedule.successors(cell) {
            if counters[succ].fetch_sub(1, Ordering::AcqRel) == 1 {
                ready.lock().push_back(succ);
            }
        }
    });
    collect(problem, table)
}

fn collect<P: DpProblem>(problem: &P, table: Vec<OnceLock<P::Value>>) -> DpSolution<P::Value> {
    let values: Vec<P::Value> = table
        .into_iter()
        .enumerate()
        .map(|(i, cell)| {
            cell.into_inner()
                .unwrap_or_else(|| panic!("cell {i} was never computed"))
        })
        .collect();
    finish(problem, values)
}

fn finish<P: DpProblem>(problem: &P, values: Vec<P::Value>) -> DpSolution<P::Value> {
    let goal = values[problem.goal_cell()].clone();
    DpSolution { values, goal }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lopram_core::{PalPool, SeqExecutor};

    /// Pascal's triangle laid out row by row: C(r, c) = C(r-1, c-1) + C(r-1, c).
    struct Pascal {
        rows: usize,
    }

    impl Pascal {
        fn id(&self, r: usize, c: usize) -> usize {
            r * (r + 1) / 2 + c
        }
    }

    impl DpProblem for Pascal {
        type Value = u64;

        fn num_cells(&self) -> usize {
            self.rows * (self.rows + 1) / 2
        }

        fn dependencies(&self, cell: usize) -> Vec<usize> {
            let (r, c) = row_col(cell);
            if c == 0 || c == r {
                vec![]
            } else {
                vec![self.id(r - 1, c - 1), self.id(r - 1, c)]
            }
        }

        fn compute(&self, cell: usize, get: &dyn Fn(usize) -> u64) -> u64 {
            let (r, c) = row_col(cell);
            if c == 0 || c == r {
                1
            } else {
                get(self.id(r - 1, c - 1)) + get(self.id(r - 1, c))
            }
        }

        fn name(&self) -> &'static str {
            "pascal"
        }
    }

    fn row_col(cell: usize) -> (usize, usize) {
        let mut r = 0usize;
        let mut acc = 0usize;
        while acc + r < cell {
            acc += r + 1;
            r += 1;
        }
        (r, cell - acc)
    }

    #[test]
    fn sequential_computes_pascal() {
        let p = Pascal { rows: 10 };
        let sol = solve_sequential(&p);
        // C(9, 4) = 126.
        assert_eq!(sol.values[p.id(9, 4)], 126);
        // Goal cell (last) = C(9,9) = 1.
        assert_eq!(sol.goal, 1);
    }

    #[test]
    fn all_schedulers_agree_on_pascal() {
        let p = Pascal { rows: 16 };
        let seq = solve_sequential(&p);
        let pool = PalPool::new(4).unwrap();
        let wave = solve_wavefront(&p, &pool);
        let counter = solve_counter(&p, &pool);
        assert_eq!(seq.values, wave.values);
        assert_eq!(seq.values, counter.values);
    }

    #[test]
    fn schedulers_work_on_sequential_executor() {
        let p = Pascal { rows: 8 };
        let seq = solve_sequential(&p);
        let wave = solve_wavefront(&p, &SeqExecutor);
        let counter = solve_counter(&p, &SeqExecutor);
        assert_eq!(seq.values, wave.values);
        assert_eq!(seq.values, counter.values);
    }

    #[test]
    fn dependency_dag_matches_specification() {
        let p = Pascal { rows: 6 };
        let dag = dependency_dag(&p, &SeqExecutor);
        assert_eq!(dag.len(), p.num_cells());
        // Interior cell (3, 1) depends on (2, 0) and (2, 1).
        let cell = p.id(3, 1);
        assert!(dag.successors(p.id(2, 0)).contains(&cell));
        assert!(dag.successors(p.id(2, 1)).contains(&cell));
        // The two outer diagonals of the triangle are base cases (level 0);
        // interior cells of row r sit at level r − 1, so 6 rows give a
        // longest chain of 5.
        assert_eq!(dag.longest_chain(), 5);
    }

    #[test]
    fn results_identical_for_any_p() {
        let p = Pascal { rows: 20 };
        let expected = solve_sequential(&p);
        for procs in [1usize, 2, 3, 4, 8] {
            let pool = PalPool::new(procs).unwrap();
            assert_eq!(
                solve_counter(&p, &pool).values,
                expected.values,
                "p = {procs}"
            );
            assert_eq!(
                solve_wavefront(&p, &pool).values,
                expected.values,
                "p = {procs}"
            );
        }
    }

    /// Antichains of chosen widths: every cell of layer `k` depends on the
    /// first cell of layer `k − 1`, so the Mirsky antichains are exactly
    /// the layers.
    struct Layers {
        starts: Vec<usize>,
    }

    impl Layers {
        fn new(widths: &[usize]) -> Self {
            let mut starts = vec![0];
            for w in widths {
                starts.push(starts[starts.len() - 1] + w);
            }
            Layers { starts }
        }

        fn layer(&self, cell: usize) -> usize {
            self.starts.partition_point(|&s| s <= cell) - 1
        }
    }

    impl DpProblem for Layers {
        type Value = u64;

        fn num_cells(&self) -> usize {
            self.starts[self.starts.len() - 1]
        }

        fn dependencies(&self, cell: usize) -> Vec<usize> {
            match self.layer(cell) {
                0 => vec![],
                k => vec![self.starts[k - 1]],
            }
        }

        fn compute(&self, cell: usize, get: &dyn Fn(usize) -> u64) -> u64 {
            match self.layer(cell) {
                0 => cell as u64,
                k => get(self.starts[k - 1]).wrapping_mul(31) + cell as u64,
            }
        }
    }

    /// Forks one blocked pass over `len` cells makes at `p`: one spawn per
    /// block, none for a single inline block.
    fn pass_forks(len: usize, p: usize) -> u64 {
        match grain_size(len, p, DEFAULT_GRAIN, 0) {
            1 => 0,
            b => b as u64,
        }
    }

    #[test]
    fn wavefront_spawns_once_per_block_and_never_below_the_grain() {
        let wide = [1, 300, 2 * DEFAULT_GRAIN - 1, 2 * DEFAULT_GRAIN, 5000, 40];
        // Many cells, every antichain below the grain: zero forks.
        let narrow = [2 * DEFAULT_GRAIN - 1; 12];
        for p in [1usize, 2, 4] {
            assert_eq!(pass_forks(2 * DEFAULT_GRAIN - 1, p), 0);
            assert_eq!(pass_forks(2 * DEFAULT_GRAIN, p), 2);
            for widths in [&wide[..], &narrow[..], &[3, 7, 1][..]] {
                let problem = Layers::new(widths);
                let pool = PalPool::new(p).unwrap();
                let wave = solve_wavefront(&problem, &pool);
                assert_eq!(wave.values, solve_sequential(&problem).values, "p = {p}");
                // One spawn per block of each antichain; a sub-grain
                // antichain adds nothing.
                let expected: u64 = widths.iter().map(|&w| pass_forks(w, p)).sum();
                lopram_core::assert_metrics_consistent(pool.metrics(), expected);
            }
        }
    }

    #[test]
    fn schedule_antichains_are_the_mirsky_levels() {
        let p = Pascal { rows: 12 };
        let schedule = Schedule::build(&p);
        let levels = dependency_dag(&p, &SeqExecutor).levels();
        let mut antichains: Vec<Vec<usize>> =
            schedule.antichains().map(<[usize]>::to_vec).collect();
        antichains.iter_mut().for_each(|a| a.sort_unstable());
        assert_eq!(antichains, levels.antichains);
    }

    #[test]
    #[should_panic(expected = "acyclic")]
    fn dependency_cycle_rejected() {
        struct Cycle;
        impl DpProblem for Cycle {
            type Value = u8;
            fn num_cells(&self) -> usize {
                2
            }
            fn dependencies(&self, cell: usize) -> Vec<usize> {
                vec![1 - cell]
            }
            fn compute(&self, _: usize, _: &dyn Fn(usize) -> u8) -> u8 {
                0
            }
        }
        let _ = solve_sequential(&Cycle);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn empty_problem_rejected() {
        struct Empty;
        impl DpProblem for Empty {
            type Value = u8;
            fn num_cells(&self) -> usize {
                0
            }
            fn dependencies(&self, _: usize) -> Vec<usize> {
                vec![]
            }
            fn compute(&self, _: usize, _: &dyn Fn(usize) -> u8) -> u8 {
                0
            }
        }
        let _ = solve_sequential(&Empty);
    }
}
