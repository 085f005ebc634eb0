//! Output checkers and the benchmark's own reference computations.
//!
//! Every op's output is checked either against a result computed here,
//! apart from the program (a sort by the standard library, a sequential
//! union-find, a two-row edit-distance recurrence, a queue BFS), or
//! against a property the method must have (the BFS certificate, a
//! polynomial identity at seeded points).  None of these call the crates
//! under test.

use lopram_graph::bfs::UNREACHED;
use lopram_graph::CsrGraph;

/// A checker's verdict: `Err` names the first violation found.
pub type Check = Result<(), String>;

/// The sorted output must equal the standard library's sort of the input.
pub fn sorted_keys(got: &[i64], expected: &[i64]) -> Check {
    if got.len() != expected.len() {
        return Err(format!(
            "sort: {} keys, expected {}",
            got.len(),
            expected.len()
        ));
    }
    match got.iter().zip(expected).position(|(g, e)| g != e) {
        None => Ok(()),
        Some(i) => Err(format!(
            "sort: key {i} is {}, expected {}",
            got[i], expected[i]
        )),
    }
}

/// Mersenne prime 2^61 − 1, the modulus of the polynomial identity check.
const P61: u64 = (1 << 61) - 1;

fn mod_p(c: i64) -> u64 {
    (c as i128).rem_euclid(P61 as i128) as u64
}

fn mul_p(a: u64, b: u64) -> u64 {
    ((a as u128 * b as u128) % P61 as u128) as u64
}

/// `poly(x) mod 2^61 − 1` by Horner's rule.
fn eval_p(poly: &[i64], x: u64) -> u64 {
    poly.iter()
        .rev()
        .fold(0, |acc, &c| (mul_p(acc, x) + mod_p(c)) % P61)
}

/// `prod` must be the product of `a` and `b`: it has `|a| + |b| − 1`
/// coefficients and agrees with `a(x)·b(x)` at every seeded point `x`,
/// modulo 2^61 − 1.  A wrong product of that degree passes one point with
/// probability at most `deg / 2^61`.
pub fn poly_product(a: &[i64], b: &[i64], prod: &[i64], points: &[u64]) -> Check {
    if prod.len() != a.len() + b.len() - 1 {
        return Err(format!(
            "karatsuba: {} coefficients, expected {}",
            prod.len(),
            a.len() + b.len() - 1
        ));
    }
    for &x in points {
        let x = x % P61;
        let want = mul_p(eval_p(a, x), eval_p(b, x));
        let got = eval_p(prod, x);
        if got != want {
            return Err(format!("karatsuba: product differs at x = {x}"));
        }
    }
    Ok(())
}

/// BFS certificate: the source is at 0, no edge joins a reached vertex to
/// an unreached one or spans more than one level, and every reached
/// vertex other than the source has a neighbour one level closer.
/// Together these force every distance to be the true hop distance.
pub fn bfs_certificate(g: &CsrGraph, src: usize, dist: &[usize]) -> Check {
    if dist.len() != g.vertices() {
        return Err(format!(
            "bfs: {} distances for {} vertices",
            dist.len(),
            g.vertices()
        ));
    }
    if dist[src] != 0 {
        return Err(format!("bfs: source {src} at distance {}", dist[src]));
    }
    for (u, &du) in dist.iter().enumerate() {
        let mut has_parent = u == src;
        for &v in g.neighbors(u) {
            let dv = dist[v];
            if (du == UNREACHED) != (dv == UNREACHED) {
                return Err(format!("bfs: edge {u}-{v} leaves the reached set"));
            }
            if du == UNREACHED {
                continue;
            }
            if du.abs_diff(dv) > 1 {
                return Err(format!("bfs: edge {u}-{v} spans levels {du} and {dv}"));
            }
            has_parent |= dv + 1 == du;
        }
        if du != UNREACHED && !has_parent {
            return Err(format!("bfs: vertex {u} at level {du} has no parent"));
        }
    }
    Ok(())
}

/// On a `rows × cols` grid, distances from `src` are Manhattan distances.
pub fn grid_distances(rows: usize, cols: usize, src: usize, dist: &[usize]) -> Check {
    if dist.len() != rows * cols {
        return Err(format!(
            "grid bfs: {} distances for {} cells",
            dist.len(),
            rows * cols
        ));
    }
    let (sr, sc) = (src / cols, src % cols);
    for (v, &d) in dist.iter().enumerate() {
        let want = (v / cols).abs_diff(sr) + (v % cols).abs_diff(sc);
        if d != want {
            return Err(format!(
                "grid bfs: cell {v} at {d}, Manhattan distance {want}"
            ));
        }
    }
    Ok(())
}

/// Component labels must equal the reference component minima.
pub fn labels(got: &[usize], expected: &[usize]) -> Check {
    if got.len() != expected.len() {
        return Err(format!(
            "cc: {} labels, expected {}",
            got.len(),
            expected.len()
        ));
    }
    match got.iter().zip(expected).position(|(g, e)| g != e) {
        None => Ok(()),
        Some(v) => Err(format!(
            "cc: vertex {v} labelled {}, expected {}",
            got[v], expected[v]
        )),
    }
}

/// An edit distance must equal the two-row recurrence's.
pub fn edit_distance(got: u32, expected: u32) -> Check {
    if got == expected {
        Ok(())
    } else {
        Err(format!("edit distance {got}, expected {expected}"))
    }
}

/// A serve job's digest must equal its independently computed digest.
pub fn digest(job: u64, got: u64, expected: u64) -> Check {
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "serve: job {job} digest {got:#x}, expected {expected:#x}"
        ))
    }
}

/// Smallest vertex id of each vertex's component, by a sequential
/// union-find with path halving that always links the larger root under
/// the smaller.
pub fn component_minima(g: &CsrGraph) -> Vec<usize> {
    let mut parent: Vec<usize> = (0..g.vertices()).collect();
    fn find(parent: &mut [usize], mut v: usize) -> usize {
        while parent[v] != v {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        v
    }
    for u in 0..g.vertices() {
        for &v in g.neighbors(u) {
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            if ru != rv {
                parent[ru.max(rv)] = ru.min(rv);
            }
        }
    }
    (0..g.vertices()).map(|v| find(&mut parent, v)).collect()
}

/// Hop distances from `src` by a FIFO-queue BFS.
pub fn bfs_reference(g: &CsrGraph, src: usize) -> Vec<usize> {
    let mut dist = vec![UNREACHED; g.vertices()];
    let mut queue = std::collections::VecDeque::from([src]);
    dist[src] = 0;
    while let Some(u) = queue.pop_front() {
        for &v in g.neighbors(u) {
            if dist[v] == UNREACHED {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Levenshtein distance by the two-row recurrence.
pub fn edit_distance_two_row(a: &[u8], b: &[u8]) -> u32 {
    let mut prev: Vec<u32> = (0..=b.len() as u32).collect();
    let mut row = vec![0u32; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        row[0] = i as u32 + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + u32::from(ca != cb);
            row[j + 1] = sub.min(prev[j + 1] + 1).min(row[j] + 1);
        }
        std::mem::swap(&mut prev, &mut row);
    }
    prev[b.len()]
}

/// Order-sensitive 64-bit digest of a word sequence (FNV-1a over words,
/// finished with a splitmix round).
pub fn fold_digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let h = words.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    });
    crate::rng::mix(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lopram_graph::gen;

    fn rejects(check: Check, what: &str) {
        assert!(check.is_err(), "{what}: a corrupted output was accepted");
    }

    #[test]
    fn sort_checker_rejects_a_swapped_adjacent_pair() {
        let expected: Vec<i64> = (0..100).map(|i| i * 3 - 50).collect();
        assert!(sorted_keys(&expected, &expected).is_ok());
        let mut got = expected.clone();
        got.swap(41, 42);
        rejects(sorted_keys(&got, &expected), "swapped pair");
    }

    #[test]
    fn karatsuba_checker_rejects_a_changed_coefficient() {
        let a: Vec<i64> = (0..64).map(|i| (i * 7 % 13) - 6).collect();
        let b: Vec<i64> = (0..64).map(|i| (i * 5 % 11) - 5).collect();
        let prod = lopram_dnc::karatsuba::schoolbook_mul(&a, &b);
        let points = [3, 1 << 40, 0x1234_5678_9abc];
        assert!(poly_product(&a, &b, &prod, &points).is_ok());
        let mut bad = prod.clone();
        bad[17] += 1;
        rejects(poly_product(&a, &b, &bad, &points), "changed coefficient");
    }

    #[test]
    fn bfs_checker_rejects_a_distance_off_by_one() {
        let g = gen::gnm(500, 2000, 7);
        let dist = bfs_reference(&g, 3);
        assert!(bfs_certificate(&g, 3, &dist).is_ok());
        let far = (0..dist.len()).max_by_key(|&v| dist[v]).unwrap();
        for delta in [1isize, -1] {
            let mut bad = dist.clone();
            bad[far] = (bad[far] as isize + delta) as usize;
            rejects(bfs_certificate(&g, 3, &bad), "distance off by one");
        }
    }

    #[test]
    fn grid_checker_rejects_a_distance_off_by_one() {
        let g = gen::grid(9, 7);
        let dist = bfs_reference(&g, 0);
        assert!(grid_distances(9, 7, 0, &dist).is_ok());
        let mut bad = dist.clone();
        bad[30] += 1;
        rejects(grid_distances(9, 7, 0, &bad), "grid distance off by one");
    }

    #[test]
    fn cc_checker_rejects_a_raised_label() {
        let g = gen::gnm(400, 300, 11);
        let want = component_minima(&g);
        assert_eq!(want, lopram_graph::cc::components_seq(&g));
        assert!(labels(&want, &want).is_ok());
        let mut bad = want.clone();
        bad[123] += 1;
        rejects(labels(&bad, &want), "raised label");
    }

    #[test]
    fn edit_distance_checker_rejects_off_by_one() {
        let (a, b) = (b"kitten".as_slice(), b"sitting".as_slice());
        let d = edit_distance_two_row(a, b);
        assert_eq!(d, 3);
        assert_eq!(
            d,
            lopram_dp::problems::edit_distance::EditDistance::new(a, b).reference()
        );
        assert!(edit_distance(d, d).is_ok());
        rejects(edit_distance(d + 1, d), "edit distance off by one");
    }

    #[test]
    fn digest_checker_rejects_a_flipped_digest() {
        let d = fold_digest([1, 2, 3]);
        assert_ne!(d, fold_digest([1, 3, 2]), "the digest is order-sensitive");
        assert!(digest(5, d, d).is_ok());
        rejects(digest(5, d ^ 1, d), "flipped digest");
    }
}
