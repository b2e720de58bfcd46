//! [`par_map`] — the workspace's one ordered fan-out over scoped threads.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Maps `f` over `0..n` on up to `jobs` scoped threads (`0` = one per
/// core), returning the results in index order.
///
/// Workers claim the next unclaimed index from a shared counter, and
/// each result lands in its index's slot, so neither the output order
/// nor, for a pure `f`, any value depends on scheduling. A panic in `f`
/// resumes on the caller's thread. One warranted worker runs the plain
/// serial loop.
pub fn par_map<R, F>(n: usize, jobs: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let jobs = match jobs {
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        jobs => jobs,
    };
    let workers = jobs.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break done;
                        }
                        done.push((i, f(i)));
                    }
                })
            })
            .collect();
        for worker in workers {
            let done = worker
                .join()
                .unwrap_or_else(|e| std::panic::resume_unwind(e));
            for (i, r) in done {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every index was claimed by a worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let n = 37;
        for jobs in [0, 1, 2, n + 3] {
            let out = par_map(n, jobs, |i| i * i);
            assert_eq!(
                out,
                (0..n).map(|i| i * i).collect::<Vec<_>>(),
                "jobs {jobs}"
            );
        }
    }

    #[test]
    fn no_items_return_an_empty_vec() {
        for jobs in [0, 1, 4] {
            assert!(par_map(0, jobs, |i| i).is_empty());
        }
    }
}
