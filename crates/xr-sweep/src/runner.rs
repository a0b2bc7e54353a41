//! The parallel campaign executor.

use crate::collector::InOrderCollector;
use crate::seed::point_seed;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use xr_types::{Error, Result};

/// Everything a point-evaluation closure may depend on besides the point
/// itself: the point's stable index and its deterministically derived seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointContext {
    /// The point's position in the grid's enumeration order.
    pub index: usize,
    /// Seed derived from `(campaign_seed, index)` via [`point_seed`].
    pub seed: u64,
}

/// Executes the points of a campaign over a pool of scoped worker threads.
///
/// Workers claim points from a shared atomic cursor, so load balances
/// automatically, but nothing about the *results* depends on which worker
/// evaluates which point: the evaluation closure receives only the point and
/// its [`PointContext`], and results are returned (or streamed) in point
/// order. A campaign is therefore bit-identical for any worker count.
#[derive(Debug, Clone)]
pub struct CampaignRunner {
    workers: usize,
    campaign_seed: u64,
    reorder_cap: usize,
}

/// Environment variable overriding the default worker count.
pub const WORKERS_ENV: &str = "XR_SWEEP_WORKERS";

/// Default bound on the streaming hold-back window (rows buffered past one
/// slow point before faster workers are backpressured). Generous enough
/// that balanced campaigns never block, small enough that a pathological
/// point cannot buffer a whole campaign in memory.
pub const DEFAULT_REORDER_CAP: usize = 1024;

/// Parses the `XR_SWEEP_WORKERS` value: the machine's available
/// parallelism when the variable is unset, the given count otherwise
/// (`0` clamps to 1, like [`CampaignRunner::new`]).
///
/// # Errors
///
/// Returns a human-readable message when the value is not a non-negative
/// integer.
pub(crate) fn parse_workers(value: Option<&str>) -> std::result::Result<usize, String> {
    match value {
        None => Ok(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)),
        Some(token) => token.parse::<usize>().map(|w| w.max(1)).map_err(|_| {
            format!("invalid {WORKERS_ENV} `{token}`: expected a non-negative integer")
        }),
    }
}

impl CampaignRunner {
    /// A runner with an explicit worker count (clamped to at least 1).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            campaign_seed: 0,
            reorder_cap: DEFAULT_REORDER_CAP,
        }
    }

    /// A runner sized from the `XR_SWEEP_WORKERS` environment variable (`0`
    /// clamps to 1), or from the machine's available parallelism when it is
    /// unset. A value that is not a non-negative integer exits the process
    /// with status 2 and a message on stderr, rather than silently running
    /// at a different worker count.
    #[must_use]
    pub fn from_env() -> Self {
        match parse_workers(std::env::var(WORKERS_ENV).ok().as_deref()) {
            Ok(workers) => Self::new(workers),
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(2)
            }
        }
    }

    /// Sets the campaign seed from which per-point seeds derive.
    #[must_use]
    pub fn with_campaign_seed(mut self, seed: u64) -> Self {
        self.campaign_seed = seed;
        self
    }

    /// Bounds the streaming hold-back window (clamped to at least 1): when
    /// one point is slow, faster workers may run at most `cap` results
    /// ahead before they block, so memory stays bounded instead of
    /// buffering the rest of the campaign. Defaults to
    /// [`DEFAULT_REORDER_CAP`]; only the backpressure tests set another.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn with_reorder_cap(mut self, cap: usize) -> Self {
        self.reorder_cap = cap;
        self
    }

    /// The configured worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The campaign seed.
    #[must_use]
    pub fn campaign_seed(&self) -> u64 {
        self.campaign_seed
    }

    /// Evaluates `eval` at every point and returns the results in point
    /// order, regardless of worker count or completion order.
    ///
    /// # Errors
    ///
    /// If any evaluation fails, the error for the *lowest-indexed* failing
    /// point is returned — again independent of scheduling — and work past
    /// the failing point is abandoned as soon as workers notice.
    pub fn run<P, R, F>(&self, points: &[P], eval: F) -> Result<Vec<R>>
    where
        P: Sync,
        R: Send,
        F: Fn(PointContext, &P) -> Result<R> + Sync,
    {
        let mut results = Vec::with_capacity(points.len());
        self.run_streaming(points, eval, |_, result| results.push(result))?;
        Ok(results)
    }

    /// Evaluates every point and streams results **in point order** into
    /// `sink` as contiguous prefixes complete, via an [`InOrderCollector`]
    /// hold-back buffer. The emission order (and therefore any CSV appended
    /// row by row) is identical for every worker count.
    ///
    /// The hold-back window is bounded by [`DEFAULT_REORDER_CAP`]: a worker
    /// whose result is more than that many rows ahead of the sink **blocks**
    /// until the gap fills, so one slow point backpressures the pool instead
    /// of buffering the rest of the campaign in memory. The worker owning the
    /// gap's own point is never blocked (its index is always admitted), so
    /// backpressure cannot deadlock, and on failure every blocked worker is
    /// released.
    ///
    /// # Errors
    ///
    /// Same contract as [`CampaignRunner::run`]. On failure the sink has
    /// observed some prefix of the rows before the failing index, never
    /// anything at or beyond it; callers should discard the partial artifact.
    pub fn run_streaming<P, R, F, S>(&self, points: &[P], eval: F, sink: S) -> Result<()>
    where
        P: Sync,
        R: Send,
        F: Fn(PointContext, &P) -> Result<R> + Sync,
        S: FnMut(usize, R) + Send,
    {
        struct StreamState<R, F: FnMut(usize, R)> {
            collector: InOrderCollector<R, F>,
            /// Set when a point failed: blocked deliveries bail out instead
            /// of waiting for a gap that will never fill.
            aborted: bool,
            /// Deliveries blocked on a full window. A push wakes them only
            /// when there are any, so a run whose window never fills (any
            /// one-worker run) makes no wake-up call per row.
            waiting: usize,
        }
        let state = Mutex::new(StreamState {
            collector: InOrderCollector::new(self.reorder_cap, sink),
            aborted: false,
            waiting: 0,
        });
        let room = Condvar::new();
        self.execute(
            points,
            &eval,
            |index, value| {
                let mut guard = state.lock().expect("collector lock");
                while !guard.aborted && !guard.collector.accepts(index) {
                    // Counted under the lock that the pushing side reads it
                    // under, and `wait` releases that lock only once this
                    // thread is waiting, so no wake-up is lost.
                    guard.waiting += 1;
                    guard = room.wait(guard).expect("collector lock");
                    guard.waiting -= 1;
                }
                if guard.aborted {
                    // The artifact will be discarded; drop the result.
                    return;
                }
                guard.collector.push(index, value);
                let wake = guard.waiting > 0;
                drop(guard);
                if wake {
                    room.notify_all();
                }
            },
            &|| {
                state.lock().expect("collector lock").aborted = true;
                room.notify_all();
            },
        )?;
        debug_assert!(
            state
                .into_inner()
                .expect("collector lock")
                .collector
                .is_drained(),
            "a successful campaign leaves no held-back rows"
        );
        Ok(())
    }

    /// Streaming evaluation over an **explicitly indexed** point subset —
    /// the campaign entry point, sharded or not. Each `(index, point)` pair
    /// carries the point's index in the *full* grid enumeration: the
    /// [`PointContext`] handed to `eval` (index and [`point_seed`]) derives
    /// from that original index, never the slice position, and `sink`
    /// receives it back. A point's replication seeds expand from its point
    /// seed (`mix(point_seed, rep)`, exactly [`crate::replication_seed`]),
    /// so a shard's results are bit-identical to the same points of an
    /// unsharded run for any worker count.
    ///
    /// The whole point is one work item, with the same worker pool,
    /// hold-back window and backpressure as
    /// [`CampaignRunner::run_streaming`].
    ///
    /// # Errors
    ///
    /// Same contract as [`CampaignRunner::run`]: the error of the
    /// lowest-indexed failing point wins.
    pub fn run_indexed_streaming<P, R, F, S>(
        &self,
        points: &[(usize, P)],
        eval: F,
        mut sink: S,
    ) -> Result<()>
    where
        P: Sync,
        R: Send,
        F: Fn(PointContext, &P) -> Result<R> + Sync,
        S: FnMut(usize, R) + Send,
    {
        let slots: Vec<usize> = (0..points.len()).collect();
        self.run_streaming(
            &slots,
            |_, &slot: &usize| {
                let (point_index, ref point) = points[slot];
                let context = PointContext {
                    index: point_index,
                    seed: point_seed(self.campaign_seed, point_index),
                };
                eval(context, point)
            },
            |index, result| sink(points[index].0, result),
        )
    }

    /// The shared worker loop: claims indices from an atomic cursor, calls
    /// `eval`, and hands successes to `deliver` (which must tolerate
    /// arbitrary completion order and may block for backpressure). Keeps the
    /// lowest-indexed error; `on_fail` fires after any failure is recorded
    /// so blocked deliveries can be released.
    fn execute<P, R, F, D>(
        &self,
        points: &[P],
        eval: &F,
        deliver: D,
        on_fail: &(dyn Fn() + Sync),
    ) -> Result<()>
    where
        P: Sync,
        R: Send,
        F: Fn(PointContext, &P) -> Result<R> + Sync,
        D: Fn(usize, R) + Sync,
    {
        if points.is_empty() {
            return Ok(());
        }
        let context = |index: usize| PointContext {
            index,
            seed: point_seed(self.campaign_seed, index),
        };
        let workers = self.workers.min(points.len());
        if workers == 1 {
            // Sequential fast path: no thread or lock overhead, and the
            // reference ordering the parallel path must reproduce.
            for (index, point) in points.iter().enumerate() {
                deliver(index, eval(context(index), point)?);
            }
            return Ok(());
        }

        let cursor = AtomicUsize::new(0);
        // Lowest failing point index + its error, so the reported failure is
        // scheduling-independent.
        let failure: Mutex<Option<(usize, Error)>> = Mutex::new(None);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= points.len() {
                        break;
                    }
                    {
                        let failed = failure.lock().expect("failure lock");
                        if failed.as_ref().is_some_and(|(fi, _)| *fi < index) {
                            // Everything past the failing point is abandoned;
                            // earlier points still complete so the lowest
                            // failure wins deterministically.
                            continue;
                        }
                    }
                    match eval(context(index), &points[index]) {
                        Ok(result) => deliver(index, result),
                        Err(error) => {
                            {
                                let mut failed = failure.lock().expect("failure lock");
                                if failed.as_ref().is_none_or(|(fi, _)| index < *fi) {
                                    *failed = Some((index, error));
                                }
                            }
                            on_fail();
                        }
                    }
                });
            }
        });

        if let Some((_, error)) = failure.into_inner().expect("failure lock") {
            return Err(error);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::replication_seed;

    #[test]
    fn results_are_identical_for_any_worker_count() {
        let points: Vec<u64> = (0..37).collect();
        let eval =
            |ctx: PointContext, p: &u64| Ok::<_, Error>(p.wrapping_mul(31) ^ ctx.seed ^ 0xABCD);
        let reference = CampaignRunner::new(1)
            .with_campaign_seed(99)
            .run(&points, eval)
            .unwrap();
        for workers in [2, 3, 4, 8, 64] {
            let parallel = CampaignRunner::new(workers)
                .with_campaign_seed(99)
                .run(&points, eval)
                .unwrap();
            assert_eq!(parallel, reference, "{workers} workers diverged");
        }
    }

    #[test]
    fn worker_counts_parse_or_explain() {
        assert!(parse_workers(None).unwrap() >= 1);
        assert_eq!(parse_workers(Some("4")), Ok(4));
        assert_eq!(parse_workers(Some("0")), Ok(1));
        for bad in ["", "abc", "four", "-1", "2.5"] {
            assert_eq!(
                parse_workers(Some(bad)),
                Err(format!(
                    "invalid XR_SWEEP_WORKERS `{bad}`: expected a non-negative integer"
                ))
            );
        }
    }

    #[test]
    fn lowest_indexed_error_wins() {
        let points: Vec<usize> = (0..64).collect();
        let eval = |_: PointContext, p: &usize| {
            if *p >= 10 {
                Err(Error::invalid_parameter("point", format!("boom {p}")))
            } else {
                Ok(*p)
            }
        };
        for workers in [1, 4, 16] {
            let err = CampaignRunner::new(workers)
                .run(&points, eval)
                .expect_err("must fail");
            assert!(
                err.to_string().contains("boom 10"),
                "workers={workers}: {err}"
            );
        }
    }

    #[test]
    fn streaming_emits_in_point_order() {
        let points: Vec<usize> = (0..23).collect();
        let mut seen = Vec::new();
        CampaignRunner::new(5)
            .run_streaming(
                &points,
                |ctx, p| Ok::<_, Error>(p * 2 + ctx.index),
                |index, value| seen.push((index, value)),
            )
            .unwrap();
        assert_eq!(seen.len(), 23);
        for (i, (index, value)) in seen.iter().enumerate() {
            assert_eq!(*index, i);
            assert_eq!(*value, i * 3);
        }
    }

    /// A replicated evaluation the way a campaign runs one: the point is
    /// the work item, and its replication seeds expand from the point seed.
    fn replicate(ctx: PointContext, p: &u64, reps: usize) -> Result<Vec<(u64, usize, u64)>> {
        Ok((0..reps)
            .map(|rep| (*p, rep, xr_types::seed::mix(ctx.seed, rep as u64)))
            .collect())
    }

    /// Every point of `0..n`, indexed by its own value.
    fn indexed(n: usize) -> Vec<(usize, u64)> {
        (0..n).map(|p| (p, p as u64)).collect()
    }

    #[test]
    fn replicated_runs_group_in_point_order_for_any_worker_count() {
        let points = indexed(11);
        let run = |workers| {
            let mut groups = Vec::new();
            CampaignRunner::new(workers)
                .with_campaign_seed(42)
                .run_indexed_streaming(
                    &points,
                    |ctx, p| replicate(ctx, p, 3),
                    |i, g| groups.push((i, g)),
                )
                .unwrap();
            groups
        };
        let reference = run(1);
        assert_eq!(reference.len(), 11);
        for (p, (index, group)) in reference.iter().enumerate() {
            assert_eq!(*index, p);
            let expected: Vec<_> = (0..3)
                .map(|r| (p as u64, r, replication_seed(42, p, r)))
                .collect();
            assert_eq!(*group, expected);
        }
        for workers in [2, 5, 32] {
            assert_eq!(run(workers), reference, "{workers} workers diverged");
        }
    }

    #[test]
    fn replicated_streaming_emits_complete_groups_in_order() {
        // Even a lock-step window (cap 1) hands every point's whole group
        // to the sink, in point order.
        let points = indexed(7);
        let mut seen = Vec::new();
        CampaignRunner::new(3)
            .with_reorder_cap(1)
            .run_indexed_streaming(
                &points,
                |ctx, p| replicate(ctx, p, 4),
                |point, group| seen.push((point, group)),
            )
            .unwrap();
        assert_eq!(seen.len(), 7);
        for (i, (point, group)) in seen.iter().enumerate() {
            assert_eq!(*point, i);
            assert_eq!(
                group.iter().map(|g| g.1).collect::<Vec<_>>(),
                vec![0, 1, 2, 3]
            );
        }
    }

    #[test]
    fn empty_and_oversized_pools_are_fine() {
        let runner = CampaignRunner::new(0); // clamps to 1
        assert_eq!(runner.workers(), 1);
        let none: Vec<u8> = Vec::new();
        assert!(runner
            .run(&none, |_, p: &u8| Ok::<_, Error>(*p))
            .unwrap()
            .is_empty());
        let few = vec![1u8, 2];
        let out = CampaignRunner::new(16)
            .run(&few, |_, p| Ok::<_, Error>(*p))
            .unwrap();
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn indexed_streaming_reuses_original_indices_for_seeds_and_sinks() {
        let points = indexed(20);
        // Reference: every point's groups from an unsharded run.
        let mut full = Vec::new();
        CampaignRunner::new(3)
            .with_campaign_seed(7)
            .run_indexed_streaming(
                &points,
                |ctx, p| replicate(ctx, p, 2),
                |i, g| full.push((i, g)),
            )
            .unwrap();
        // A round-robin shard (2/3) must reproduce exactly its slice of the
        // full run — same seeds, same sink indices.
        let subset: Vec<(usize, u64)> =
            points.iter().copied().filter(|(p, _)| p % 3 == 1).collect();
        let mut shard = Vec::new();
        CampaignRunner::new(4)
            .with_campaign_seed(7)
            .run_indexed_streaming(
                &subset,
                |ctx, p| replicate(ctx, p, 2),
                |i, g| shard.push((i, g)),
            )
            .unwrap();
        let expected: Vec<_> = full.iter().filter(|(i, _)| i % 3 == 1).cloned().collect();
        assert_eq!(shard, expected);
    }

    #[test]
    fn fused_streaming_matches_the_per_rep_path_for_any_worker_count() {
        // Replication seeds expanded from the point seed over a sharded
        // subset must be exactly the per-replication seeds
        // `replication_seed(campaign, original_index, rep)`, for every
        // worker count.
        const REPS: usize = 3;
        let subset: Vec<(usize, u64)> = indexed(20)
            .into_iter()
            .filter(|(p, _)| p % 2 == 1)
            .collect();
        let expected: Vec<_> = subset
            .iter()
            .map(|&(i, p)| {
                let group: Vec<_> = (0..REPS)
                    .map(|rep| (p, rep, replication_seed(7, i, rep)))
                    .collect();
                (i, group)
            })
            .collect();
        for workers in [1, 3, 4] {
            let mut seen = Vec::new();
            CampaignRunner::new(workers)
                .with_campaign_seed(7)
                .run_indexed_streaming(
                    &subset,
                    |ctx, p| replicate(ctx, p, REPS),
                    |i, g| seen.push((i, g)),
                )
                .unwrap();
            assert_eq!(seen, expected, "{workers} workers diverged");
        }
    }

    #[test]
    fn bounded_windows_hold_memory_while_a_slow_point_blocks_the_prefix() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;

        const POINTS: usize = 64;
        const WORKERS: usize = 4;
        const CAP: usize = 4;
        let points: Vec<usize> = (0..POINTS).collect();
        // Point 0 waits until every other worker has had the chance to race
        // ahead; the bounded window must stop them at CAP buffered rows.
        let gate = Barrier::new(2);
        let completed = AtomicUsize::new(0);
        let sunk = AtomicUsize::new(0);
        let outstanding_high_water = AtomicUsize::new(0);
        let mut seen = Vec::new();
        CampaignRunner::new(WORKERS)
            .with_reorder_cap(CAP)
            .run_streaming(
                &points,
                |ctx, p: &usize| {
                    if ctx.index == 0 {
                        gate.wait();
                    }
                    let done = completed.fetch_add(1, Ordering::SeqCst) + 1;
                    let outstanding = done.saturating_sub(sunk.load(Ordering::SeqCst));
                    outstanding_high_water.fetch_max(outstanding, Ordering::SeqCst);
                    if done == CAP + WORKERS - 1 {
                        // Everyone who can run ahead has: CAP rows buffered
                        // plus one blocked in-flight result per free worker
                        // (the last of which is this one, releasing point 0
                        // before its own delivery blocks).
                        gate.wait();
                    }
                    Ok::<_, Error>(*p)
                },
                |index, value| {
                    sunk.fetch_add(1, Ordering::SeqCst);
                    seen.push((index, value));
                },
            )
            .unwrap();
        assert_eq!(seen, (0..POINTS).map(|i| (i, i)).collect::<Vec<_>>());
        // With point 0 stalled, at most CAP rows buffer in the window plus
        // one in-flight result per worker — never the whole campaign.
        let high = outstanding_high_water.load(Ordering::SeqCst);
        assert!(
            high <= CAP + WORKERS,
            "{high} results were outstanding with cap {CAP} and {WORKERS} workers"
        );
        assert!(high >= CAP, "the window never filled ({high} outstanding)");
    }

    #[test]
    fn failures_release_backpressured_workers_without_deadlock() {
        // Point 0 fails while run-ahead workers are blocked on a full
        // hold-back window; the failure must wake them so the campaign
        // terminates with point 0's error instead of deadlocking.
        let points: Vec<usize> = (0..40).collect();
        for workers in [2, 4, 8] {
            let err = CampaignRunner::new(workers)
                .with_reorder_cap(2)
                .run_streaming(
                    &points,
                    |ctx, _p: &usize| {
                        if ctx.index == 0 {
                            // Let the others pile up against the window first.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            return Err(Error::invalid_parameter("point", "boom 0"));
                        }
                        Ok(ctx.index)
                    },
                    |_, _| {},
                )
                .expect_err("point 0 must fail the campaign");
            assert!(
                err.to_string().contains("boom 0"),
                "workers={workers}: {err}"
            );
        }
    }

    #[test]
    fn lock_step_windows_lose_no_wake_up_and_report_the_lowest_failure() {
        // A push wakes blocked deliveries only when one is waiting. With a
        // one-row window nearly every delivery waits for the one before
        // it, so a lost wake-up would hang the run: each run goes on its
        // own thread and must finish within the timeout. Point 0 is held
        // until every other worker has evaluated a point and gone on to
        // deliver it, so they pile up behind it, and two later points
        // fail, so the failure path must release the waiters as well.
        const POINTS: usize = 64;
        for workers in [2, 4, 8] {
            for round in 0..16 {
                let (done, finished) = std::sync::mpsc::channel();
                let run = std::thread::spawn(move || {
                    let points: Vec<usize> = (0..POINTS).collect();
                    let evaluated = AtomicUsize::new(0);
                    let mut sunk = Vec::new();
                    let result = CampaignRunner::new(workers)
                        .with_reorder_cap(1)
                        .run_streaming(
                            &points,
                            |ctx, _p: &usize| {
                                if ctx.index == 0 {
                                    while evaluated.load(Ordering::SeqCst) < workers - 1 {
                                        std::thread::yield_now();
                                    }
                                }
                                evaluated.fetch_add(1, Ordering::SeqCst);
                                if ctx.index == 41 || ctx.index == 53 {
                                    return Err(Error::invalid_parameter(
                                        "point",
                                        format!("boom {}", ctx.index),
                                    ));
                                }
                                Ok(ctx.index)
                            },
                            |index, value| sunk.push((index, value)),
                        );
                    let _ = done.send((result, sunk));
                });
                let (result, sunk) = finished
                    .recv_timeout(std::time::Duration::from_secs(60))
                    .unwrap_or_else(|_| panic!("{workers} workers hung in round {round}"));
                run.join()
                    .expect("the run's thread finished without a panic");
                let err = result.expect_err("points 41 and 53 fail the campaign");
                assert!(
                    err.to_string().contains("boom 41"),
                    "workers={workers} round {round}: {err}"
                );
                // The sink saw a prefix of the rows before the failure.
                assert!(
                    sunk.len() <= 41,
                    "{} rows sunk past the failure",
                    sunk.len()
                );
                assert!(sunk
                    .iter()
                    .enumerate()
                    .all(|(i, &(index, value))| i == index && i == value));
            }
        }
    }

    #[test]
    fn bounded_caps_do_not_change_streamed_output() {
        let points: Vec<usize> = (0..50).collect();
        let eval = |ctx: PointContext, p: &usize| Ok::<_, Error>(p.wrapping_mul(3) ^ ctx.index);
        let mut reference = Vec::new();
        CampaignRunner::new(1)
            .run_streaming(&points, eval, |i, v| reference.push((i, v)))
            .unwrap();
        // Cap 0 clamps to 1: fully lock-step draining still succeeds.
        for (workers, cap) in [(2, 0), (4, 1), (4, 3), (8, 2), (16, 5)] {
            let mut seen = Vec::new();
            CampaignRunner::new(workers)
                .with_reorder_cap(cap)
                .run_streaming(&points, eval, |i, v| seen.push((i, v)))
                .unwrap();
            assert_eq!(seen, reference, "workers={workers} cap={cap} diverged");
        }
    }
}
