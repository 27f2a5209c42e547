//! `ParallelExec`: the data-parallel, partitioned executor substrate.
//!
//! The mask pipeline is embarrassingly parallel at the row level: the
//! meta-product enumerates combinations independently, the four-case
//! meta-selection decides each meta-tuple on its own, and base-relation
//! selection/product visit tuples one at a time. This module provides
//! the shared machinery — an [`ExecConfig`] policy object plus
//! order-preserving partitioned `map` helpers built on
//! [`std::thread::scope`] (no external dependencies, builds offline) —
//! that `motro-rel`'s algebra, `motro-core`'s meta-algebra, and the
//! server thread their work through.
//!
//! ## Determinism contract
//!
//! Sequential output is the oracle: at any worker count, every
//! partitioned operator must produce results byte-identical to its
//! sequential form. The helpers here guarantee the structural half of
//! that contract — input order is preserved exactly (items are split
//! into contiguous chunks and results are returned in chunk order, so
//! concatenating them reproduces the sequential iteration order).
//! Callers supply the other half by only parallelizing operators whose
//! per-row work is independent of its neighbours (see
//! `motro-core::meta_algebra` for the one exception, Basic-mode
//! selection, which stays sequential).

/// Environment variable consulted by [`ExecConfig::from_env`] for the
/// worker count (used by test suites, where no `--workers` flag
/// exists).
pub const WORKERS_ENV: &str = "MOTRO_WORKERS";

/// Environment variable consulted by [`ExecConfig::from_env`] for the
/// partitioning threshold.
pub const MIN_PARTITION_ROWS_ENV: &str = "MOTRO_MIN_PARTITION_ROWS";

/// Default partitioning threshold: operators over fewer rows than this
/// stay sequential (thread spawn + merge would dominate).
pub const DEFAULT_MIN_PARTITION_ROWS: usize = 128;

/// Policy for the partitioned executor.
///
/// `workers == 1` (the default) means fully sequential: every
/// parallel-capable operator takes its sequential path, with zero
/// threading overhead. Changing the config never changes results — only
/// wall-clock time — so it does not participate in the authorization
/// epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Maximum worker threads per partitioned operator.
    pub workers: usize,
    /// Minimum rows (or estimated output rows) per partition; inputs
    /// smaller than two partitions' worth stay sequential.
    pub min_partition_rows: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig::sequential()
    }
}

impl ExecConfig {
    /// The sequential executor (1 worker).
    pub fn sequential() -> Self {
        ExecConfig {
            workers: 1,
            min_partition_rows: DEFAULT_MIN_PARTITION_ROWS,
        }
    }

    /// An executor with `workers` threads and the default threshold.
    /// `0` is normalized to `1` (sequential).
    pub fn with_workers(workers: usize) -> Self {
        ExecConfig {
            workers: workers.max(1),
            ..ExecConfig::sequential()
        }
    }

    /// An executor sized to the machine:
    /// [`std::thread::available_parallelism`] workers (sequential when
    /// the count is unavailable) and the default threshold. Small
    /// inputs still run sequentially — `min_partition_rows` gates
    /// partitioning — so this is safe as a general default.
    pub fn auto() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ExecConfig::with_workers(workers)
    }

    /// Read `MOTRO_WORKERS` / `MOTRO_MIN_PARTITION_ROWS` from the
    /// environment, defaulting to [`ExecConfig::auto`] — the worker
    /// count matches the machine unless pinned by hand. Setting
    /// `MOTRO_WORKERS=1` forces sequential execution (the tier-1 test
    /// suite uses the variable to run at specific worker counts).
    pub fn from_env() -> Self {
        let mut cfg = ExecConfig::auto();
        if let Some(w) = read_env_usize(WORKERS_ENV) {
            cfg.workers = w.max(1);
        }
        if let Some(m) = read_env_usize(MIN_PARTITION_ROWS_ENV) {
            cfg.min_partition_rows = m.max(1);
        }
        cfg
    }

    /// Would any operator run in parallel under this config?
    pub fn is_parallel(&self) -> bool {
        self.workers > 1
    }

    /// How many partitions to use for an operator touching `rows` rows
    /// (or whose estimated output is `rows`). Returns 1 — sequential —
    /// unless at least two partitions of `min_partition_rows` fit.
    pub fn partitions_for(&self, rows: usize) -> usize {
        if self.workers <= 1 {
            return 1;
        }
        let min = self.min_partition_rows.max(1);
        if rows < min.saturating_mul(2) {
            return 1;
        }
        (rows / min).min(self.workers).max(1)
    }

    /// Split `items` into `parts` contiguous chunks and apply `f` to
    /// each on its own scoped worker thread. Results come back in chunk
    /// order, so concatenating them reproduces the sequential iteration
    /// order exactly.
    ///
    /// `parts <= 1` (or a single item) short-circuits to `vec![f(items)]`
    /// on the calling thread with no threading overhead.
    pub fn map_chunked<T, R, F>(
        &self,
        items: Vec<T>,
        parts: usize,
        op: &'static str,
        f: F,
    ) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(Vec<T>) -> R + Sync,
    {
        if parts <= 1 || items.len() <= 1 {
            return vec![f(items)];
        }
        let chunks = split_owned(items, parts);
        motro_obs::counter!("exec.partitions").add(chunks.len() as u64);
        // Worker threads do not inherit the coordinator's thread-local
        // profile session; they report their timings back through
        // `times` and the coordinator attaches them below.
        let profiling = motro_obs::profile::active();
        let f = &f;
        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(chunks.len(), || None);
        let mut times: Vec<Option<u64>> = vec![None; slots.len()];
        std::thread::scope(|scope| {
            for (index, ((slot, time_slot), chunk)) in slots
                .iter_mut()
                .zip(times.iter_mut())
                .zip(chunks)
                .enumerate()
            {
                scope.spawn(move || {
                    let t = motro_obs::start();
                    let t_profile = profiling.then(std::time::Instant::now);
                    *slot = Some(f(chunk));
                    *time_slot = record_partition(t, op, index, t_profile);
                });
            }
        });
        attach_partitions(profiling, op, &times);
        slots
            .into_iter()
            .map(|r| r.expect("partition worker completed"))
            .collect()
    }

    /// Borrowing variant of [`Self::map_chunked`]: splits a slice into
    /// `parts` contiguous sub-slices and applies `f` to each on its own
    /// scoped worker thread, returning results in chunk order.
    pub fn map_slices<'a, T, R, F>(
        &self,
        items: &'a [T],
        parts: usize,
        op: &'static str,
        f: F,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&'a [T]) -> R + Sync,
    {
        if parts <= 1 || items.len() <= 1 {
            return vec![f(items)];
        }
        let bounds = chunk_bounds(items.len(), parts);
        motro_obs::counter!("exec.partitions").add(bounds.len() as u64);
        let profiling = motro_obs::profile::active();
        let f = &f;
        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(bounds.len(), || None);
        let mut times: Vec<Option<u64>> = vec![None; slots.len()];
        std::thread::scope(|scope| {
            for (index, ((slot, time_slot), (lo, hi))) in slots
                .iter_mut()
                .zip(times.iter_mut())
                .zip(bounds)
                .enumerate()
            {
                let chunk = &items[lo..hi];
                scope.spawn(move || {
                    let t = motro_obs::start();
                    let t_profile = profiling.then(std::time::Instant::now);
                    *slot = Some(f(chunk));
                    *time_slot = record_partition(t, op, index, t_profile);
                });
            }
        });
        attach_partitions(profiling, op, &times);
        slots
            .into_iter()
            .map(|r| r.expect("partition worker completed"))
            .collect()
    }
}

/// Feed a finished partition's wall time into `exec.partition_ns` and
/// its per-(operator, partition) labeled series, and return it in ns —
/// falling back to the profile-only stopwatch when ambient recording is
/// disabled but a profile session wants the timing anyway.
fn record_partition(
    t: Option<std::time::Instant>,
    op: &'static str,
    index: usize,
    t_profile: Option<std::time::Instant>,
) -> Option<u64> {
    let recorded = t.map(|t| t.elapsed().as_nanos() as u64);
    if let Some(ns) = recorded {
        motro_obs::histogram!("exec.partition_ns").record_ns(ns);
        let part = index.to_string();
        motro_obs::metrics::registry()
            .histogram_labeled("exec.partition_ns", &[("op", op), ("part", &part)])
            .record_ns(ns);
    }
    recorded.or_else(|| t_profile.map(|t| t.elapsed().as_nanos() as u64))
}

/// Attach worker-measured partition timings to the coordinator's open
/// profile stage (no-op when no session is active).
fn attach_partitions(profiling: bool, op: &'static str, times: &[Option<u64>]) {
    if !profiling {
        return;
    }
    for (index, ns) in times.iter().enumerate() {
        if let Some(ns) = ns {
            motro_obs::profile::attach(
                "exec.partition",
                *ns,
                &[("op", op.to_string()), ("part", index.to_string())],
            );
        }
    }
}

fn read_env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Contiguous `(start, end)` chunk boundaries: `n` items into at most
/// `parts` near-equal chunks (earlier chunks take the remainder).
fn chunk_bounds(n: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.min(n).max(1);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// Split an owned vector into contiguous chunks per [`chunk_bounds`],
/// preserving order.
fn split_owned<T>(items: Vec<T>, parts: usize) -> Vec<Vec<T>> {
    let bounds = chunk_bounds(items.len(), parts);
    let mut out = Vec::with_capacity(bounds.len());
    let mut rest = items;
    for (lo, hi) in bounds {
        let tail = rest.split_off(hi - lo);
        out.push(rest);
        rest = tail;
    }
    debug_assert!(rest.is_empty());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_config_never_partitions() {
        let cfg = ExecConfig::sequential();
        assert_eq!(cfg.partitions_for(0), 1);
        assert_eq!(cfg.partitions_for(1_000_000), 1);
        assert!(!cfg.is_parallel());
    }

    #[test]
    fn partitions_respect_threshold_and_worker_cap() {
        let cfg = ExecConfig {
            workers: 4,
            min_partition_rows: 100,
        };
        assert_eq!(cfg.partitions_for(50), 1);
        assert_eq!(cfg.partitions_for(199), 1); // < 2 partitions' worth
        assert_eq!(cfg.partitions_for(200), 2);
        assert_eq!(cfg.partitions_for(350), 3);
        assert_eq!(cfg.partitions_for(100_000), 4); // capped by workers
    }

    #[test]
    fn zero_workers_normalizes_to_sequential() {
        assert_eq!(ExecConfig::with_workers(0).workers, 1);
    }

    #[test]
    fn chunk_bounds_cover_exactly_in_order() {
        for n in 0..40 {
            for parts in 1..9 {
                let b = chunk_bounds(n, parts);
                let mut expect = 0;
                for &(lo, hi) in &b {
                    assert_eq!(lo, expect);
                    assert!(hi >= lo);
                    expect = hi;
                }
                assert_eq!(expect, n);
                // Near-equal: sizes differ by at most one.
                if let (Some(max), Some(min)) = (
                    b.iter().map(|(l, h)| h - l).max(),
                    b.iter().map(|(l, h)| h - l).min(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn map_chunked_preserves_order() {
        let cfg = ExecConfig {
            workers: 4,
            min_partition_rows: 1,
        };
        let items: Vec<u32> = (0..37).collect();
        let parts = cfg.partitions_for(items.len());
        assert!(parts > 1);
        let mapped: Vec<Vec<u32>> =
            cfg.map_chunked(items.clone(), parts, "test", |chunk: Vec<u32>| {
                chunk.into_iter().map(|x| x * 2).collect()
            });
        let flat: Vec<u32> = mapped.into_iter().flatten().collect();
        let expect: Vec<u32> = items.iter().map(|x| x * 2).collect();
        assert_eq!(flat, expect);
    }

    #[test]
    fn map_slices_matches_sequential_fold() {
        let cfg = ExecConfig {
            workers: 3,
            min_partition_rows: 1,
        };
        let items: Vec<i64> = (0..100).collect();
        let sums = cfg.map_slices(&items, 3, "test", |chunk: &[i64]| chunk.iter().sum::<i64>());
        assert_eq!(sums.len(), 3);
        assert_eq!(sums.iter().sum::<i64>(), items.iter().sum::<i64>());
    }

    #[test]
    fn from_env_yields_a_usable_config() {
        // Tests must not mutate the process environment; just verify the
        // default shape when the variables are absent or already set by
        // the harness (from_env never returns workers == 0 either way).
        let cfg = ExecConfig::from_env();
        assert!(cfg.workers >= 1);
        assert!(cfg.min_partition_rows >= 1);
    }

    #[test]
    fn auto_matches_available_parallelism() {
        let cfg = ExecConfig::auto();
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(cfg.workers, cpus.max(1));
        assert_eq!(cfg.min_partition_rows, DEFAULT_MIN_PARTITION_ROWS);
    }
}
