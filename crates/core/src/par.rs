//! Adaptive fan-out policy for scoped-thread parallelism.
//!
//! PR 1 fanned campaign builds, CV folds, and synthesis out over
//! scoped threads unconditionally, which *lost* time whenever the
//! per-thread slice of work was smaller than the cost of spawning and
//! joining the threads (~100 µs per thread on this class of machine),
//! or when the host only offers one core in the first place. Every
//! fan-out site now asks [`should_fan_out`] first and falls back to
//! the sequential loop below its threshold; because parallel merges
//! are index-ordered everywhere, the two paths produce bit-identical
//! results and the choice is invisible to callers. The export bundle
//! writer is the exception: it always stages files on
//! [`max_workers`] threads, because every file already costs an
//! fsync, which is larger than a thread spawn.

use std::num::NonZeroUsize;

/// Number of worker threads worth spawning on this host (`1` when the
/// parallelism probe fails).
pub fn max_workers() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Whether fanning `items` totalling `total_work` abstract work units
/// out over scoped threads beats running them sequentially.
///
/// Fan-out pays only when (a) the host has a second core, (b) there
/// are at least two items to split, and (c) each worker's share of the
/// work (`total_work / workers`) stays above `min_work_per_thread`,
/// the caller's measured break-even point against thread spawn/join
/// overhead. Work units are caller-defined (tokens, ticks, traces);
/// each call site documents its own threshold's derivation.
pub fn should_fan_out(items: usize, total_work: usize, min_work_per_thread: usize) -> bool {
    let workers = max_workers().min(items);
    workers >= 2 && total_work / workers >= min_work_per_thread
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_item_never_fans_out() {
        assert!(!should_fan_out(1, usize::MAX, 1));
    }

    #[test]
    fn tiny_work_never_fans_out() {
        assert!(!should_fan_out(8, 8, 1000));
    }

    #[test]
    fn fan_out_requires_a_second_core() {
        let decision = should_fan_out(8, 1_000_000, 1);
        if max_workers() < 2 {
            assert!(!decision);
        } else {
            assert!(decision);
        }
    }

    #[test]
    fn workers_probe_is_positive() {
        assert!(max_workers() >= 1);
    }
}
