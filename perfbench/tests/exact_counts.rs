//! Exact-count self-test: the work counts a seed produces repeat bit for
//! bit across runs, across 1 and 2 worker threads, and through the
//! traced wrappers; and the seed reaches the graph generator.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a debug build explores the checker suite several times slower).

use dds_core::rng::Rng;
use perfbench::{check, sim};

/// Run seeds per cell; small, since only the counts matter here.
const RUNS_PER_CELL: usize = 2;

/// `[runs, valid, terminated, events, sends, drops, queue p99, digest]`
/// of one `sim_churn` pass.
fn sim_counts(seed: u64, threads: usize) -> [u64; 8] {
    let plan = sim::setup(seed, RUNS_PER_CELL).plan;
    let first = sim::run_pass(&plan, threads, None);
    let second = sim::run_pass(&plan, threads, None);
    assert_eq!(
        first.counts(),
        second.counts(),
        "a reused arena changed the counts"
    );
    assert!(first.gate_errors.is_empty(), "{:?}", first.gate_errors);
    first.counts()
}

#[test]
fn sim_counts_repeat_across_runs_and_threads() {
    let one = sim_counts(7, 1);
    assert_eq!(one, sim_counts(7, 1));
    assert_eq!(one, sim_counts(7, 2));
}

#[test]
fn sim_events_follow_the_seed() {
    const EVENTS: usize = 3;
    assert_ne!(sim_counts(7, 1)[EVENTS], sim_counts(8, 1)[EVENTS]);
}

#[test]
fn check_counts_repeat_across_runs_threads_and_tracing() {
    let (subjects, _) = check::subjects();
    let pass = |threads, traced| check::run_pass(&subjects, threads, traced, &mut Rng::seeded(1));
    let one = pass(1, false);
    for v in &one.verdicts {
        assert!(v.error.is_none(), "{}: {:?}", v.name, v.error);
    }
    assert!(one.counts.states > 0 && one.counts.forks > 0 && one.counts.dedup_hits > 0);
    assert_eq!(one.counts, pass(1, false).counts);
    assert_eq!(one.counts, pass(2, false).counts);
    assert_eq!(one.counts, pass(2, true).counts);
}
