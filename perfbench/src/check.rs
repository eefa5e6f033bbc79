//! `check_explore`: the dds-check validation suite explored to a verdict.
//!
//! Every subject of `dds_check::mutants::suite()` plus
//! `flood_exhaustive_large()` is explored with the forking engine
//! (`explore_parallel_with`) at the fixed [`BUDGET`]. Mutants the
//! bounded explorer misses get the same seeded fuzz pass `run_check`
//! gives them. The traced run wraps every target and session in
//! forwarding timers ([`TracedTarget`], [`TracedSession`]).

use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use std::sync::Mutex;
use std::time::Instant;

use dds_check::mutants::{flood_exhaustive_large, suite};
use dds_check::{
    explore_parallel_with, fuzz, Budget, ChoicePoint, ExploreSession, Explored, ReadyEvent,
    RunReport, SessionState, Target, Violation,
};
use dds_core::rng::Rng;

use crate::report::{median, pass_time, secs, Report, Spans};

/// The exploration budget of every subject. One preemption is the
/// largest budget under which every correct subject's bounded space is
/// exhausted, which is the verdict this workload checks.
pub const BUDGET: Budget = Budget {
    max_runs: 100_000,
    max_depth: 32,
    max_preemptions: 1,
};
/// Fuzz attempts and base seed for mutants the explorer misses (the
/// `run_check` defaults).
const FUZZ_ATTEMPTS: usize = 200;
const FUZZ_SEED: u64 = 1;
/// Longest accepted witness, in decisions.
pub const MAX_WITNESS: usize = 20;
/// Times the set-up (building every target and running each once on its
/// default schedule) is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 51;
/// Untimed passes after set-up and outside `setup_s`, so lazy set-up and
/// cold caches do not land in a timed pass.
const WARMUP_PASSES: usize = 1;
/// Passes measured at least, however long they take.
const MIN_PASSES: usize = 3;
/// Explorer worker threads. A pass's time is set by its largest subject,
/// whose tree is a single shard, so a second worker gains nothing and
/// makes the peak RSS depend on how shards overlap.
pub const THREADS: usize = 1;

/// Builds a fresh target (the suite's subject factories).
pub type Build = fn() -> Box<dyn Target>;

/// One subject of the suite.
#[derive(Clone)]
pub struct Subject {
    /// Builds a fresh target.
    pub build: Build,
    /// `true` for mutants.
    pub expect_violation: bool,
    /// The target's name.
    pub name: String,
}

/// Builds every target once; returns the subjects and the build time.
pub fn subjects() -> (Vec<Subject>, f64) {
    let start = Instant::now();
    let mut out: Vec<Subject> = suite()
        .into_iter()
        .map(|s| Subject {
            name: (s.build)().name().to_string(),
            build: s.build,
            expect_violation: s.expect_violation,
        })
        .collect();
    let large = flood_exhaustive_large();
    out.push(Subject {
        name: large().name().to_string(),
        build: large,
        expect_violation: false,
    });
    (out, secs(start))
}

/// Builds every subject's target and runs it once under the empty plan
/// (the unmodified system), the probe that ends set-up.
pub fn probe(subjects: &[Subject]) {
    for s in subjects {
        std::hint::black_box((s.build)().run(&[]));
    }
}

/// One subject's verdict.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Subject name.
    pub name: String,
    /// What the explorer did.
    pub explored: Explored,
    /// Why the verdict is wrong, if it is.
    pub error: Option<String>,
}

/// Explores `subject` to its verdict on `threads` workers.
pub fn verdict(subject: &Subject, threads: usize, traced: bool) -> Verdict {
    let build = if traced {
        *CURRENT.lock().expect("CURRENT lock poisoned") = Some(subject.build);
        traced_build
    } else {
        subject.build
    };
    let explored = explore_parallel_with(threads, build, BUDGET);
    let mut witness = explored.counterexample.clone();
    if subject.expect_violation && witness.is_none() {
        let mut target = build();
        witness = fuzz(
            target.as_mut(),
            FUZZ_SEED,
            FUZZ_ATTEMPTS,
            2 * BUDGET.max_depth,
        )
        .counterexample;
    }
    let error = match (&witness, subject.expect_violation) {
        (Some(w), true) if w.plan.len() > MAX_WITNESS => {
            Some(format!("witness of {} decisions", w.plan.len()))
        }
        (None, true) => Some("mutant escaped".into()),
        (Some(w), false) => Some(format!("false alarm: {}", w.violation.reason)),
        (None, false) if !explored.exhausted => Some("not exhausted within budget".into()),
        _ => None,
    };
    Verdict {
        name: subject.name.clone(),
        explored,
        error,
    }
}

/// Work counts of one pass; they must repeat exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Choice-point states expanded.
    pub states: usize,
    /// Runs consumed.
    pub runs: usize,
    /// Snapshots taken.
    pub forks: usize,
    /// Dedup prunes.
    pub dedup_hits: usize,
}

/// One pass over every subject.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Time until every subject had its verdict, in s.
    pub wall_s: f64,
    /// Verdicts in subject order.
    pub verdicts: Vec<Verdict>,
    /// Summed explorer counts.
    pub counts: Counts,
}

/// Explores every subject, in an order drawn from `rng`.
pub fn run_pass(subjects: &[Subject], threads: usize, traced: bool, rng: &mut Rng) -> Pass {
    let mut order: Vec<usize> = (0..subjects.len()).collect();
    rng.shuffle(&mut order);
    let start = Instant::now();
    let mut verdicts: Vec<Option<Verdict>> = vec![None; subjects.len()];
    for i in order {
        verdicts[i] = Some(verdict(&subjects[i], threads, traced));
    }
    let wall_s = secs(start);
    let verdicts: Vec<Verdict> = verdicts.into_iter().flatten().collect();
    let mut counts = Counts::default();
    for v in &verdicts {
        counts.states += v.explored.states_explored;
        counts.runs += v.explored.runs;
        counts.forks += v.explored.forks;
        counts.dedup_hits += v.explored.dedup_hits;
    }
    Pass {
        wall_s,
        verdicts,
        counts,
    }
}

// ---------------------------------------------------------------------
// Tracing: forwarding wrappers that time every call into the target.
// ---------------------------------------------------------------------

/// Timed call kinds.
#[derive(Debug, Clone, Copy)]
enum Call {
    Advance,
    Choice,
    Choose,
    Fork,
    Fingerprint,
    Violation,
    Run,
}

const CALLS: usize = 7;

/// Call counts and time per kind, and target lifetimes from build to
/// drop (one target per explorer shard).
#[derive(Debug, Clone, Copy)]
struct Ledger {
    calls: [u64; CALLS],
    ns: [u64; CALLS],
    lifetime_ns: u64,
}

impl Ledger {
    const ZERO: Ledger = Ledger {
        calls: [0; CALLS],
        ns: [0; CALLS],
        lifetime_ns: 0,
    };

    fn add(&mut self, o: &Ledger) {
        for k in 0..CALLS {
            self.calls[k] += o.calls[k];
            self.ns[k] += o.ns[k];
        }
        self.lifetime_ns += o.lifetime_ns;
    }

    fn per_call_ns(&self, c: Call) -> f64 {
        self.ns[c as usize] as f64 / self.calls[c as usize].max(1) as f64
    }
}

/// The subject the traced build function wraps.
static CURRENT: Mutex<Option<Build>> = Mutex::new(None);
/// Totals merged from every traced target when it is dropped.
static LEDGER: Mutex<Ledger> = Mutex::new(Ledger::ZERO);

/// Per-target ledger shared with its sessions; merged into [`LEDGER`]
/// when the target and its last session are gone.
struct Local(Ledger);

impl Drop for Local {
    fn drop(&mut self) {
        if let Ok(mut total) = LEDGER.lock() {
            total.add(&self.0);
        }
    }
}

type Shared = Rc<RefCell<Local>>;

fn timed<T>(local: &Shared, call: Call, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    let mut l = local.borrow_mut();
    l.0.calls[call as usize] += 1;
    l.0.ns[call as usize] += ns;
    out
}

/// Builds the [`CURRENT`] subject wrapped in a [`TracedTarget`].
fn traced_build() -> Box<dyn Target> {
    let build = CURRENT
        .lock()
        .expect("CURRENT lock poisoned")
        .expect("traced build without a current subject");
    Box::new(TracedTarget {
        inner: build(),
        local: Rc::new(RefCell::new(Local(Ledger::ZERO))),
        born: Instant::now(),
    })
}

/// Forwards to the wrapped target, timing `run` and every session call.
pub struct TracedTarget {
    inner: Box<dyn Target>,
    local: Shared,
    born: Instant,
}

impl Drop for TracedTarget {
    fn drop(&mut self) {
        self.local.borrow_mut().0.lifetime_ns += self.born.elapsed().as_nanos() as u64;
    }
}

impl Target for TracedTarget {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn run(&mut self, plan: &[usize]) -> RunReport {
        let local = Rc::clone(&self.local);
        timed(&local, Call::Run, || self.inner.run(plan))
    }

    fn reduction_safe(&self) -> bool {
        self.inner.reduction_safe()
    }

    fn session(&mut self) -> Option<Box<dyn ExploreSession>> {
        let inner = self.inner.session()?;
        Some(Box::new(TracedSession {
            inner,
            local: Rc::clone(&self.local),
        }))
    }

    fn dump_counterexample(&mut self, plan: &[usize], path: &Path, reason: &str) {
        self.inner.dump_counterexample(plan, path, reason);
    }

    fn dump_causal_chain(&mut self, plan: &[usize], path: &Path, reason: &str) {
        self.inner.dump_causal_chain(plan, path, reason);
    }
}

/// Forwards to the wrapped session, timing every call.
pub struct TracedSession {
    inner: Box<dyn ExploreSession>,
    local: Shared,
}

impl ExploreSession for TracedSession {
    fn advance(&mut self) -> (SessionState, Vec<ReadyEvent>) {
        timed(&self.local, Call::Advance, || self.inner.advance())
    }

    fn choice(&self) -> Option<ChoicePoint> {
        timed(&self.local, Call::Choice, || self.inner.choice())
    }

    fn choose(&mut self, idx: usize) {
        timed(&self.local, Call::Choose, || self.inner.choose(idx));
    }

    fn fork(&self) -> Option<Box<dyn ExploreSession>> {
        let forked = timed(&self.local, Call::Fork, || self.inner.fork())?;
        Some(Box::new(TracedSession {
            inner: forked,
            local: Rc::clone(&self.local),
        }))
    }

    fn fingerprint(&self) -> Option<u64> {
        timed(&self.local, Call::Fingerprint, || self.inner.fingerprint())
    }

    fn violation(&self) -> Option<Violation> {
        timed(&self.local, Call::Violation, || self.inner.violation())
    }
}

// ---------------------------------------------------------------------
// The workload.
// ---------------------------------------------------------------------

fn measure(
    subjects: &[Subject],
    threads: usize,
    seconds: f64,
    traced: bool,
    rng: &mut Rng,
    mut spans: Option<&mut Spans>,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || secs(start) < seconds {
        let span_start = spans.as_ref().map(|s| s.now_ns());
        passes.push(run_pass(subjects, threads, traced, rng));
        if let (Some(s), Some(t0)) = (spans.as_deref_mut(), span_start) {
            s.close("check.pass", t0, None);
        }
    }
    passes
}

/// The `check_explore` workload. The suite is fixed; `seed` orders the
/// subjects in each pass. With `trace`, half the time runs untraced and
/// half through the forwarding wrappers.
pub fn run(seed: u64, seconds: f64, trace: bool, spans: &mut Spans) -> Report {
    let threads = THREADS;
    let mut build_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut subjects = Vec::new();
    let mut rng = Rng::seeded(seed);
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let (s, b) = self::subjects();
        subjects = s;
        build_s.push(b);
        probe(&subjects);
        setup_s.push(secs(start));
    }
    for _ in 0..WARMUP_PASSES {
        run_pass(&subjects, threads, false, &mut rng);
    }
    let untraced = measure(
        &subjects,
        threads,
        if trace { seconds / 2.0 } else { seconds },
        false,
        &mut rng,
        None,
    );
    *LEDGER.lock().expect("LEDGER lock poisoned") = Ledger::ZERO;
    let traced = if trace {
        measure(
            &subjects,
            threads,
            seconds / 2.0,
            true,
            &mut rng,
            Some(spans),
        )
    } else {
        Vec::new()
    };

    let mut r = Report {
        correct: true,
        ..Report::default()
    };
    let first = untraced[0].counts;
    for (i, p) in untraced.iter().chain(&traced).enumerate() {
        r.attempted += p.verdicts.len() as u64;
        for v in &p.verdicts {
            if let Some(e) = &v.error {
                r.failed += 1;
                r.fail(format!("pass {i}: {}: {e}", v.name));
            }
        }
        if p.counts != first {
            r.failed += p.verdicts.iter().filter(|v| v.error.is_none()).count() as u64;
            r.fail(format!(
                "pass {i}: counts {:?} differ from pass 0 {first:?}",
                p.counts
            ));
        }
    }

    let walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    let n = untraced.len() as u64;
    if !trace {
        r.metric("setup_s", median(&setup_s), "s", setup_s.len() as u64);
        r.metric(
            "ops_per_s",
            subjects.len() as f64 / pass_time(&walls),
            "1/s",
            n,
        );
        crate::procfs::report_own_rss(&mut r);
        r.extra("check_verdict_s", pass_time(&walls), "s", n);
        r.extra("check_subjects", subjects.len() as f64, "subjects", 1);
        return r;
    }

    let ledger = *LEDGER.lock().expect("LEDGER lock poisoned");
    let t = &traced;
    let tn = t.len() as u64;
    let c = first;
    let traced_walls: Vec<f64> = t.iter().map(|p| p.wall_s).collect();
    let session_ns: u64 = ledger.ns.iter().sum();
    let explorer_self_ns = ledger.lifetime_ns.saturating_sub(session_ns);
    r.metric(
        "check.target_build_ms",
        median(&build_s) * 1e3,
        "ms",
        build_s.len() as u64,
    );
    r.metric("check.states", c.states as f64, "count", tn);
    r.metric("check.runs", c.runs as f64, "count", tn);
    r.metric("check.forks", c.forks as f64, "count", tn);
    r.metric("check.dedup_hits", c.dedup_hits as f64, "count", tn);
    r.metric(
        "check.dedup_ratio",
        c.dedup_hits as f64 / c.runs.max(1) as f64,
        "ratio",
        tn,
    );
    r.metric(
        "check.states_per_s",
        c.states as f64 / pass_time(&traced_walls),
        "1/s",
        tn,
    );
    let calls = |k: Call| ledger.calls[k as usize];
    r.metric(
        "check.advance_ns_per_call",
        ledger.per_call_ns(Call::Advance),
        "ns",
        calls(Call::Advance),
    );
    r.metric(
        "check.fork_ns_per_call",
        ledger.per_call_ns(Call::Fork),
        "ns",
        calls(Call::Fork),
    );
    r.metric(
        "check.fingerprint_ns_per_call",
        ledger.per_call_ns(Call::Fingerprint),
        "ns",
        calls(Call::Fingerprint),
    );
    r.metric(
        "check.choose_ns_per_call",
        ledger.per_call_ns(Call::Choose),
        "ns",
        calls(Call::Choose),
    );
    r.metric(
        "check.violation_us",
        ledger.per_call_ns(Call::Violation) / 1e3,
        "us",
        calls(Call::Violation),
    );
    r.metric(
        "check.explorer_self_ms",
        explorer_self_ns as f64 / 1e6 / tn.max(1) as f64,
        "ms",
        tn,
    );
    r.metric(
        "trace.overhead_ratio",
        pass_time(&traced_walls) / pass_time(&walls),
        "ratio",
        tn,
    );
    r
}
