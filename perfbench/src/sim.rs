//! `sim_churn`: OTQ sweeps across the paper's dynamicity classes.
//!
//! One pass runs every cell of a seeded plan — flood-echo, single-tree
//! and push-sum gossip on `erdos_renyi`, `random_geometric`,
//! `watts_strogatz` and path graphs, static and under balanced churn
//! with crashes at three rates, plus one path-stretch (C4) cell — each
//! over [`RUNS_PER_CELL`] run seeds. Each pass spreads the cells over
//! [`THREADS`] workers with `parallel_map_chunked`, each worker reusing
//! one `SweepArena`, so runs within a cell after its first are a
//! `World::reset`, as in the library's own sweeps.

use std::time::Instant;

use dds_core::rng::Rng;
use dds_core::spec::aggregate::AggregateKind;
use dds_core::time::Time;
use dds_net::{algo, generate};
use dds_obs::Histogram;
use dds_protocols::harness::{
    fold_sweep, DriverSpec, ProtocolKind, QueryScenario, SweepArena, SweepRow,
};
use dds_sim::parallel::parallel_map_chunked;

use crate::report::{median, pass_time, quantile, secs, Report, Span, Spans};

/// Run seeds per cell in one pass.
pub const RUNS_PER_CELL: usize = 6;
/// Seeded graphs of each random family in the plan; several per family
/// keep the work of a pass nearly the same from seed to seed.
const GRAPHS_PER_FAMILY: usize = 2;
/// Processes in each generated random graph.
const NODES: usize = 40;
/// Times the set-up (graph generation and scenario build) is repeated;
/// `setup_s` is the median.
const SETUP_REPS: usize = 51;
/// Passes measured at least, however long they take.
const MIN_PASSES: usize = 3;
/// Untimed passes after set-up and outside `setup_s`, so caches and the
/// allocator are warm before the first timed pass.
const WARMUP_PASSES: usize = 3;

/// Sweep worker threads. One leaves the second CPU of a 2-CPU machine
/// to the rest of the system: with two workers, pass rates moved about
/// twice as much between runs as with one, and peak RSS varied with how
/// the workers' allocations overlapped.
pub const THREADS: usize = 1;

/// What a cell's folded row must show, checked on every pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// No expectation beyond determinism.
    Any,
    /// Static flood-echo with a TTL above the diameter: every run is
    /// interval-valid and terminates.
    AllValid,
    /// The path-stretch adversary: no TTL wins (class C4), so no run is
    /// interval-valid.
    NoneValid,
}

/// One sweep cell: a scenario run once per seed.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Graph, protocol and churn, for reports.
    pub label: String,
    /// The scenario; its `seed` is replaced per run.
    pub scenario: QueryScenario,
    /// Run seeds.
    pub seeds: Vec<u64>,
    /// What the folded row must show.
    pub expect: Expect,
}

/// The cells of one pass, generated from the benchmark seed.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Cells in fold order.
    pub cells: Vec<Cell>,
}

impl Plan {
    /// Generates the graphs and scenarios for `seed`, with
    /// `runs_per_cell` run seeds per cell; also returns the time spent in
    /// the graph generators, in s.
    pub fn generate(seed: u64, runs_per_cell: usize) -> (Plan, f64) {
        let mut rng = Rng::seeded(seed);
        let mut graphs = Vec::new();
        let gen_start = Instant::now();
        for _ in 0..GRAPHS_PER_FAMILY {
            graphs.push(("erdos-renyi", generate::erdos_renyi(NODES, 0.12, &mut rng)));
            graphs.push((
                "geometric",
                generate::random_geometric(NODES, 0.3, &mut rng),
            ));
            graphs.push((
                "watts-strogatz",
                generate::watts_strogatz(NODES, 2, 0.2, &mut rng),
            ));
        }
        graphs.push(("path", generate::path(12)));
        let graph_gen_s = secs(gen_start);
        let churns = [
            ("static", DriverSpec::None),
            ("churn2%", balanced(0.02, 0.3)),
            ("churn5%", balanced(0.05, 0.5)),
            ("churn10%", balanced(0.10, 1.0)),
        ];
        let mut cells = Vec::new();
        for (gname, graph) in &graphs {
            let diameter = algo::diameter(graph);
            let ttl = diameter.map_or(NODES, |d| d + 1) as u32;
            let protocols = [
                ProtocolKind::FloodEcho { ttl },
                ProtocolKind::SingleTree { ttl },
                ProtocolKind::Gossip { rounds: 40 },
            ];
            for protocol in protocols {
                for (cname, driver) in churns {
                    let mut s = QueryScenario::new(graph.clone(), protocol);
                    s.aggregate = AggregateKind::Average;
                    s.deadline = Time::from_ticks(2_000);
                    s.driver = driver;
                    let expect = match (protocol, driver, diameter) {
                        (ProtocolKind::FloodEcho { .. }, DriverSpec::None, Some(_)) => {
                            Expect::AllValid
                        }
                        _ => Expect::Any,
                    };
                    cells.push(Cell {
                        label: format!("{gname}/{}/{cname}", protocol.label()),
                        scenario: s,
                        seeds: (0..runs_per_cell).map(|_| rng.next_u64()).collect(),
                        expect,
                    });
                }
            }
        }
        let mut adversary =
            QueryScenario::new(generate::path(4), ProtocolKind::FloodEcho { ttl: 8 });
        adversary.driver = DriverSpec::PathStretch { window: 1 };
        adversary.deadline = Time::from_ticks(600);
        cells.push(Cell {
            label: "path/flood-echo/path-stretch".into(),
            scenario: adversary,
            seeds: (0..runs_per_cell).map(|_| rng.next_u64()).collect(),
            expect: Expect::NoneValid,
        });
        (Plan { cells }, graph_gen_s)
    }

    /// Runs in one pass.
    pub fn runs(&self) -> usize {
        self.cells.iter().map(|c| c.seeds.len()).sum()
    }
}

fn balanced(rate: f64, crash_fraction: f64) -> DriverSpec {
    DriverSpec::Balanced {
        rate,
        window: 10,
        crash_fraction,
    }
}

/// One cell's folded row, its runs' merged queue-depth histogram, each
/// `run_in` call's interval (ns since the pass origin) and the fold time.
/// Workers fold their own cells, so every run is freed on the thread
/// that allocated it.
struct CellOut {
    row: SweepRow,
    depth: Histogram,
    calls: Vec<(u64, u64)>,
    fold_ns: u64,
}

/// Runs one cell's seeds through `arena` and folds them.
fn run_cell(cell: &Cell, origin: Instant, arena: &mut SweepArena) -> CellOut {
    let mut scenario = cell.scenario.clone();
    let mut runs = Vec::with_capacity(cell.seeds.len());
    let mut calls = Vec::with_capacity(cell.seeds.len());
    for &seed in &cell.seeds {
        scenario.seed = seed;
        let start = origin.elapsed().as_nanos() as u64;
        runs.push(scenario.run_in(arena));
        calls.push((start, origin.elapsed().as_nanos() as u64));
    }
    let fold_start = Instant::now();
    let row = fold_sweep(&runs);
    let fold_ns = fold_start.elapsed().as_nanos() as u64;
    let mut depth = Histogram::new();
    for r in &runs {
        depth.merge(&r.obs.queue_depth);
    }
    CellOut {
        row,
        depth,
        calls,
        fold_ns,
    }
}

/// What one pass produced. The counts are pure functions of the plan.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Wall time until every cell was run and folded, in s.
    pub wall_s: f64,
    /// Judged runs.
    pub runs: u64,
    /// Interval-valid runs.
    pub valid: u64,
    /// Terminated runs.
    pub terminated: u64,
    /// Kernel events: delivers + timer fires + joins + leaves + crashes.
    pub events: u64,
    /// Messages sent.
    pub sends: u64,
    /// Messages dropped.
    pub drops: u64,
    /// 99th-percentile event-queue depth over every dispatch of the pass.
    pub queue_depth_p99: u64,
    /// FNV-1a digest of the folded rows.
    pub digest: u64,
    /// Each `run_in` call's duration, in µs.
    pub run_us: Vec<f64>,
    /// Time spent in `fold_sweep`, summed over workers, in s.
    pub fold_s: f64,
    /// Cells whose row broke its expectation.
    pub gate_errors: Vec<String>,
    /// Runs in those cells.
    pub failed_runs: u64,
}

impl Pass {
    /// The exact counts that must repeat for a seed.
    pub fn counts(&self) -> [u64; 8] {
        [
            self.runs,
            self.valid,
            self.terminated,
            self.events,
            self.sends,
            self.drops,
            self.queue_depth_p99,
            self.digest,
        ]
    }
}

/// Runs one pass of `plan` on `threads` workers, each reusing one
/// `SweepArena` across the cells it claims, as the library's own sweeps
/// do; with `spans`, records one span per pass and per `run_in` call
/// inside the timed region.
pub fn run_pass(plan: &Plan, threads: usize, spans: Option<&mut Spans>) -> Pass {
    let origin = Instant::now();
    let outs = parallel_map_chunked(
        threads,
        plan.cells.iter().collect(),
        SweepArena::default,
        |arena, cell| run_cell(cell, origin, arena),
    );
    if let Some(spans) = spans {
        let base = spans
            .now_ns()
            .saturating_sub(origin.elapsed().as_nanos() as u64);
        let parent = spans.close("sim.pass", base, None);
        for o in &outs {
            for &(a, b) in &o.calls {
                spans.push(Span {
                    name: "protocols.run_in",
                    start_ns: base + a,
                    end_ns: base + b,
                    parent: Some(parent),
                });
            }
        }
    }
    let wall_s = secs(origin);

    let mut pass = Pass {
        wall_s,
        runs: 0,
        valid: 0,
        terminated: 0,
        events: 0,
        sends: 0,
        drops: 0,
        queue_depth_p99: 0,
        digest: 0xcbf2_9ce4_8422_2325,
        run_us: Vec::with_capacity(plan.runs()),
        fold_s: 0.0,
        gate_errors: Vec::new(),
        failed_runs: 0,
    };
    let mut depth = Histogram::new();
    for (cell, o) in plan.cells.iter().zip(&outs) {
        let row = &o.row;
        pass.runs += u64::from(row.runs);
        pass.valid += u64::from(row.interval_valid);
        pass.terminated += u64::from(row.terminated);
        let m = &row.metrics;
        pass.events += m.delivers + m.timer_fires + m.joins + m.leaves + m.crashes;
        pass.sends += m.sends;
        pass.drops += m.drops;
        for b in format!("{}:{row:?}", cell.label).bytes() {
            pass.digest = (pass.digest ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        depth.merge(&o.depth);
        pass.fold_s += o.fold_ns as f64 / 1e9;
        pass.run_us
            .extend(o.calls.iter().map(|&(a, b)| (b - a) as f64 / 1e3));
        let ok = match cell.expect {
            Expect::Any => true,
            Expect::AllValid => row.interval_valid == row.runs && row.terminated == row.runs,
            Expect::NoneValid => row.interval_valid == 0,
        };
        if !ok {
            pass.failed_runs += u64::from(row.runs);
            pass.gate_errors.push(format!(
                "{}: {:?} expected, got {}/{} valid, {} terminated",
                cell.label, cell.expect, row.interval_valid, row.runs, row.terminated
            ));
        }
    }
    pass.queue_depth_p99 = depth.percentile(99.0);
    pass
}

/// A generated plan and the time it took.
pub struct Setup {
    /// The plan.
    pub plan: Plan,
    /// Wall time of this set-up (graph generation and scenario build), in s.
    pub setup_s: f64,
    /// Wall time of the `generate::*` calls alone, in ms.
    pub graph_gen_ms: f64,
}

/// Generates the plan for `seed` with `runs_per_cell` run seeds per cell.
pub fn setup(seed: u64, runs_per_cell: usize) -> Setup {
    let start = Instant::now();
    let (plan, graph_gen_s) = Plan::generate(seed, runs_per_cell);
    Setup {
        plan,
        setup_s: secs(start),
        graph_gen_ms: graph_gen_s * 1e3,
    }
}

/// Runs passes until `seconds` have gone by (at least [`MIN_PASSES`]).
fn measure(plan: &Plan, seconds: f64, mut spans: Option<&mut Spans>) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || secs(start) < seconds {
        passes.push(run_pass(plan, THREADS, spans.as_deref_mut()));
    }
    passes
}

/// The `sim_churn` workload. With `trace`, half the time runs untraced
/// and half traced, and the per-layer metrics are reported.
pub fn run(seed: u64, seconds: f64, trace: bool, spans: &mut Spans) -> Report {
    let mut setup_s = Vec::new();
    let mut gen_ms = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let s = setup(seed, RUNS_PER_CELL);
        setup_s.push(s.setup_s);
        gen_ms.push(s.graph_gen_ms);
        last = Some(s);
    }
    let plan = last.expect("at least one set-up").plan;
    for _ in 0..WARMUP_PASSES {
        run_pass(&plan, THREADS, None);
    }

    let untraced = measure(&plan, if trace { seconds / 2.0 } else { seconds }, None);
    let traced = if trace {
        measure(&plan, seconds / 2.0, Some(spans))
    } else {
        Vec::new()
    };

    let mut r = Report {
        correct: true,
        ..Report::default()
    };
    let first = untraced[0].counts();
    for (i, p) in untraced.iter().chain(&traced).enumerate() {
        r.attempted += p.runs;
        r.failed += p.failed_runs;
        for e in &p.gate_errors {
            r.fail(format!("pass {i}: {e}"));
        }
        if p.counts() != first {
            r.failed += p.runs - p.failed_runs;
            r.fail(format!(
                "pass {i}: counts {:?} differ from pass 0 {first:?}",
                p.counts()
            ));
        }
    }

    let walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    let rate = plan.runs() as f64 / pass_time(&walls);
    let n = untraced.len() as u64;
    if !trace {
        r.metric("setup_s", median(&setup_s), "s", setup_s.len() as u64);
        r.metric("ops_per_s", rate, "1/s", n);
        crate::procfs::report_own_rss(&mut r);
        r.extra("sim_runs_per_s", rate, "runs/s", n);
        r.extra("sweep_runs_per_pass", plan.runs() as f64, "runs", n);
        r.extra("sweep_cells", plan.cells.len() as f64, "cells", 1);
        return r;
    }

    let t = &traced;
    let p = &t[0];
    let traced_us: Vec<f64> = t.iter().flat_map(|p| p.run_us.iter().copied()).collect();
    let run_ns: f64 = traced_us.iter().sum::<f64>() * 1e3;
    let events: u64 = t.iter().map(|p| p.events).sum();
    let traced_walls: Vec<f64> = t.iter().map(|p| p.wall_s).collect();
    let folds: Vec<f64> = t.iter().map(|p| p.fold_s * 1e3).collect();
    let tn = t.len() as u64;
    r.metric(
        "net.graph_gen_ms",
        median(&gen_ms),
        "ms",
        gen_ms.len() as u64,
    );
    r.metric(
        "protocols.run_in_us.p50",
        quantile(&traced_us, 0.5),
        "us",
        traced_us.len() as u64,
    );
    r.metric(
        "protocols.run_in_us.p99",
        quantile(&traced_us, 0.99),
        "us",
        traced_us.len() as u64,
    );
    r.metric(
        "sim.ns_per_event",
        run_ns / events.max(1) as f64,
        "ns",
        events,
    );
    r.metric("sim.events", p.events as f64, "count", tn);
    r.metric("sim.sends", p.sends as f64, "count", tn);
    r.metric("sim.drops", p.drops as f64, "count", tn);
    r.metric("sim.queue_depth.p99", p.queue_depth_p99 as f64, "count", tn);
    r.metric("protocols.fold_ms", median(&folds), "ms", tn);
    r.metric(
        "protocols.valid_ratio",
        p.valid as f64 / p.runs.max(1) as f64,
        "ratio",
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
