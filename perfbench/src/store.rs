//! `store_open`: open-loop Poisson load on the networked timed-quorum
//! store.
//!
//! One `svc_seed` and three `svc_replica` processes run over Unix
//! sockets in a fresh directory. This thread hosts one
//! `dds_svc::node::Host` with [`CLIENTS`] client cores and offers a
//! seeded read/write mix on one register at [`RATE_PER_S`], far below
//! the store's capacity. Each op is timed from its intended send time,
//! so a stall is charged to every op it delays. Arrivals that find no
//! free client core wait in a backlog. The generator blocks in `poll`
//! (which a reply wakes at once) or in `sleep`, and polls without
//! blocking, yielding the core between polls, only when the next
//! arrival is due within [`SPIN_NS`], or within about a millisecond
//! while an op is in flight (`poll` waits in whole milliseconds).
//!
//! The processes are killed and reaped, and the socket directory
//! removed, when the [`Cluster`] is dropped: on success, on error and
//! on panic. Ops unfinished at the drain deadline count as failed.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dds_core::process::ProcessId;
use dds_core::rng::Rng;
use dds_core::spec::history::OpRecord;
use dds_core::spec::register::{check_atomic, Linearizability, RegOp, RegResp, RegisterHistory};
use dds_core::time::Time;
use dds_store::msg::StoreMsg;
use dds_svc::codec::{ROLE_CLIENT, ROLE_REPLICA};
use dds_svc::node::{net_params, Addr, Host, HostCfg};

use crate::procfs::{cpu_us, peak_rss_mb, Proc};
use crate::report::{median, quantile, secs, Report, Span, Spans};

/// Offered load, ops per second.
pub const RATE_PER_S: f64 = 1000.0;
/// Share of ops that are writes.
const WRITE_SHARE: f64 = 0.5;
/// Client cores in the loader's `Host`: enough that arrivals rarely wait.
const CLIENTS: u64 = 16;
/// Replica processes; pids `1..=REPLICAS`.
const REPLICAS: u64 = 3;
/// Client pids start here.
const CLIENT_PID_BASE: u64 = 1000;
/// Closed-loop ops run during set-up, before the first timed op.
const WARMUP_OPS: u64 = 20;
/// Times the cluster is started; `setup_s` is the median.
const SETUP_REPS: usize = 25;
/// Deadline for the seed to be ready and every replica to join.
const READY_TIMEOUT: Duration = Duration::from_secs(10);
/// Deadline for in-flight ops after the last arrival.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(3);
/// Poll without blocking when the next arrival is this close, in ns.
const SPIN_NS: u64 = 150_000;
/// Target and cap of one atomicity-check window, in ops.
const WINDOW_TARGET: usize = 32;
const WINDOW_MAX: usize = 120;

fn err(msg: String) -> io::Error {
    io::Error::other(msg)
}

/// The seed and replica processes, the loader `Host` joined to them,
/// and their socket directory. Dropping it kills and reaps every
/// process and removes the directory.
pub struct Cluster {
    dir: PathBuf,
    children: Vec<Child>,
    /// Drains the seed's stdout until the seed exits.
    seed_out: Option<JoinHandle<()>>,
    replica_pids: Vec<u32>,
    host: Option<Host>,
    epoch: Instant,
    /// Spawn until every replica is in the loader's roster, in ms.
    pub join_ms: f64,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.host = None;
        for c in &mut self.children {
            let _ = c.kill();
        }
        for c in &mut self.children {
            let _ = c.wait();
        }
        if let Some(h) = self.seed_out.take() {
            let _ = h.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Cluster {
    /// Starts the seed and replicas in `dir` (which must not exist) and
    /// joins a loader `Host` with [`CLIENTS`] client cores.
    pub fn start(bin_dir: &Path, dir: &Path) -> io::Result<Cluster> {
        let start = Instant::now();
        std::fs::create_dir_all(dir)?;
        let mut cluster = Cluster {
            dir: dir.to_path_buf(),
            children: Vec::new(),
            seed_out: None,
            replica_pids: Vec::new(),
            host: None,
            epoch: start,
            join_ms: 0.0,
        };
        let sock = |name: &str| format!("uds:{}", dir.join(format!("{name}.sock")).display());
        let seed_addr = sock("seed");
        let seed = cluster.spawn(
            bin_dir,
            "svc_seed",
            &["--listen", &seed_addr],
            Stdio::piped(),
        )?;
        let out = seed.stdout.take().expect("stdout is piped");
        // The seed prints its `ready` line once it listens; its socket
        // file appears earlier, at bind. Its later lines are drained so
        // it never blocks on a full pipe.
        let (ready_tx, ready_rx) = mpsc::channel();
        cluster.seed_out = Some(thread::spawn(move || {
            let mut ready_tx = Some(ready_tx);
            for line in BufReader::new(out).lines() {
                let Ok(line) = line else { break };
                if line.contains("\"ready\"") {
                    if let Some(tx) = ready_tx.take() {
                        let _ = tx.send(());
                    }
                }
            }
        }));
        let deadline = start + READY_TIMEOUT;
        match ready_rx.recv_timeout(READY_TIMEOUT) {
            Ok(()) => {}
            Err(RecvTimeoutError::Timeout) => {
                return Err(err("svc_seed was not ready in time".into()))
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err(err("svc_seed exited before it was ready".into()))
            }
        }
        let initial: Vec<String> = (1..=REPLICAS).map(|p| p.to_string()).collect();
        let initial = initial.join(",");
        for pid in 1..=REPLICAS {
            let listen = sock(&format!("replica{pid}"));
            let replica = cluster.spawn(
                bin_dir,
                "svc_replica",
                &[
                    "--pid",
                    &pid.to_string(),
                    "--listen",
                    &listen,
                    "--seed",
                    &seed_addr,
                    "--initial",
                    &initial,
                    "--status-every-ms",
                    "3600000",
                ],
                Stdio::null(),
            )?;
            let pid = replica.id();
            cluster.replica_pids.push(pid);
        }
        let params = net_params((1..=REPLICAS).map(ProcessId::from_raw).collect());
        let cores = (0..CLIENTS)
            .map(|i| (ProcessId::from_raw(CLIENT_PID_BASE + i), params.clone()))
            .collect();
        let cfg = HostCfg {
            listen: None,
            seed: Some(Addr::parse(&seed_addr).map_err(err)?),
            role: ROLE_CLIENT,
        };
        let mut host = Host::new(cfg, cores, cluster.epoch)?;
        loop {
            let joined = host
                .roster()
                .iter()
                .filter(|(_, role, _)| *role == ROLE_REPLICA)
                .count() as u64;
            if host.started() && joined >= REPLICAS {
                break;
            }
            cluster.check_alive()?;
            if Instant::now() > deadline {
                return Err(err(format!(
                    "{joined} of {REPLICAS} replicas joined in time"
                )));
            }
            host.tick(5)?;
        }
        cluster.join_ms = secs(start) * 1e3;
        cluster.host = Some(host);
        Ok(cluster)
    }

    fn spawn(
        &mut self,
        bin_dir: &Path,
        bin: &str,
        args: &[&str],
        stdout: Stdio,
    ) -> io::Result<&mut Child> {
        let child = Command::new(bin_dir.join(bin))
            .args(args)
            .stdin(Stdio::null())
            .stdout(stdout)
            .spawn()
            .map_err(|e| err(format!("spawn {}: {e}", bin_dir.join(bin).display())))?;
        self.children.push(child);
        Ok(self.children.last_mut().expect("just pushed"))
    }

    fn check_alive(&mut self) -> io::Result<()> {
        for c in &mut self.children {
            if let Some(status) = c.try_wait()? {
                return Err(err(format!("process {} exited early: {status}", c.id())));
            }
        }
        Ok(())
    }

    fn host(&mut self) -> &mut Host {
        self.host.as_mut().expect("host lives until drop")
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Total CPU time of the replicas so far, in µs.
    fn replica_cpu_us(&self) -> io::Result<f64> {
        self.replica_pids
            .iter()
            .map(|&p| cpu_us(Proc::Pid(p)))
            .sum()
    }

    /// Summed peak RSS of the replicas, in MB.
    fn replica_rss_mb(&self) -> io::Result<f64> {
        self.replica_pids
            .iter()
            .map(|&p| peak_rss_mb(Proc::Pid(p)))
            .sum()
    }
}

/// One finished (or abandoned) operation.
#[derive(Debug, Clone)]
struct Done {
    pid: u64,
    op: RegOp,
    /// Injection and observed response, µs since the host epoch.
    invoked_us: u64,
    responded_us: u64,
    response: Option<RegResp>,
    /// Intended send to observed response, in µs.
    latency_us: f64,
    /// Actual send minus intended send, in µs.
    late_us: f64,
    /// Aborted by the client core, or unfinished at the deadline.
    failed: bool,
}

/// One op in flight on a client core.
struct InFlight {
    op: RegOp,
    intended_ns: u64,
    invoked_us: u64,
    late_us: f64,
    log_len: usize,
}

/// What one open-loop phase measured.
#[derive(Debug, Default)]
struct Phase {
    done: Vec<Done>,
    elapsed_s: f64,
    backlog_max: usize,
    retries: u64,
    aborts: u64,
    tick_us: Vec<f64>,
    replica_cpu_us: f64,
}

impl Phase {
    fn latencies(&self, write: Option<bool>) -> Vec<f64> {
        self.done
            .iter()
            .filter(|d| write.is_none_or(|w| matches!(d.op, RegOp::Write(_)) == w))
            .map(|d| d.latency_us)
            .collect()
    }

    fn completed(&self) -> usize {
        self.done.iter().filter(|d| !d.failed).count()
    }
}

/// The op generator: seeded Poisson arrivals and read/write mix.
struct Load {
    rng: Rng,
    next_value: u64,
}

impl Load {
    /// Next op and the gap before it, in ns.
    fn next(&mut self) -> (u64, RegOp) {
        let gap_s = -(1.0 - self.rng.unit_f64()).ln() / RATE_PER_S;
        let op = if self.rng.unit_f64() < WRITE_SHARE {
            self.next_value += 1;
            RegOp::Write(self.next_value)
        } else {
            RegOp::Read
        };
        ((gap_s * 1e9) as u64, op)
    }
}

/// The response and abort flag of the op core `i` started when its log
/// held `log_len` entries, once it has finished.
fn poll_done(cluster: &mut Cluster, i: usize, log_len: usize) -> Option<(Option<RegResp>, bool)> {
    let log = cluster.host().core(i).log();
    (log.len() > log_len).then(|| {
        let e = &log[log.len() - 1];
        (e.response, e.aborted)
    })
}

/// Runs closed-loop ops on core 0 (set-up, untimed).
fn warm_up(cluster: &mut Cluster, load: &mut Load, log: &mut Vec<Done>) -> io::Result<()> {
    let deadline = Instant::now() + READY_TIMEOUT;
    for _ in 0..WARMUP_OPS {
        let (_, op) = load.next();
        let invoked_us = cluster.now_us();
        let log_len = cluster.host().core(0).log().len();
        cluster.host().inject(0, StoreMsg::Invoke(op));
        let (response, aborted) = loop {
            if let Some(r) = poll_done(cluster, 0, log_len) {
                break r;
            }
            if Instant::now() > deadline {
                return Err(err("warm-up op did not finish".into()));
            }
            cluster.host().tick(1)?;
        };
        if aborted {
            return Err(err("warm-up op aborted".into()));
        }
        let responded_us = cluster.now_us();
        log.push(Done {
            pid: CLIENT_PID_BASE,
            op,
            invoked_us,
            responded_us,
            response,
            latency_us: (responded_us - invoked_us) as f64,
            late_us: 0.0,
            failed: false,
        });
    }
    Ok(())
}

/// Offers open-loop load for `seconds`, then drains.
fn open_loop(
    cluster: &mut Cluster,
    load: &mut Load,
    seconds: f64,
    mut spans: Option<&mut Spans>,
) -> io::Result<Phase> {
    // Arrival schedule, ns since the phase origin.
    let horizon = (seconds * 1e9) as u64;
    let mut arrivals: Vec<(u64, RegOp)> = Vec::new();
    let mut t = 0u64;
    loop {
        let (gap, op) = load.next();
        t += gap;
        if t >= horizon {
            break;
        }
        arrivals.push((t, op));
    }

    let k = CLIENTS as usize;
    let stats0: Vec<_> = (0..k).map(|i| cluster.host().core(i).stats).collect();
    let cpu0 = cluster.replica_cpu_us()?;
    let mut phase = Phase::default();
    let mut busy: Vec<Option<InFlight>> = (0..k).map(|_| None).collect();
    let mut free: Vec<usize> = (0..k).rev().collect();
    let mut backlog: VecDeque<usize> = VecDeque::new();
    let mut next = 0usize;
    let span_base = spans.as_ref().map(|s| s.now_ns());
    let origin = Instant::now();
    let deadline = horizon + DRAIN_TIMEOUT.as_nanos() as u64;
    let mut last_done_ns = 0u64;
    loop {
        let now_ns = origin.elapsed().as_nanos() as u64;
        for (i, slot) in busy.iter_mut().enumerate() {
            let Some(f) = slot else { continue };
            let Some((response, aborted)) = poll_done(cluster, i, f.log_len) else {
                continue;
            };
            let f = slot.take().expect("checked above");
            let responded_us = cluster.now_us();
            let latency_us = (now_ns - f.intended_ns) as f64 / 1e3;
            if let (Some(s), Some(base)) = (spans.as_deref_mut(), span_base) {
                s.push(Span {
                    name: "store.op",
                    start_ns: base + f.intended_ns,
                    end_ns: base + now_ns,
                    parent: None,
                });
            }
            phase.done.push(Done {
                pid: CLIENT_PID_BASE + i as u64,
                op: f.op,
                invoked_us: f.invoked_us,
                responded_us,
                response,
                latency_us,
                late_us: f.late_us,
                failed: aborted,
            });
            last_done_ns = now_ns;
            free.push(i);
        }
        while next < arrivals.len() && arrivals[next].0 <= now_ns {
            backlog.push_back(next);
            next += 1;
        }
        phase.backlog_max = phase.backlog_max.max(backlog.len());
        while !backlog.is_empty() && !free.is_empty() {
            let a = backlog.pop_front().expect("non-empty");
            let i = free.pop().expect("non-empty");
            let (intended_ns, op) = arrivals[a];
            let late_ns = origin.elapsed().as_nanos() as u64 - intended_ns;
            let f = InFlight {
                op,
                intended_ns,
                invoked_us: cluster.now_us(),
                late_us: late_ns as f64 / 1e3,
                log_len: cluster.host().core(i).log().len(),
            };
            cluster.host().inject(i, StoreMsg::Invoke(op));
            busy[i] = Some(f);
        }
        let outstanding = busy.iter().any(Option::is_some);
        if next == arrivals.len() && !outstanding {
            break;
        }
        let now_ns = origin.elapsed().as_nanos() as u64;
        if now_ns > deadline {
            for f in busy.iter_mut().filter_map(Option::take) {
                phase.done.push(Done {
                    pid: 0,
                    op: f.op,
                    invoked_us: f.invoked_us,
                    responded_us: cluster.now_us(),
                    response: None,
                    latency_us: (now_ns - f.intended_ns) as f64 / 1e3,
                    late_us: f.late_us,
                    failed: true,
                });
            }
            for a in backlog.drain(..).chain(next..arrivals.len()) {
                let (intended_ns, op) = arrivals[a];
                phase.done.push(Done {
                    pid: 0,
                    op,
                    invoked_us: 0,
                    responded_us: 0,
                    response: None,
                    latency_us: now_ns.saturating_sub(intended_ns) as f64 / 1e3,
                    late_us: now_ns.saturating_sub(intended_ns) as f64 / 1e3,
                    failed: true,
                });
            }
            break;
        }
        let wait_ns = arrivals
            .get(next)
            .map_or(u64::MAX, |&(at, _)| at.saturating_sub(now_ns));
        if wait_ns <= SPIN_NS || (outstanding && wait_ns <= 1_200_000) {
            // Non-blocking tick: the Host work itself, timed per call.
            let start = Instant::now();
            let frames = cluster.host().tick(0)?;
            if frames > 0 {
                phase.tick_us.push(start.elapsed().as_nanos() as f64 / 1e3);
                if let (Some(s), Some(base)) = (spans.as_deref_mut(), span_base) {
                    let end = origin.elapsed().as_nanos() as u64;
                    let took = start.elapsed().as_nanos() as u64;
                    s.push(Span {
                        name: "svc.loader_tick",
                        start_ns: base + end - took,
                        end_ns: base + end,
                        parent: None,
                    });
                }
            }
            std::thread::yield_now();
        } else if wait_ns > 1_200_000 {
            // Blocks in poll; a reply to an op in flight wakes it at once.
            // The cap keeps the drain deadline checked while no arrival is left.
            cluster
                .host()
                .tick(((wait_ns - 200_000) / 1_000_000).min(100))?;
        } else {
            std::thread::sleep(Duration::from_nanos(wait_ns - SPIN_NS));
        }
    }
    phase.elapsed_s = last_done_ns.max(1) as f64 / 1e9;
    phase.replica_cpu_us = cluster.replica_cpu_us()? - cpu0;
    for (i, s0) in stats0.iter().enumerate() {
        let s = cluster.host().core(i).stats;
        phase.retries += s.retries - s0.retries;
        phase.aborts += s.aborted - s0.aborted;
    }
    Ok(phase)
}

/// Checks the merged op log for atomicity, in windows cut where no op
/// spans the cut. The register value chains across cuts through a
/// synthetic write of the previous window's final value; every value a
/// window could end on is tried. Failed ops are left out: any failure
/// already fails the run.
fn check_log(log: &[Done]) -> Result<usize, String> {
    let mut ops: Vec<&Done> = log.iter().filter(|d| !d.failed).collect();
    ops.sort_by_key(|d| (d.invoked_us, d.pid));
    let mut chain: Vec<Option<u64>> = vec![None];
    let mut windows = 0;
    let mut i = 0;
    while i < ops.len() {
        let mut end = i;
        let mut max_resp = 0;
        let mut cut = false;
        while end < ops.len() {
            if end - i >= WINDOW_TARGET && max_resp < ops[end].invoked_us {
                cut = true;
                break;
            }
            if end - i >= WINDOW_MAX {
                break;
            }
            max_resp = max_resp.max(ops[end].responded_us);
            end += 1;
        }
        if !cut && end < ops.len() {
            return Err(format!(
                "no quiescent cut within {WINDOW_MAX} ops at op {i}"
            ));
        }
        let window = &ops[i..end];
        let mut next_chain = None;
        for &init in &chain {
            let t0 = window[0].invoked_us;
            let mut h = RegisterHistory::new();
            if let Some(v) = init {
                h.push(OpRecord {
                    process: ProcessId::from_raw(u64::MAX),
                    op: RegOp::Write(v),
                    invoked: Time::from_ticks(t0.saturating_sub(2)),
                    responded: Some(Time::from_ticks(t0.saturating_sub(1))),
                    response: Some(RegResp::Ack),
                });
            }
            for d in window {
                h.push(OpRecord {
                    process: ProcessId::from_raw(d.pid),
                    op: d.op,
                    invoked: Time::from_ticks(d.invoked_us),
                    responded: Some(Time::from_ticks(d.responded_us)),
                    response: d.response,
                });
            }
            match check_atomic(&h) {
                Ok(Linearizability::Linearizable { witness }) => {
                    let last = witness.iter().rev().find_map(|&w| match h.records()[w].op {
                        RegOp::Write(v) => Some(v),
                        RegOp::Read => None,
                    });
                    let mut c = vec![last.or(init)];
                    for v in maximal_writes(window) {
                        if !c.contains(&Some(v)) {
                            c.push(Some(v));
                        }
                    }
                    next_chain = Some(c);
                    break;
                }
                Ok(Linearizability::NotLinearizable) => {}
                Err(e) => return Err(format!("window {windows}: {e}")),
            }
        }
        chain = next_chain.ok_or_else(|| format!("window {windows} is not linearizable"))?;
        windows += 1;
        i = end;
    }
    Ok(windows)
}

/// Writes not followed by another write that starts after they end:
/// the values the register may hold at the window's end.
fn maximal_writes(window: &[&Done]) -> Vec<u64> {
    let writes: Vec<&&Done> = window
        .iter()
        .filter(|d| matches!(d.op, RegOp::Write(_)))
        .collect();
    writes
        .iter()
        .filter(|w| !writes.iter().any(|o| o.invoked_us > w.responded_us))
        .filter_map(|d| match d.op {
            RegOp::Write(v) => Some(v),
            RegOp::Read => None,
        })
        .collect()
}

/// The `store_open` workload. With `trace`, half the time runs untraced
/// and half with the loader's ticks and ops recorded as spans.
///
/// # Errors
///
/// Fails when the cluster cannot be started or a socket call fails.
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: &Path,
    out_dir: &Path,
    spans: &mut Spans,
) -> io::Result<Report> {
    let mut load = Load {
        rng: Rng::seeded(seed),
        next_value: 0,
    };
    let mut log: Vec<Done> = Vec::new();
    let mut setup_s = Vec::new();
    let mut join_ms = Vec::new();
    let mut cluster = None;
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let dir = out_dir.join(format!("store-{}-{rep}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Drop the previous cluster first: one cluster runs at a time.
        drop(cluster.take());
        let mut c = Cluster::start(bin_dir, &dir)?;
        log.clear();
        load = Load {
            rng: Rng::seeded(seed),
            next_value: 0,
        };
        warm_up(&mut c, &mut load, &mut log)?;
        setup_s.push(secs(start));
        join_ms.push(c.join_ms);
        cluster = Some(c);
    }
    let mut cluster = cluster.expect("at least one set-up");

    let untraced = open_loop(
        &mut cluster,
        &mut load,
        if trace { seconds / 2.0 } else { seconds },
        None,
    )?;
    let traced = if trace {
        Some(open_loop(
            &mut cluster,
            &mut load,
            seconds / 2.0,
            Some(spans),
        )?)
    } else {
        None
    };
    let own_rss = peak_rss_mb(Proc::This)?;
    let replica_rss = cluster.replica_rss_mb()?;
    drop(cluster);

    let mut r = Report {
        correct: true,
        ..Report::default()
    };
    for p in std::iter::once(&untraced).chain(&traced) {
        r.attempted += p.done.len() as u64;
        let failed = p.done.iter().filter(|d| d.failed).count() as u64;
        r.failed += failed;
        if failed > 0 {
            r.fail(format!("{failed} ops aborted or unfinished"));
        }
        log.extend(p.done.iter().filter(|d| !d.failed).cloned());
    }
    let wgl_start = Instant::now();
    if let Err(e) = check_log(&log) {
        r.fail(format!("op log is not atomic: {e}"));
    }
    let wgl_ms = secs(wgl_start) * 1e3;

    let u = &untraced;
    let all = u.latencies(None);
    let reads = u.latencies(Some(false));
    let writes = u.latencies(Some(true));
    let n = |v: &[f64]| v.len() as u64;
    if !trace {
        let goodput = u.completed() as f64 / u.elapsed_s;
        r.metric("setup_s", median(&setup_s), "s", setup_s.len() as u64);
        r.metric("ops_per_s", goodput, "1/s", u.completed() as u64);
        r.metric("rss_peak_mb", own_rss + replica_rss, "MB", 1 + REPLICAS);
        r.extra("store_read_p50_us", quantile(&reads, 0.5), "us", n(&reads));
        r.extra("store_read_p99_us", quantile(&reads, 0.99), "us", n(&reads));
        r.extra(
            "store_write_p50_us",
            quantile(&writes, 0.5),
            "us",
            n(&writes),
        );
        r.extra(
            "store_write_p99_us",
            quantile(&writes, 0.99),
            "us",
            n(&writes),
        );
        r.extra(
            "store_goodput_per_s",
            goodput,
            "ops/s",
            u.completed() as u64,
        );
        r.extra("store_offered_per_s", RATE_PER_S, "ops/s", 1);
        return Ok(r);
    }

    let t = traced.as_ref().expect("traced phase ran");
    let late: Vec<f64> = t.done.iter().map(|d| d.late_us).collect();
    let traced_all = t.latencies(None);
    r.metric("svc.join_ms", median(&join_ms), "ms", join_ms.len() as u64);
    r.metric(
        "svc.loader_tick_us.p50",
        quantile(&t.tick_us, 0.5),
        "us",
        n(&t.tick_us),
    );
    r.metric(
        "svc.loader_tick_us.p99",
        quantile(&t.tick_us, 0.99),
        "us",
        n(&t.tick_us),
    );
    r.metric(
        "svc.replica_cpu_us_per_op",
        t.replica_cpu_us / t.completed().max(1) as f64,
        "us",
        t.completed() as u64,
    );
    r.metric("svc.replica_rss_mb", replica_rss, "MB", REPLICAS);
    r.metric("store.op_p50_us", quantile(&all, 0.5), "us", n(&all));
    r.metric("store.op_p99_us", quantile(&all, 0.99), "us", n(&all));
    r.metric("store.read_p50_us", quantile(&reads, 0.5), "us", n(&reads));
    r.metric("store.read_p99_us", quantile(&reads, 0.99), "us", n(&reads));
    r.metric(
        "store.write_p50_us",
        quantile(&writes, 0.5),
        "us",
        n(&writes),
    );
    r.metric(
        "store.write_p99_us",
        quantile(&writes, 0.99),
        "us",
        n(&writes),
    );
    r.metric("store.retries", (u.retries + t.retries) as f64, "count", 2);
    r.metric("store.aborts", (u.aborts + t.aborts) as f64, "count", 2);
    r.metric(
        "store.backlog.max",
        u.backlog_max.max(t.backlog_max) as f64,
        "count",
        2,
    );
    r.metric(
        "store.gen_late_us.p99",
        quantile(&late, 0.99),
        "us",
        n(&late),
    );
    r.metric("core.wgl_ms", wgl_ms, "ms", log.len() as u64);
    r.metric(
        "trace.overhead_ratio",
        quantile(&traced_all, 0.5) / quantile(&all, 0.5),
        "ratio",
        n(&traced_all),
    );
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(pid: u64, op: RegOp, at: u64, response: RegResp) -> Done {
        Done {
            pid,
            op,
            invoked_us: at,
            responded_us: at + 5,
            response: Some(response),
            latency_us: 5.0,
            late_us: 0.0,
            failed: false,
        }
    }

    /// `n` sequential write/read pairs; `stale` makes the last read return
    /// the previous write's value.
    fn log(n: u64, stale: bool) -> Vec<Done> {
        let mut ops = Vec::new();
        for k in 1..=n {
            let t = k * 100;
            ops.push(op(1, RegOp::Write(k), t, RegResp::Ack));
            let seen = if stale && k == n { k - 1 } else { k };
            ops.push(op(2, RegOp::Read, t + 50, RegResp::Value(Some(seen))));
        }
        ops
    }

    #[test]
    fn atomic_logs_pass_across_windows() {
        assert_eq!(check_log(&log(3, false)), Ok(1));
        let windows = check_log(&log(100, false)).expect("atomic");
        assert!(windows > 1, "{windows} windows");
    }

    #[test]
    fn stale_read_is_convicted() {
        assert!(check_log(&log(3, true)).is_err());
        assert!(check_log(&log(100, true)).is_err());
    }
}
