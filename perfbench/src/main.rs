//! `perfbench` — runs one workload of the dds benchmark and prints its
//! metrics, ending with one JSON result line.
//!
//! ```text
//! perfbench --workload <sim_churn|check_explore|store_open> --seed <n>
//!           --seconds <s> --trace <0|1> --bin-dir <dir> --out-dir <dir>
//! ```
//!
//! `--bin-dir` holds the `svc_seed`/`svc_replica` binaries; `--out-dir`
//! receives the span file of a traced run and the store's socket
//! directories. Normally started through `run.py`, which builds both.
//! Exits 0 when every correctness gate held, 1 when one failed (after
//! printing the result line), 2 on bad arguments or a failed set-up.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::report::{Report, Spans};
use perfbench::{check, sim, store};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut bin_dir = None;
    let mut out_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let need = |name: &str| format!("missing {name}");
    Ok(Args {
        workload: workload.ok_or_else(|| need("--workload"))?,
        seed: seed.ok_or_else(|| need("--seed"))?,
        seconds: seconds.ok_or_else(|| need("--seconds"))?,
        trace: trace.ok_or_else(|| need("--trace"))?,
        bin_dir: bin_dir.ok_or_else(|| need("--bin-dir"))?,
        out_dir: out_dir.ok_or_else(|| need("--out-dir"))?,
    })
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&a.out_dir) {
        eprintln!("perfbench: {}: {e}", a.out_dir.display());
        return ExitCode::from(2);
    }
    let mut spans = Spans::default();
    let mut report: Report = match a.workload.as_str() {
        "sim_churn" => sim::run(a.seed, a.seconds, a.trace, &mut spans),
        "check_explore" => check::run(a.seed, a.seconds, a.trace, &mut spans),
        "store_open" => {
            match store::run(
                a.seed, a.seconds, a.trace, &a.bin_dir, &a.out_dir, &mut spans,
            ) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("perfbench: store_open set-up failed: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if a.trace {
        report.fill_per_layer();
        let path = a
            .out_dir
            .join(format!("spans-{}-{}.jsonl", a.workload, a.seed));
        match spans.write_jsonl(&path) {
            Ok(()) => eprintln!("perfbench: {} spans in {}", spans.len(), path.display()),
            Err(e) => report.fail(format!("cannot write {}: {e}", path.display())),
        }
    }
    report.check_finite();
    eprintln!(
        "perfbench: workload={} seed={} sweep_threads={} explorer_threads={} trace={}",
        a.workload,
        a.seed,
        sim::THREADS,
        check::THREADS,
        a.trace
    );
    print!("{}", report.human());
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
