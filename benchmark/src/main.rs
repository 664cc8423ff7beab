//! `nssd-benchmark`: runs the benchmark's workloads, one cell process at a
//! time, and prints every metric by name with its unit.
//!
//! ```text
//! # Every workload: 5 untraced repetitions interleaved rep-major, then one
//! # traced repetition; writes target/benchmark/results.json and traces.
//! cargo run --release --manifest-path benchmark/Cargo.toml
//!
//! # One workload for a fixed time; the last stdout line is the result
//! # object (end-to-end metrics, or per-layer ones with --trace 1).
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload gc-aged --seed 7 --seconds 12 --trace 0
//! ```
//!
//! A failed output check prints its reason and makes the exit code 1.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use nssd_benchmark::summary::{Quartiles, Rep};
use nssd_benchmark::{replay, run_cell, CellResult, Summary, Workload, DEFAULT_SEED};

/// `System` plus an allocation counter, read around the event loop.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counter is a statistic that
// publishes no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Peak resident set size of this process in MiB (`VmHWM`), where procfs
/// exists.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Untraced repetitions of the full suite.
const SUITE_REPS: usize = 10;
/// Fewest untraced repetitions a timed run makes, whatever `--seconds`.
const MIN_REPS: usize = 3;
/// Where results and traces go, relative to the working directory.
const OUT_DIR: &str = "target/benchmark";

enum Mode {
    Suite,
    Timed {
        workload: Workload,
        seconds: f64,
        trace: bool,
    },
    Cell {
        workload: Workload,
        cell: usize,
        traced: bool,
    },
}

fn parse_args(args: &[String]) -> Result<(Mode, u64), String> {
    let mut seed = DEFAULT_SEED;
    let (mut workload, mut seconds, mut trace, mut cell) = (None, None, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => seed = parse_seed(value()?)?,
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {v}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            "--cell" => {
                let v = value()?;
                cell = Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("bad --cell {v:?}"))?,
                );
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let mode = match (workload, cell, seconds) {
        (None, None, None) => Mode::Suite,
        (Some(w), Some(c), None) if c < w.cells().len() => Mode::Cell {
            workload: w,
            cell: c,
            traced: trace,
        },
        (Some(w), None, Some(seconds)) => Mode::Timed {
            workload: w,
            seconds,
            trace,
        },
        _ => return Err("expected --workload W --seconds S [--trace 0|1], or no arguments".into()),
    };
    Ok((mode, seed))
}

fn parse_seed(v: &str) -> Result<u64, String> {
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    }
    .map_err(|_| format!("bad --seed {v:?}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, seed) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("nssd-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::Cell {
            workload,
            cell,
            traced,
        } => cell_process(workload, cell, seed, traced),
        Mode::Timed {
            workload,
            seconds,
            trace,
        } => timed(workload, seed, seconds, trace),
        Mode::Suite => suite(seed),
    }
}

/// Child process body: run one cell, print its result lines, and write its
/// trace file when traced.
fn cell_process(workload: Workload, cell: usize, seed: u64, traced: bool) -> ExitCode {
    let c = workload.cells()[cell];
    let (mut result, spans) = run_cell(workload, c, seed, 1, traced, &alloc_count);
    match peak_rss_mb() {
        Some(mb) => {
            result.metrics.insert("peak_rss_mb".into(), mb);
        }
        None => result
            .failures
            .push("peak RSS unavailable: /proc/self/status has no VmHWM".into()),
    }
    if traced {
        let dir = Path::new(OUT_DIR).join("trace");
        let path = dir.join(format!("{}.{}.json", workload.name(), c.name));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.chrome_json()))
        {
            result
                .failures
                .push(format!("cannot write {}: {e}", path.display()));
        }
    }
    print!("{}", result.to_lines());
    ExitCode::SUCCESS
}

/// Runs every cell of `workload` once, each in its own child process, one
/// at a time.
fn run_rep(workload: Workload, seed: u64, traced: bool) -> Rep {
    (0..workload.cells().len())
        .map(|i| {
            let name = workload.cells()[i].name;
            let fail = |why: String| CellResult {
                cell: name.to_string(),
                metrics: [("attempted".to_string(), workload.requests_per_cell() as f64)].into(),
                failures: vec![why],
                ..CellResult::default()
            };
            let exe = match std::env::current_exe() {
                Ok(exe) => exe,
                Err(e) => return fail(format!("cannot locate the benchmark binary: {e}")),
            };
            let out = Command::new(exe)
                .args(["--workload", workload.name(), "--cell", &i.to_string()])
                .args(["--seed", &seed.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output();
            match out {
                Ok(o) if o.status.success() => {
                    CellResult::from_lines(&String::from_utf8_lossy(&o.stdout)).unwrap_or_else(fail)
                }
                Ok(o) => fail(format!("cell process exited with {}", o.status)),
                Err(e) => fail(format!("cannot start the cell process: {e}")),
            }
        })
        .collect()
}

/// Median of three calibration readings.
fn calibrate() -> f64 {
    Quartiles::of(&[0.0; 3].map(|_| replay::calibrate_ms())).median
}

/// One workload for about `seconds`: untraced repetitions (at least
/// [`MIN_REPS`]), then one traced repetition when asked.
fn timed(workload: Workload, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let calib_ms = if trace { calibrate() } else { 0.0 };
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        let t = Instant::now();
        reps.push(run_rep(workload, seed, false));
        if reps.len() >= MIN_REPS && start.elapsed() + t.elapsed() > budget {
            break;
        }
    }
    let traced = trace.then(|| run_rep(workload, seed, true));
    let summary = Summary::new(workload, &reps, traced.as_ref(), calib_ms);
    print!("{}", summary.text());
    println!("{}", summary.result_json(trace));
    exit_code(summary.correct())
}

/// Every workload: [`SUITE_REPS`] untraced repetitions interleaved
/// rep-major, so host drift hits every workload alike, then one traced
/// repetition each; writes `results.json`.
fn suite(seed: u64) -> ExitCode {
    let mut calib = Vec::new();
    let mut reps: Vec<Vec<Rep>> = Workload::ALL.iter().map(|_| Vec::new()).collect();
    for rep in 0..SUITE_REPS {
        calib.push(replay::calibrate_ms());
        for (w, workload) in Workload::ALL.into_iter().enumerate() {
            eprintln!("rep {}/{SUITE_REPS}: {}", rep + 1, workload.name());
            reps[w].push(run_rep(workload, seed, false));
        }
    }
    let calib_ms = Quartiles::of(&calib).median;
    let summaries: Vec<Summary> = Workload::ALL
        .into_iter()
        .zip(&reps)
        .map(|(workload, untraced)| {
            eprintln!("traced: {}", workload.name());
            let traced = run_rep(workload, seed, true);
            Summary::new(workload, untraced, Some(&traced), calib_ms)
        })
        .collect();
    for s in &summaries {
        print!("{}", s.text());
    }
    let path = Path::new(OUT_DIR).join("results.json");
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, results_json(seed, &calib, &summaries)));
    match written {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    exit_code(summaries.iter().all(Summary::correct))
}

fn exit_code(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The full result set `compare.py` reads.
fn results_json(seed: u64, calib: &[f64], summaries: &[Summary]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let calib: Vec<String> = calib.iter().map(|v| v.to_string()).collect();
    let workloads: Vec<String> = summaries
        .iter()
        .map(|s| format!("    \"{}\": {}", s.workload.name(), s.results_json()))
        .collect();
    format!(
        "{{\n  \"schema\": \"nssd-benchmark/1\",\n  \"seed\": {seed},\n  \
         \"host\": {{\"nproc\": {nproc}, \"cpu_model\": {}, \"calib_ms\": [{}]}},\n  \
         \"workloads\": {{\n{}\n  }}\n}}\n",
        nssd_benchmark::spans::json_str(&cpu),
        calib.join(", "),
        workloads.join(",\n")
    )
}
