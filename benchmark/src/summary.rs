//! Aggregation of cell results into a workload's end-to-end and per-layer
//! metrics, and the text and JSON renderings of them.

use std::fmt::Write as _;

use crate::cell::{ratio, BUCKETS};
use crate::spans::{json_num, json_str};
use crate::{Metrics, Workload, END_TO_END, PER_LAYER};

/// What one cell process reported.
#[derive(Debug, Clone, Default)]
pub struct CellResult {
    /// Cell name.
    pub cell: String,
    /// Named measurements.
    pub metrics: Metrics,
    /// Digest of the canonical report.
    pub digest: u64,
    /// Failed output checks.
    pub failures: Vec<String>,
}

impl CellResult {
    /// A metric, or 0 when the cell did not record it.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// The line protocol a cell process prints on stdout.
    pub fn to_lines(&self) -> String {
        let mut out = format!("cell {}\ndigest {:016x}\n", self.cell, self.digest);
        for (k, v) in &self.metrics {
            let _ = writeln!(out, "metric {k} {v}");
        }
        for f in &self.failures {
            let _ = writeln!(out, "failure {}", f.replace('\n', " "));
        }
        out
    }

    /// Parses [`CellResult::to_lines`] output.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line.
    pub fn from_lines(text: &str) -> Result<CellResult, String> {
        let mut r = CellResult::default();
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let bad = || format!("malformed cell output line {line:?}");
            match key {
                "cell" => r.cell = rest.to_string(),
                "digest" => r.digest = u64::from_str_radix(rest, 16).map_err(|_| bad())?,
                "metric" => {
                    let (name, value) = rest.split_once(' ').ok_or_else(bad)?;
                    r.metrics
                        .insert(name.to_string(), value.parse().map_err(|_| bad())?);
                }
                "failure" => r.failures.push(rest.to_string()),
                _ => return Err(bad()),
            }
        }
        Ok(r)
    }
}

/// The cells of one repetition of a workload.
pub type Rep = Vec<CellResult>;

/// Median, quartiles (Python's `statistics.quantiles(n=4)`, exclusive
/// method) and range of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Sample count.
    pub n: usize,
}

impl Quartiles {
    /// Summarizes `values` (not empty).
    pub fn of(values: &[f64]) -> Quartiles {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let cut = |i: usize| {
            if n < 2 {
                return v[0];
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        Quartiles {
            median,
            q1: cut(1),
            q3: cut(3),
            min: v[0],
            max: v[n - 1],
            n,
        }
    }
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        0.0
    } else {
        Quartiles::of(&v).median
    }
}

/// End-to-end metric values of one untraced repetition.
fn rep_end_to_end(rep: &Rep) -> Metrics {
    let sum = |name: &str| rep.iter().map(|c| c.get(name)).sum::<f64>();
    Metrics::from([
        ("wall_s".into(), sum("wall_s")),
        ("setup_s".into(), sum("setup_s")),
        (
            "requests_per_host_s".into(),
            ratio(sum("completed"), sum("loop_s")),
        ),
        (
            "peak_rss_mb".into(),
            rep.iter().map(|c| c.get("peak_rss_mb")).fold(0.0, f64::max),
        ),
    ])
}

/// A workload's measured result: every repetition, its aggregates, and
/// whether every output check held.
#[derive(Debug)]
pub struct Summary {
    /// The workload summarized.
    pub workload: Workload,
    /// End-to-end values per untraced repetition.
    pub reps: Vec<Metrics>,
    /// Quartiles of each end-to-end metric over the repetitions.
    pub end_to_end: Vec<(&'static str, &'static str, Quartiles)>,
    /// Per-layer metrics (empty without a traced repetition), with units.
    pub per_layer: Vec<(String, &'static str, f64)>,
    /// Digest per cell (from the first untraced repetition).
    pub digests: Vec<(String, u64)>,
    /// Every failed check, prefixed by its cell.
    pub failures: Vec<String>,
    /// Requests attempted over every repetition.
    pub attempted: u64,
    /// Requests of failed cells over every repetition.
    pub failed: u64,
}

impl Summary {
    /// Aggregates `untraced` repetitions (at least one) and an optional
    /// traced one; `calib_ms` is the host-calibration reading of the run.
    pub fn new(
        workload: Workload,
        untraced: &[Rep],
        traced: Option<&Rep>,
        calib_ms: f64,
    ) -> Summary {
        let mut s = Summary {
            workload,
            reps: untraced.iter().map(rep_end_to_end).collect(),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            digests: untraced[0]
                .iter()
                .map(|c| (c.cell.clone(), c.digest))
                .collect(),
            failures: Vec::new(),
            attempted: 0,
            failed: 0,
        };
        for (name, unit) in END_TO_END {
            let values: Vec<f64> = s.reps.iter().map(|r| r[name]).collect();
            s.end_to_end.push((name, unit, Quartiles::of(&values)));
        }
        for rep in untraced.iter().chain(traced) {
            for (i, c) in rep.iter().enumerate() {
                let mut failures = c.failures.clone();
                if c.digest != untraced[0][i].digest {
                    failures.push(format!(
                        "digest {:016x} differs from the first untraced run's {:016x}",
                        c.digest, untraced[0][i].digest
                    ));
                }
                let attempted = c.get("attempted") as u64;
                s.attempted += attempted;
                if !failures.is_empty() {
                    s.failed += attempted;
                }
                s.failures
                    .extend(failures.into_iter().map(|f| format!("{}: {f}", c.cell)));
            }
        }
        if let Some(t) = traced {
            let layers = per_layer(untraced, t, calib_ms);
            for (name, unit) in PER_LAYER {
                s.per_layer.push((name.to_string(), unit, layers[name]));
            }
            for (name, v) in &layers {
                if !PER_LAYER.iter().any(|(n, _)| n == name) {
                    s.per_layer.push((name.clone(), unit_of(name), *v));
                }
            }
        }
        s
    }

    /// Whether every check of every repetition held.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// One line per metric: workload, name, value, unit (and spread).
    pub fn text(&self) -> String {
        let w = self.workload.name();
        let mut out = String::new();
        for (name, unit, q) in &self.end_to_end {
            let _ = writeln!(
                out,
                "{w} {name} {} {unit} (q1 {} q3 {} min {} max {} n={})",
                q.median, q.q1, q.q3, q.min, q.max, q.n
            );
        }
        for (name, unit, v) in &self.per_layer {
            let _ = writeln!(out, "{w} {name} {v} {unit}");
        }
        for (cell, d) in &self.digests {
            let _ = writeln!(out, "{w} digest.{cell} {d:016x}");
        }
        for f in &self.failures {
            let _ = writeln!(out, "{w} FAILED {f}");
        }
        out
    }

    /// The one-line result object: end-to-end metrics (medians), or with
    /// `per_layer` the declared per-layer metrics.
    pub fn result_json(&self, per_layer: bool) -> String {
        let metrics: Vec<(&str, &str, f64)> = if per_layer {
            PER_LAYER
                .iter()
                .filter_map(|&(name, unit)| {
                    let (_, _, v) = self.per_layer.iter().find(|(n, _, _)| n == name)?;
                    Some((name, unit, *v))
                })
                .collect()
        } else {
            self.end_to_end
                .iter()
                .map(|(n, u, q)| (*n, *u, q.median))
                .collect()
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|&(n, u, v)| metric_json(n, u, v))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }

    /// This workload's entry in `results.json`.
    pub fn results_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(
            out,
            "      \"requests_per_cell\": {},",
            self.workload.requests_per_cell()
        );
        let digests: Vec<String> = self
            .digests
            .iter()
            .map(|(c, d)| format!("{}: \"{d:016x}\"", json_str(c)))
            .collect();
        let _ = writeln!(out, "      \"digests\": {{{}}},", digests.join(", "));
        let reps: Vec<String> = self
            .reps
            .iter()
            .map(|r| {
                let fields: Vec<String> = r
                    .iter()
                    .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
                    .collect();
                format!("{{{}}}", fields.join(", "))
            })
            .collect();
        let _ = writeln!(
            out,
            "      \"reps\": [\n        {}\n      ],",
            reps.join(",\n        ")
        );
        let e2e: Vec<String> = self
            .end_to_end
            .iter()
            .map(|(n, u, q)| {
                format!(
                    "{}: {{\"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"min\": {}, \
                     \"max\": {}, \"n\": {}}}",
                    json_str(n),
                    json_str(u),
                    json_num(q.median),
                    json_num(q.q1),
                    json_num(q.q3),
                    json_num(q.min),
                    json_num(q.max),
                    q.n
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "      \"end_to_end\": {{\n        {}\n      }},",
            e2e.join(",\n        ")
        );
        let layers: Vec<String> = self
            .per_layer
            .iter()
            .map(|(n, u, v)| metric_json(n, u, *v))
            .collect();
        let _ = writeln!(
            out,
            "      \"per_layer\": {{\n        {}\n      }},",
            layers.join(",\n        ")
        );
        let failures: Vec<String> = self.failures.iter().map(|f| json_str(f)).collect();
        let _ = writeln!(out, "      \"failures\": [{}]", failures.join(", "));
        out.push_str("    }");
        out
    }
}

/// `"name": {"value": v, "unit": "u"}`, one metric of a result object.
fn metric_json(name: &str, unit: &str, value: f64) -> String {
    format!(
        "{}: {{\"value\": {}, \"unit\": {}}}",
        json_str(name),
        json_num(value),
        json_str(unit)
    )
}

/// Unit of an undeclared (printed-only) per-layer metric, from its suffix.
fn unit_of(name: &str) -> &'static str {
    [
        ("_s", "s"),
        ("_ms_sim", "ms"),
        ("_us", "us"),
        ("_mb", "MiB"),
    ]
    .iter()
    .find(|(suffix, _)| name.ends_with(suffix))
    .map_or("count", |&(_, unit)| unit)
}

/// Per-layer metrics of a workload: the traced repetition's counts, replays
/// and step buckets, scaled against the untraced repetitions' loop times.
fn per_layer(untraced: &[Rep], traced: &Rep, calib_ms: f64) -> Metrics {
    let cells = traced.len() as f64;
    let sum = |name: &str| traced.iter().map(|c| c.get(name)).sum::<f64>();
    let mean = |name: &str| sum(name) / cells;
    // Median over the untraced repetitions of cell `i`'s metric.
    let untraced_median = |i: usize, name: &str| median(untraced.iter().map(|r| r[i].get(name)));
    let untraced_sum = |name: &str| {
        (0..traced.len())
            .map(|i| untraced_median(i, name))
            .sum::<f64>()
    };
    let loop_s = untraced_sum("loop_s");
    let traced_loop_s = sum("loop_s");
    let completed = sum("completed");

    let mut m = Metrics::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("sim.queue.ns_per_op", mean("sim.queue.ns_per_op"));
    let queue_ns: f64 = traced
        .iter()
        .map(|c| c.get("sim.queue.ns_per_op") * c.get("events"))
        .sum();
    put("sim.queue.est_share", ratio(queue_ns * 1e-9, loop_s));
    put(
        "sim.resource.ns_per_reserve",
        mean("sim.resource.ns_per_reserve"),
    );
    put("engine.events", sum("events"));
    put("engine.events_per_request", ratio(sum("events"), completed));
    put("engine.step_ns", ratio(traced_loop_s * 1e9, sum("steps")));
    put("engine.loop_s", loop_s);
    put("engine.traced_loop_s", traced_loop_s);
    put("engine.trace_overhead", ratio(traced_loop_s, loop_s));
    put(
        "engine.allocs_per_request",
        ratio(untraced_sum("allocs"), completed),
    );
    for (i, c) in traced.iter().enumerate() {
        let name = &c.cell;
        put(&format!("cell.{name}.run_s"), untraced_median(i, "wall_s"));
        put(
            &format!("cell.{name}.peak_rss_mb"),
            untraced_median(i, "peak_rss_mb"),
        );
        put(
            &format!("cell.{name}.allocs_per_request"),
            ratio(untraced_median(i, "allocs"), c.get("completed")),
        );
    }
    for k in ["channel.read_busy", "channel.write_busy", "channel.gc_busy"] {
        put(k, mean(k));
    }
    put("channel.imbalance_cv", mean("channel.imbalance_cv"));
    put(
        "energy.pj_per_host_byte",
        ratio(sum("energy.mj") * 1e9, sum("energy.host_bytes")),
    );

    let weighted_ns = |ns: &str, ops: &str| {
        let total: f64 = traced.iter().map(|c| c.get(ns) * c.get(ops)).sum();
        ratio(total, sum(ops))
    };
    put(
        "ftl.replay.write_ns",
        weighted_ns("ftl.replay.write_ns", "ftl.replay.write_pages"),
    );
    put(
        "ftl.replay.lookup_ns",
        weighted_ns("ftl.replay.lookup_ns", "ftl.replay.read_pages"),
    );
    put("ftl.replay.est_share", ratio(sum("ftl.replay.s"), loop_s));
    put("ftl.victim.select_us", mean("ftl.victim.select_us"));
    for k in [
        "ftl.host_writes",
        "ftl.gc_relocations",
        "ftl.erases",
        "gc.events",
        "gc.pages_copied",
        "faults.pages_degraded",
        "faults.reconstructed_reads",
        "faults.rebuild_pages",
        "oracle.checks",
    ] {
        put(k, sum(k));
    }
    put(
        "ftl.write_amp",
        ratio(
            sum("ftl.host_writes") + sum("ftl.gc_relocations"),
            sum("ftl.host_writes"),
        )
        .max(1.0),
    );
    let span_ms = sum("span_ms_sim");
    put("gc.busy_share_sim", ratio(sum("gc.busy_ms_sim"), span_ms));
    for name in BUCKETS {
        let host_s = sum(&format!("step.{name}.host_s"));
        put(
            &format!("engine.step.{name}.count"),
            sum(&format!("step.{name}.count")),
        );
        put(&format!("engine.step.{name}.host_s"), host_s);
        put(
            &format!("engine.step.{name}.share"),
            ratio(host_s, traced_loop_s),
        );
    }

    for tenant in ["latency", "writeburst"] {
        let k = format!("host.{tenant}.slo_violations");
        put(&k, sum(&k));
        if traced.iter().any(|c| c.metrics.contains_key(&k)) {
            put(
                &format!("host.{tenant}.p99_us"),
                traced
                    .iter()
                    .map(|c| c.get(&format!("host.{tenant}.p99_us")))
                    .fold(0.0, f64::max),
            );
            let k = format!("host.{tenant}.queue_delay_us");
            put(&k, mean(&k));
        }
    }

    put("oracle.sync_ms", mean("oracle.sync_ms"));
    put("oracle.sweep_us", mean("oracle.sweep_us"));
    put(
        "faults.rebuild_share_sim",
        ratio(sum("faults.rebuild_ms_sim"), span_ms),
    );
    let redundant: Vec<&CellResult> = traced
        .iter()
        .filter(|c| c.metrics.contains_key("faults.degraded_p99_us"))
        .collect();
    put(
        "faults.degraded_p99_ratio",
        ratio(
            redundant
                .iter()
                .map(|c| ratio(c.get("faults.degraded_p99_us"), c.get("read.p99_us")))
                .sum(),
            redundant.len() as f64,
        ),
    );
    if !redundant.is_empty() {
        put("faults.rebuild_ms_sim", sum("faults.rebuild_ms_sim"));
    }

    put("ckpt.save_s", mean("ckpt.save_s"));
    put("ckpt.resume_s", mean("ckpt.resume_s"));
    put("ckpt.bytes", mean("ckpt.bytes"));
    if untraced_sum("ckpt_s") > 0.0 {
        put("ckpt.midrun_s", untraced_sum("ckpt_s"));
    }

    put("workloads.generate_s", untraced_sum("generate_s"));
    put("runner.prepare_s", untraced_sum("prepare_s"));
    put("runner.sim_new_s", mean("runner.sim_new_s"));
    put("report.into_report_ms", untraced_sum("into_report_s") * 1e3);
    put(
        "report.canonical_json_ms",
        untraced_sum("canonical_json_s") * 1e3,
    );
    put("machine.calib_ms", calib_ms);
    m
}
