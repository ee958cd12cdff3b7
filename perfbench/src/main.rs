//! The repository's benchmark: one command per workload that runs the
//! filtering service end to end, checks every pass against the
//! benchmark's own DC1 scan, and prints the end-to-end metrics (or, with
//! `--trace 1`, the per-layer metrics) as one JSON line.
//!
//! ```text
//! perfbench --workload paper|crowd|wire --seed N --seconds S --trace 0|1
//!           [--scale full|tiny] [--parallelism P]
//! ```
//!
//! A run generates its input from the seed, then repeats whole passes
//! (set-up, stream, checks) until `--seconds` have passed. See README.md.

mod common;
mod crowd;
mod oracle;
mod paper;
mod wire;

use common::{drift_kernel_ms, peak_rss_mb, quantile, sorted, Checks, Metric, Tracer};
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

/// Input size of a run: the benchmark's own, or the self-check's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub setup_s: f64,
    /// Wall clock of the stream phase.
    pub stream_s: f64,
    /// Per-chunk step time: from the chunk's hand-over to the next's.
    pub steps_s: Vec<f64>,
    /// Input tuples admitted.
    pub tuples: u64,
    /// Per-chunk ingest wall time.
    pub ingest_us: Vec<f64>,
    /// Per-emission delivery latency.
    pub delivery_ms: Vec<f64>,
    /// `EngineMetrics::latencies_us`: stream-time filtering delay.
    pub delays_us: Vec<u64>,
    /// Bytes on links.
    pub bytes: u64,
    /// Hash of everything the pass delivered and counted; every pass
    /// must match the first.
    pub fingerprint: u64,
    /// Per-layer metrics (traced passes only).
    pub layers: Vec<Metric>,
    /// Self time per layer plus the unattributed remainder, in ms
    /// (traced passes only).
    pub breakdown: Vec<(&'static str, f64)>,
}

enum Workload {
    Paper(paper::Paper),
    Crowd(crowd::Crowd),
    Wire(wire::Wire),
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    parallelism: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        parallelism: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    other => return Err(format!("--scale: unknown {other}")),
                }
            }
            "--parallelism" => {
                args.parallelism = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--parallelism: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !["paper", "crowd", "wire"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be paper, crowd or wire (got {:?})",
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let origin = Instant::now();
    let drift_before = drift_kernel_ms();

    let gen_start = Instant::now();
    let workload = match args.workload.as_str() {
        "paper" => Workload::Paper(paper::Paper::generate(args.seed, args.scale)),
        "crowd" => Workload::Crowd(crowd::Crowd::generate(
            args.seed,
            args.scale,
            args.parallelism,
        )),
        _ => Workload::Wire(wire::Wire::generate(args.seed, args.scale)),
    };
    let gen_s = gen_start.elapsed().as_secs_f64();

    let mut checks = Checks::default();
    let mut spans = Vec::new();
    let mut one_pass = |checks: &mut Checks| {
        let tracer = args.trace.then(|| Tracer::new(origin, 0));
        let tracer_ref = tracer.as_ref();
        let pass = match &workload {
            Workload::Paper(w) => w.pass(tracer_ref, origin, checks),
            Workload::Crowd(w) => w.pass(tracer_ref, origin, checks),
            Workload::Wire(w) => w.pass(tracer_ref, origin, checks),
        };
        // Spans of the first pass are written out; later passes only feed
        // the per-layer metrics, which keeps the file to one pass.
        if let Some(t) = tracer {
            if spans.is_empty() {
                spans = t.into_spans();
            }
        }
        pass
    };
    let measure = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_rss = 0.0;
    loop {
        let pass = one_pass(&mut checks);
        let first = passes.first().map_or(pass.fingerprint, |p| p.fingerprint);
        checks.eq("pass repeats the first pass", pass.fingerprint, first);
        if let Some(p) = passes.first() {
            checks.eq(
                "pass sample counts repeat",
                (
                    pass.steps_s.len(),
                    pass.ingest_us.len(),
                    pass.delivery_ms.len(),
                ),
                (p.steps_s.len(), p.ingest_us.len(), p.delivery_ms.len()),
            );
        }
        passes.push(pass);
        if passes.len() == 1 {
            peak_rss = peak_rss_mb();
        }
        if measure.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let drift_after = drift_kernel_ms();

    println!(
        "# perfbench workload={} seed={} scale={:?} passes={}, input generation {:.3} s",
        args.workload,
        args.seed,
        args.scale,
        passes.len(),
        gen_s
    );
    println!(
        "# host drift kernel (8 MiB dependent walk, fixed work): before {drift_before:.1} ms, after {drift_after:.1} ms"
    );
    let rates: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.0}", p.tuples as f64 / p.stream_s))
        .collect();
    println!("# per-pass throughput (tuples/s): {}", rates.join(" "));
    for f in &checks.failures {
        println!("# CHECK FAILED: {f}");
    }
    let metrics = if args.trace {
        if let Err(e) = write_spans(&args, &spans) {
            eprintln!("perfbench: writing spans: {e}");
            return ExitCode::FAILURE;
        }
        layer_metrics(&passes)
    } else {
        end_to_end(&passes, peak_rss)
    };
    for m in &metrics {
        match m.samples {
            Some(n) => println!("# {:<28} {:>16.4} {:<10} n={n}", m.name, m.value, m.unit),
            None => println!("# {:<28} {:>16.4} {}", m.name, m.value, m.unit),
        }
    }
    for m in &metrics {
        assert!(m.value.is_finite(), "{} is not finite", m.name);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// The end-to-end metrics of an untraced run.
///
/// Every pass replays the same input, so chunk `i` (or emission `i`)
/// does the same work in every pass. Each timing is taken per index
/// across the run's passes first, then summarised over the indices:
///
/// - step and ingest times take the slow quartile per index: this host
///   runs a thread at a steady slow floor with faster excursions of up
///   to 1.6x lasting seconds (see README), and a program change moves
///   the floor;
/// - delivery latency takes the median per index: on `wire` it spans two
///   threads and a socket, and a scheduling stall delays a burst of
///   frames in one pass, which the median leaves out.
///
/// Throughput is the input size over the summed per-chunk steps.
/// Filtering delay and bytes depend only on the input: they come from
/// the first pass, which every other pass must reproduce. Set-up time is
/// the median over passes. The peak resident set is read once the first
/// pass has ended, before the benchmark's own sample store grows with
/// the number of passes.
fn end_to_end(passes: &[Pass], peak_rss: f64) -> Vec<Metric> {
    const SLOW: f64 = 0.75;
    const TYPICAL: f64 = 0.5;
    let first = &passes[0];
    let pct = |samples: &[f64], q: f64| quantile(&sorted(samples.to_vec()), q);
    let steps = across(passes, |p| &p.steps_s, SLOW);
    let ingest = across(passes, |p| &p.ingest_us, SLOW);
    let delivery = across(passes, |p| &p.delivery_ms, TYPICAL);
    let n = passes.len();
    let delays = sorted(first.delays_us.iter().map(|&d| d as f64 / 1e3).collect());
    vec![
        Metric::new(
            "throughput_tps",
            "tuples/s",
            first.tuples as f64 / steps.iter().sum::<f64>(),
        )
        .with_samples(n * steps.len()),
        Metric::new("ingest_p50_us", "us", pct(&ingest, 0.5)).with_samples(n * ingest.len()),
        Metric::new("ingest_p90_us", "us", pct(&ingest, 0.9)).with_samples(n * ingest.len()),
        Metric::new("delivery_p50_ms", "ms", pct(&delivery, 0.5)).with_samples(n * delivery.len()),
        Metric::new("delivery_p90_ms", "ms", pct(&delivery, 0.9)).with_samples(n * delivery.len()),
        Metric::new("filter_delay_p50_ms", "ms", quantile(&delays, 0.5)).with_samples(delays.len()),
        Metric::new("filter_delay_p90_ms", "ms", quantile(&delays, 0.9)).with_samples(delays.len()),
        Metric::new(
            "bytes_per_tuple",
            "B/tuple",
            first.bytes as f64 / first.tuples as f64,
        ),
        Metric::new(
            "setup_s",
            "s",
            pct(&passes.iter().map(|p| p.setup_s).collect::<Vec<_>>(), 0.5),
        )
        .with_samples(n),
        Metric::new("peak_rss_mb", "MiB", peak_rss),
    ]
}

/// Quantile `q` of each index across the passes' sample vectors, which
/// the run has checked to be equally long.
fn across(passes: &[Pass], get: impl Fn(&Pass) -> &[f64], q: f64) -> Vec<f64> {
    (0..get(&passes[0]).len())
        .map(|i| quantile(&sorted(passes.iter().map(|p| get(p)[i]).collect()), q))
        .collect()
}

/// Every per-layer metric, averaged per measured pass. Layers a workload
/// does not exercise read 0. Also prints each layer's self time with
/// the unattributed remainder.
fn layer_metrics(passes: &[Pass]) -> Vec<Metric> {
    let n = passes.len() as f64;
    let mut out: Vec<Metric> = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| Metric::new(name, unit, 0.0))
        .collect();
    for p in passes {
        for m in &p.layers {
            let slot = out
                .iter_mut()
                .find(|o| o.name == m.name)
                .unwrap_or_else(|| panic!("{} is not a declared per-layer metric", m.name));
            slot.value += m.value;
        }
    }
    for m in &mut out {
        m.value /= n;
    }
    if let Some(first) = passes.first() {
        println!("# self time per pass (ms), remainder unattributed:");
        for (i, (name, _)) in first.breakdown.iter().enumerate() {
            let ms: f64 = passes.iter().map(|p| p.breakdown[i].1).sum::<f64>() / n;
            println!("#   {name:<24} {ms:>12.3}");
        }
    }
    out
}

/// The per-layer metrics `BENCHMARK.json` declares, in its order.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("sources.busy_ms", "ms"),
    ("sources.chunks", "count"),
    ("sources.rows", "count"),
    ("gate.calls", "count"),
    ("gate.throttled", "count"),
    ("gate.credits", "count"),
    ("reorder.released", "count"),
    ("reorder.late_dropped", "count"),
    ("reorder.buffered_max", "count"),
    ("engine.busy_ms", "ms"),
    ("engine.ns_per_tuple", "ns/tuple"),
    ("engine.solve_ms", "ms"),
    ("engine.regions", "count"),
    ("engine.region_size_mean", "tuples"),
    ("engine.output_tuples", "count"),
    ("engine.si_output_tuples", "count"),
    ("engine.emissions", "count"),
    ("engine.recipient_labels", "count"),
    ("shard.worker_busy_ms", "ms"),
    ("shard.overlap", "ratio"),
    ("middleware.self_ms", "ms"),
    ("middleware.deliveries", "count"),
    ("middleware.ns_per_delivery", "ns/delivery"),
    ("control.busy_ms", "ms"),
    ("control.ops", "count"),
    ("control.epochs", "count"),
    ("shed.degrade_ops", "count"),
    ("shed.restore_ops", "count"),
    ("shed.max_rung", "rung"),
    ("shed.dropped", "count"),
    ("overlay.repairs", "count"),
    ("overlay.busy_ms", "ms"),
    ("overlay.us_per_send", "us/send"),
    ("overlay.messages", "count"),
    ("overlay.bytes", "B"),
    ("wire.busy_ms", "ms"),
    ("wire.us_per_send", "us/send"),
    ("wire.sends", "count"),
    ("wire.bytes", "B"),
    ("subscriber.busy_ms", "ms"),
    ("subscriber.frames", "count"),
    ("setup.subscribe_ms", "ms"),
    ("setup.deploy_ms", "ms"),
    ("setup.connect_ms", "ms"),
];

/// Where traced runs write their spans, relative to the repository root.
const SPANS_DIR: &str = "perfbench/spans";

/// Writes the first traced pass's spans as TSV: one line per span with
/// its id, parent id (empty for roots), thread, name, start and end in
/// ns since the run began.
fn write_spans(args: &Args, spans: &[common::Span]) -> std::io::Result<()> {
    std::fs::create_dir_all(SPANS_DIR)?;
    let path = format!("{SPANS_DIR}/{}-seed{}.tsv", args.workload, args.seed);
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "id\tparent\tthread\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == common::NO_PARENT {
            String::new()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}",
            s.thread, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()?;
    println!("# spans written to {path}");
    Ok(())
}
