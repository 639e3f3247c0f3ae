//! The repository benchmark's measuring program (see README.md).
//!
//! ```text
//! perfbench --workload bulk|micro|wire --seed N --seconds S --trace 0|1
//!           --serviced PATH --out-dir DIR [--rustc VERSION]
//! ```
//!
//! Prints human-readable progress on stderr and, as the last line of
//! stdout, one JSON object with `correct`, `attempted`, `failed` and every
//! metric the mode measured. `run.py` selects from it the metrics
//! `BENCHMARK.json` names. Exits 1 when any output is wrong or a run
//! fails, 2 on bad arguments.

mod bulk;
mod common;
mod layers;
mod micro;
mod oracle;
mod trace;
mod wire;

use std::fs;
use std::io::{self, Write};
use std::path::PathBuf;

use common::{json_num, Metrics, Outcome, Tally};
use trace::Tracer;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serviced: PathBuf,
    out_dir: PathBuf,
    rustc: String,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload bulk|micro|wire --seed N --seconds S \
         --trace 0|1 --serviced PATH --out-dir DIR [--rustc VERSION]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut serviced, mut out_dir, mut rustc) = (None, None, "unknown".to_string());
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => seconds = Some(value.parse().unwrap_or_else(|_| usage("bad --seconds"))),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--serviced" => serviced = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            "--rustc" => rustc = value,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !["bulk", "micro", "wire"].contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    let seconds: f64 = seconds.unwrap_or_else(|| usage("--seconds is required"));
    if !(seconds > 0.0 && seconds <= 600.0) {
        usage("--seconds must be in (0, 600]");
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds,
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        serviced: serviced.unwrap_or_else(|| usage("--serviced is required")),
        out_dir: out_dir.unwrap_or_else(|| usage("--out-dir is required")),
        rustc,
    }
}

fn run_workload(args: &Args, seconds: f64, tracer: &mut Tracer) -> io::Result<Outcome> {
    match args.workload.as_str() {
        "bulk" => Ok(bulk::run(args.seed, seconds, tracer)),
        "micro" => Ok(micro::run(args.seed, seconds, tracer)),
        _ => wire::run(args.seed, seconds, tracer, &args.serviced, &args.out_dir),
    }
}

/// The traced invocation: the workload untraced for half the time, then
/// traced for the other half (their rate difference is the tracing
/// overhead), then the per-layer probes. Writes the Chrome trace and the
/// self-time table.
fn traced(args: &Args) -> io::Result<Outcome> {
    let half = args.seconds / 2.0;
    let plain = run_workload(args, half, &mut Tracer::new(false))?;
    let mut tracer = Tracer::new(true);
    let traced = run_workload(args, half, &mut tracer)?;
    let rate = |m: &Metrics| {
        m.get("raw.req_per_s")
            .expect("every workload reports raw.req_per_s")
    };
    let overhead = rate(&plain.metrics) / rate(&traced.metrics) - 1.0;

    // Per-layer metrics from the traced pass; raw and calibration context
    // from the untraced one.
    let mut metrics = traced.metrics;
    for (name, value, unit) in plain.metrics.entries {
        if name.starts_with("raw.") || name.starts_with("calib.") {
            metrics.put(name, value, unit);
        }
    }
    metrics.put("trace.overhead_frac", overhead, "ratio");
    let mut tally = plain.tally;
    tally.attempted += traced.tally.attempted;
    tally.failed += traced.tally.failed;
    tally.first_failure = tally.first_failure.or(traced.tally.first_failure);

    layers::kernels(args.seed, &mut metrics, &mut tally);
    layers::cpu_and_plan(args.seed, &mut metrics, &mut tally);
    layers::plan_build(&mut metrics);
    layers::segmented(args.seed, &mut metrics, &mut tally);
    let mut probe = Metrics::default();
    wire::serviced_probe(
        args.seed,
        2.0,
        &args.serviced,
        &args.out_dir,
        &mut probe,
        &mut tally,
    )?;
    metrics.merge_missing(probe);

    let stem = format!("{}-seed{}", args.workload, args.seed);
    let table = tracer.self_time_table();
    eprintln!(
        "self time per layer ({} traced pass):\n{table}",
        args.workload
    );
    fs::write(args.out_dir.join(format!("selftime-{stem}.txt")), &table)?;
    let trace_path = args.out_dir.join(format!("trace-{stem}.json"));
    let mut w = io::BufWriter::new(fs::File::create(&trace_path)?);
    tracer.write_chrome_trace(
        &mut w,
        &format!("perfbench {} seed {}", args.workload, args.seed),
    )?;
    w.flush()?;
    eprintln!("chrome trace: {}", trace_path.display());

    let mut samples = plain.samples;
    samples.extend(traced.samples);
    Ok(Outcome {
        metrics,
        tally,
        samples,
    })
}

/// Size of the last-level cache in bytes, from CPUID's deterministic
/// cache parameters (leaf 4); 0 where unavailable.
fn llc_bytes() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid_count;
        let max_leaf = __cpuid_count(0, 0).eax;
        if max_leaf < 4 {
            return 0;
        }
        let mut best = (0u32, 0u64);
        for sub in 0..16 {
            let r = __cpuid_count(4, sub);
            if r.eax & 0x1f == 0 {
                break;
            }
            let level = (r.eax >> 5) & 0x7;
            let ways = u64::from((r.ebx >> 22) & 0x3ff) + 1;
            let parts = u64::from((r.ebx >> 12) & 0x3ff) + 1;
            let line = u64::from(r.ebx & 0xfff) + 1;
            let sets = u64::from(r.ecx) + 1;
            if level > best.0 {
                best = (level, ways * parts * line * sets);
            }
        }
        best.1
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        0
    }
}

fn host_json(args: &Args) -> String {
    format!(
        "{{\"nproc\": {}, \"isa\": \"{}\", \"llc_bytes\": {}, \"rustc\": \"{}\", \
         \"ref_memcpy_elems_per_s\": {}, \"ref_pingpong_per_s\": {}, \"ref_echo_per_s\": {}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        sam_core::isa::resolved().name(),
        llc_bytes(),
        args.rustc.replace('"', "'"),
        bulk::REF_MEMCPY_ELEMS_PER_S,
        micro::REF_PINGPONG_PER_S,
        wire::REF_ECHO_PER_S,
    )
}

fn main() {
    let args = parse_args();
    if let Err(e) = fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        std::process::exit(1);
    }
    let host = host_json(&args);
    eprintln!("host: {host}");
    let outcome = if args.trace {
        traced(&args)
    } else {
        run_workload(&args, args.seconds, &mut Tracer::new(false))
    };
    let Outcome {
        metrics,
        mut tally,
        samples,
    } = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} run failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for (name, value, _) in &metrics.entries {
        if !value.is_finite() {
            tally.fail(|| format!("metric {name} is not a finite number"));
        }
    }
    report(&args, &host, &metrics, &tally, &samples);
}

fn report(args: &Args, host: &str, metrics: &Metrics, tally: &Tally, samples: &[(&str, usize)]) {
    let correct = tally.failed == 0;
    if let Some(why) = &tally.first_failure {
        eprintln!("perfbench: FAILED: {why}");
    }
    let samples_json: Vec<String> = samples
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {host}, \
         \"samples\": {{{}}}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \
         \"metrics\": {}}}\n",
        args.workload,
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        samples_json.join(", "),
        tally.attempted,
        tally.failed,
        metrics.json()
    );
    let path = args.out_dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = fs::write(&path, &record) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        metrics.json()
    );
    if !correct {
        std::process::exit(1);
    }
}
