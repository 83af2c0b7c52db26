//! `scoreboard` — one end-to-end + per-layer benchmark of the engine: the
//! 22 TPC-H queries on the Plain, PK and BDCC schemes, the parallel and
//! serving paths, and out-of-core execution. See `README.md`.
//!
//! ```text
//! scoreboard --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//!            [--sf <f>] [--passes <n>] [--repeat <n>] [--smoke]
//!            [--out <dir>] [--print-expected]
//! ```
//!
//! `--setup-only` is what the benchmark passes to the children it starts
//! to time further set-ups.

mod engine;
mod layers;
mod metrics;
mod oracle;
mod report;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use engine::Obj;
use oracle::{PINNED_SEED, PINNED_SF};
use workload::{Fixture, Kind, Length, RunResult, Runner, SetupSample, Workload, WORKLOADS};

/// Set-ups per run when one workload is selected (the form the driver
/// calls): `setup_s` is their median. Each is the first set-up of a fresh
/// process — this one and `SETUP_REPEATS - 1` children it starts with
/// `--setup-only` — because that is the set-up a user pays. Repeats inside
/// one process instead measure the allocator's history: BDCC builds after
/// the first took 0.6–5.8 s where first builds took 0.8–1.5 s. A run of
/// several workloads sets up once and sums the components each reads.
const SETUP_REPEATS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    sf: f64,
    passes: Option<u64>,
    repeat: usize,
    smoke: bool,
    out: PathBuf,
    print_expected: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: "all".into(),
        seed: PINNED_SEED,
        seconds: 12.0,
        trace: true,
        sf: PINNED_SF,
        passes: None,
        repeat: 1,
        smoke: false,
        out: PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or("target".into()))
            .join("scoreboard"),
        print_expected: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot read `{v}`"))
        }
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = num(&flag, value()?)?,
            "--seconds" => a.seconds = num(&flag, value()?)?,
            "--trace" => a.trace = num::<u8>(&flag, value()?)? != 0,
            "--sf" => a.sf = num(&flag, value()?)?,
            "--passes" => a.passes = Some(num(&flag, value()?)?),
            "--repeat" => a.repeat = num(&flag, value()?)?,
            "--out" => a.out = PathBuf::from(value()?),
            "--smoke" => a.smoke = true,
            "--print-expected" => a.print_expected = true,
            "--setup-only" => a.setup_only = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.smoke {
        // Small and short, for a CI job: checks correctness, no bounds.
        a.sf = 0.01;
        a.passes = Some(2);
        a.trace = true;
    }
    if !(a.sf > 0.0 && a.sf <= 10.0) {
        return Err(format!("--sf {} is outside (0, 10]", a.sf));
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err(format!("--seconds {} is outside (0, 600]", a.seconds));
    }
    if a.passes == Some(0) || a.repeat == 0 {
        return Err("--passes and --repeat must be at least 1".into());
    }
    Ok(a)
}

/// The ruler measures the default gate settings: refuse any `BDCC_*`
/// override. `BDCC_SPILL_DIR` is a place, not a gate, and is allowed.
fn refuse_gate_overrides() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("BDCC_") && k != "BDCC_SPILL_DIR")
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to measure with gate overrides set: {}", set.join(", ")))
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn env_json(a: &Args, setup_repeats: usize) -> String {
    let mut o = Obj::new()
        .usize("nproc", std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0))
        .str("commit", &command_line("git", &["rev-parse", "HEAD"]))
        .str("rustc", &command_line("rustc", &["--version"]))
        .f64("sf", a.sf)
        .u64("seed", a.seed)
        .f64("seconds", a.seconds)
        .usize("setup_repeats", setup_repeats)
        .bool("smoke", a.smoke);
    if let Some(p) = a.passes {
        o = o.u64("passes", p);
    }
    o.finish()
}

/// Set up once more in a fresh process and read back what it cost.
fn setup_in_child(a: &Args) -> Result<SetupSample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--setup-only", "--workload", &a.workload])
        .args(["--seed", &a.seed.to_string(), "--sf", &a.sf.to_string()])
        .arg("--out")
        .arg(&a.out)
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(SetupSample::parse)
        .filter(|_| out.status.success())
        .ok_or_else(|| format!("set-up child failed: {}", String::from_utf8_lossy(&out.stderr)))
}

fn run(a: &Args) -> Result<bool, String> {
    refuse_gate_overrides()?;
    let selected: Vec<&Workload> = match a.workload.as_str() {
        "all" => WORKLOADS.iter().collect(),
        name => vec![WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload `{name}`; one of all, {}", names.join(", "))
        })?],
    };
    // Spill files stay inside the output directory unless the caller
    // chose a place. Set before any engine thread exists.
    if std::env::var_os("BDCC_SPILL_DIR").is_none() {
        let dir = a.out.join("spill");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        std::env::set_var("BDCC_SPILL_DIR", &dir);
    }

    if a.setup_only {
        let fx = Fixture::build(a.sf, a.seed, &selected)?;
        println!("{}", fx.samples[0].to_line());
        return Ok(true);
    }
    // A traced run reports no `setup_s`, so it sets up once.
    let setup_repeats = if selected.len() == 1 && !a.trace && !a.smoke { SETUP_REPEATS } else { 1 };
    let env = env_json(a, setup_repeats);
    println!("scoreboard {env}");
    // The children run first, one at a time, while this process is small.
    let others = (1..setup_repeats).map(|_| setup_in_child(a)).collect::<Result<Vec<_>, _>>()?;
    let mut fx = Fixture::build(a.sf, a.seed, &selected)?;
    fx.samples.extend(others);

    let mut reference_errors: Vec<String> = Vec::new();
    let needs_queries = selected.iter().any(|w| w.kind != Kind::Spill);
    let (query_oracle, reference_s) = if needs_queries || a.print_expected {
        let (o, s) = fx.query_oracle()?;
        reference_errors.extend(o.check_expected(a.sf, a.seed));
        (Some(o), s)
    } else {
        (None, 0.0)
    };
    let spill_oracle = selected.iter().any(|w| w.kind == Kind::Spill).then(|| {
        reference_errors.extend(fx.sizing_oracle().check_expected(a.sf, a.seed));
        fx.spill_oracle()
    });
    if a.print_expected {
        println!("# sf={} seed={}", a.sf, a.seed);
        for line in query_oracle.iter().flat_map(|o| o.expected_lines()) {
            println!("{line}");
        }
        if spill_oracle.is_some() {
            for line in fx.sizing_oracle().expected_lines() {
                println!("{line}");
            }
        }
        return Ok(true);
    }
    for e in &reference_errors {
        println!("FAILED {e}");
    }

    let length = Length { seconds: a.seconds, passes: a.passes, traced: a.trace };
    let mut sets: Vec<Vec<RunResult>> = Vec::new();
    for rep in 0..a.repeat {
        if a.repeat > 1 {
            println!("\n#### set {} of {} ####", rep + 1, a.repeat);
        }
        let mut set = Vec::new();
        for w in &selected {
            let (oracle, reference_s) = match w.kind {
                Kind::Spill => (spill_oracle.as_ref(), 0.0),
                _ => (query_oracle.as_ref(), reference_s),
            };
            let oracle = oracle.expect("an oracle for every selected workload");
            let r = Runner { workload: w, fixture: &fx, oracle, reference_s }.run(length);
            report::print_run(&r);
            if a.trace {
                report::write_traced(&a.out, &env, &fx, &r)
                    .map_err(|e| format!("{}: {e}", a.out.display()))?;
            }
            set.push(r);
        }
        sets.push(set);
    }

    let mut violations = 0;
    if !a.smoke {
        let serial: Vec<&str> = selected
            .iter()
            .filter(|w| matches!(w.kind, Kind::Direct { threads: 1 } | Kind::Spill))
            .map(|w| w.name)
            .collect();
        for later in &sets[1..] {
            violations += report::compare_sets(&sets[0], later, &serial);
        }
    }

    let attempted: u64 = sets.iter().flatten().map(|r| r.attempted).sum();
    let failed: u64 = sets.iter().flatten().map(|r| r.failed).sum();
    let correct = failed == 0 && reference_errors.is_empty();
    let last = sets.last().expect("at least one set");
    let mut line =
        Obj::new().bool("correct", correct).u64("attempted", attempted).u64("failed", failed);
    if let [only] = last.as_slice() {
        // The form the driver reads: exactly these four keys.
        let metrics =
            if a.trace { report::per_layer_json(only) } else { report::end_to_end_json(only) };
        line = line.raw("metrics", &metrics);
    } else {
        let mut per_workload = Obj::new();
        // End-to-end only: the per-layer metrics are printed above and
        // written to `--out`.
        for r in last {
            per_workload = per_workload.raw(r.workload, &report::end_to_end_json(r));
        }
        line = line
            .usize("repeat_violations", violations)
            .raw("env", &env)
            .raw("workloads", &per_workload.finish());
    }
    println!("{}", line.finish());
    Ok(correct && violations == 0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("scoreboard: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("scoreboard: {e}");
            ExitCode::from(2)
        }
    }
}
