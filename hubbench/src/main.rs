//! The hub's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path hubbench/Cargo.toml -- \
//!     --workload <rfq_population|rfq_bulk|po_exchange> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One harness thread runs a closed loop: it initiates one wave of
//! sessions, then steps the simulated network until everything is
//! quiescent, then starts the next wave. A pass runs a workload's whole
//! plan on freshly built engines. Each run first makes one warm-up pass
//! that is discarded, so measured passes never pay a process's first-run
//! costs, then measures passes until `--seconds` have passed and reports
//! medians over them.
//!
//! Engine time is wall time inside the hub's public calls (`initiate`,
//! `initiate_deferred`, `pump`). The simulated partners, the network and
//! the loop's own bookkeeping are harness cost and never billed to the
//! engine. With `--trace 1`, traced and untraced passes alternate: the
//! traced ones split wall time and allocations across layers, and the
//! untraced ones give the tracing overhead.
//!
//! Every pass checks its outcome (completions, replies, rule runs, back-end
//! orders, dead letters); any failed check makes the run exit with code 1.
//! The last line of standard output is one JSON object with the result.

mod alloc;
mod calib;
mod meter;
mod po;
mod report;
mod rfq;

use meter::Pass;
use std::time::{Duration, Instant};

/// Builds timed per set-up; the set-up's time is their median.
const BUILDS_PER_SETUP: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    RfqPopulation,
    RfqBulk,
    PoExchange,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "rfq_population" => Some(Self::RfqPopulation),
            "rfq_bulk" => Some(Self::RfqBulk),
            "po_exchange" => Some(Self::PoExchange),
            _ => None,
        }
    }

    /// The RFQ hub mode, or `None` for the two-engine PO exchange.
    fn rfq_mode(self) -> Option<rfq::Mode> {
        match self {
            Self::RfqPopulation => Some(rfq::Mode::Population),
            Self::RfqBulk => Some(rfq::Mode::Bulk),
            Self::PoExchange => None,
        }
    }
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some((
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                    value,
                ))
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let (workload, name) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hubbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("hubbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs the benchmark; `Ok(false)` when a correctness check failed.
fn run(args: &Args) -> b2b_core::Result<bool> {
    let plan = rfq::Plan::generate(args.seed);
    let one_pass = |traced: bool, reference: &mut calib::Reference| -> b2b_core::Result<Pass> {
        match args.workload.rfq_mode() {
            Some(mode) => rfq::run_pass(&plan, mode, traced, reference),
            None => po::run_pass(args.seed, traced, reference),
        }
    };

    let mut reference = calib::Reference::new();
    let warm_up = one_pass(false, &mut reference)?;
    let (mut passes, mut setups) = (vec![], vec![]);
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let min_passes = if args.trace { 2 } else { 3 };
    while passes.len() < min_passes || started.elapsed() < budget {
        let pass = one_pass(args.trace && passes.len() % 2 == 1, &mut reference)?;
        eprintln!(
            "{} pass {}{}: {:.0} docs/s, engine {:.3} s, wall {:.3} s, reference {:.2} ms",
            args.name,
            passes.len() + 1,
            if pass.traced { " (traced)" } else { "" },
            report::docs_per_s(&pass),
            pass.engine_ns() as f64 / 1e9,
            pass.wall_ns as f64 / 1e9,
            pass.reference_ns() / 1e6
        );
        passes.push(pass);
        setups.push(one_setup(args, &plan, &mut reference)?);
    }

    let mut correct = true;
    for (i, pass) in std::iter::once(&warm_up).chain(&passes).enumerate() {
        for error in &pass.errors {
            eprintln!("hubbench: {} pass {i}: check failed: {error}", args.name);
            correct = false;
        }
    }
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let measured = if args.trace { &traced } else { &untraced };
    let attempted = measured.iter().map(|p| p.sessions).sum();
    let failed = measured.iter().map(|p| p.failed).sum();
    correct &= failed == 0;

    let e2e = report::end_to_end(&untraced, &setups);
    report::print_end_to_end(&args.name, &e2e, &report::guards(&untraced), &untraced);
    let metrics = if args.trace {
        let layers = report::per_layer(&traced, &untraced);
        report::print_per_layer(&args.name, &layers, traced.len());
        layers
    } else {
        e2e
    };
    println!("{}", report::json(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// Times building a workload's engines, partners and agreements: the
/// median of a few builds, scaled to the reference speed measured just
/// before and just after them.
fn one_setup(
    args: &Args,
    plan: &rfq::Plan,
    reference: &mut calib::Reference,
) -> b2b_core::Result<f64> {
    fn time_build<T>(build: impl FnOnce() -> b2b_core::Result<T>) -> b2b_core::Result<f64> {
        let started = Instant::now();
        let built = build()?;
        let seconds = started.elapsed().as_secs_f64();
        drop(built);
        Ok(seconds)
    }
    let before = reference.measure();
    let builds = (0..BUILDS_PER_SETUP)
        .map(|_| match args.workload.rfq_mode() {
            Some(mode) => time_build(|| rfq::World::build(plan, mode)),
            None => time_build(|| po::setup(args.seed)),
        })
        .collect::<b2b_core::Result<Vec<_>>>()?;
    let reference_ns = (before + reference.measure()) / 2.0;
    Ok(report::median(&builds) * calib::scale(reference_ns))
}
