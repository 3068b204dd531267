//! `e2e` — the repository's end-to-end benchmark.
//!
//! Runs one named workload at paper scale (scale 1.0, the 2.19M-node
//! NCBI) from a fresh snapshot store of its own, checks its outputs, and
//! prints every metric by name and unit:
//!
//! ```text
//! e2e --workload <name> --seed <u64> [--seconds N] [--trace 0|1] [--trace-out FILE]
//! e2e --list
//! ```
//!
//! Set-up (generate, save into an empty store, load back, build inputs)
//! runs several times; then one untimed repeat of the workload, then
//! timed repeats on `min(2, cores)` workers until `--seconds` have
//! passed. `--trace 1` adds one traced single-thread pass with timers
//! around the public call of every layer, and one untraced single-thread
//! pass to compare it with, and prints the per-layer split.
//!
//! Standard output is two JSON lines: the full record (workload, seed,
//! host, metrics, layers, checks, reports digest), then the summary
//! `{"correct","attempted","failed","metrics"}` carrying the metrics
//! `BENCHMARK.json` registers for the mode. Exit status: 0, 1 when a
//! check fails or the run cannot complete, 2 for bad arguments.

mod grid;
mod hier;
mod pass;
mod registry;
mod serve;
mod setup;
mod stats;
mod trace;

use pass::{Pass, Traced};
use registry::{Kind, Workload, METRICS};
use setup::{Inputs, Plan, RunDir, SetupTimes};
use stats::median;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use taxoglimpse_json::{Json, ToJson};
use taxoglimpse_llm::zoo::ModelZoo;

/// Set-ups per invocation; `setup_s` is their median.
const SETUPS: usize = 5;

/// Where invocations keep their snapshot stores, under the working
/// directory; each removes its own on exit.
const STORE_DIR: &str = ".e2e-store";

/// Most worker threads a repeat uses.
const MAX_WORKERS: usize = 2;

const USAGE: &str = "usage: e2e --workload <name> --seed <u64> [--seconds N] [--trace 0|1] [--trace-out FILE]\n       e2e --list";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

#[derive(Debug, Clone, PartialEq)]
enum Command {
    List,
    Run(Args),
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, 10, false, None);
    let mut list = false;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--list" => list = true,
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if list {
        return Ok(Command::List);
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    if trace_out.is_some() && !trace {
        return Err("--trace-out needs --trace 1".to_owned());
    }
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        trace,
        trace_out,
    }))
}

fn main() -> ExitCode {
    ExitCode::from(cli(std::env::args().skip(1)))
}

/// Parse, dispatch, and return the exit status.
fn cli(args: impl IntoIterator<Item = String>) -> u8 {
    match parse_args(args) {
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            2
        }
        Ok(Command::List) => {
            print!("{}", registry::render_list());
            0
        }
        Ok(Command::Run(args)) => match run(&args) {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(msg) => {
                eprintln!("error: {msg}");
                1
            }
        },
    }
}

/// Measure, print, and report whether every check passed.
fn run(args: &Args) -> Result<bool, String> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let plan = Plan {
        seed: args.seed,
        scale: 1.0,
        workers: cores.min(MAX_WORKERS),
    };
    let loadavg = stats::loadavg_1m();
    if let Some(load) = loadavg.filter(|&l| l > cores as f64) {
        eprintln!("warning: load average {load} exceeds {cores} cores; timings will be noisy");
    }
    let outcome = {
        let run_dir =
            RunDir::create(Path::new(STORE_DIR)).map_err(|e| format!("{STORE_DIR}: {e}"))?;
        measure(
            args.workload,
            &plan,
            &run_dir,
            Duration::from_secs(args.seconds),
            args.trace,
        )?
    };
    if let Some(path) = &args.trace_out {
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        trace::write_jsonl(&outcome.spans, &mut out)
            .and_then(|()| std::io::Write::flush(&mut out))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let host = Json::obj(vec![
        ("cores", cores.to_json()),
        ("threads", plan.workers.to_json()),
        ("loadavg_1m", loadavg.map_or(Json::Null, |l| l.to_json())),
    ]);
    println!(
        "{}",
        outcome.record(args.workload, args.seed, host).render()
    );
    println!("{}", outcome.summary().render());
    Ok(outcome.correct())
}

/// Everything one invocation measured.
#[derive(Debug, Default)]
struct Outcome {
    traced: bool,
    metrics: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    checks: BTreeMap<&'static str, bool>,
    digest: u64,
    repeat_walls: Vec<f64>,
    attempted: u64,
    failed: u64,
    spans: Vec<trace::Span>,
}

impl Outcome {
    fn check(&mut self, name: &'static str, ok: bool) {
        *self.checks.entry(name).or_insert(true) &= ok;
    }

    /// Count a pass's items and fold in its checks, with `same_output`
    /// naming the check that its digest equals the first repeat's. All
    /// items of a pass that fails a check count as failed.
    fn tally(&mut self, pass: &Pass, same_output: &'static str) {
        let ok = pass.digest == self.digest && pass.checks.iter().all(|(_, ok)| *ok);
        self.attempted += pass.items;
        self.failed += if ok { 0 } else { pass.items };
        self.check(same_output, pass.digest == self.digest);
        for &(name, ok) in &pass.checks {
            self.check(name, ok);
        }
    }

    fn correct(&self) -> bool {
        self.checks.values().all(|&ok| ok)
    }

    /// `{name: {value, unit}}` over `metrics` for the registry entries
    /// `pick` selects, in registry order.
    fn render_metrics(
        values: &BTreeMap<&'static str, f64>,
        pick: impl Fn(&registry::Metric) -> bool,
    ) -> Json {
        Json::Obj(
            METRICS
                .iter()
                .filter(|m| pick(m))
                .map(|m| {
                    let value = values
                        .get(m.name)
                        .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
                    (
                        m.name.to_owned(),
                        Json::obj(vec![("value", value.to_json()), ("unit", m.unit.to_json())]),
                    )
                })
                .collect(),
        )
    }

    /// The full record: every metric the workload reports.
    fn record(&self, workload: Workload, seed: u64, host: Json) -> Json {
        let mut fields = vec![
            ("workload", workload.name().to_json()),
            ("seed", seed.to_json()),
            ("host", host),
            (
                "metrics",
                Self::render_metrics(&self.metrics, |m| {
                    m.kind == Kind::EndToEnd && m.reported_by(workload)
                }),
            ),
        ];
        if self.traced {
            fields.push((
                "layers",
                Self::render_metrics(&self.layers, |m| {
                    m.kind == Kind::Layer && m.reported_by(workload)
                }),
            ));
        }
        let (q1, q3) = stats::quartiles(&self.repeat_walls).unwrap_or((f64::NAN, f64::NAN));
        fields.extend([
            (
                "checks",
                Json::Obj(
                    self.checks
                        .iter()
                        .map(|(k, v)| ((*k).to_owned(), v.to_json()))
                        .collect(),
                ),
            ),
            ("reports_digest", format!("{:016x}", self.digest).to_json()),
            (
                "repeats",
                Json::obj(vec![
                    ("count", self.repeat_walls.len().to_json()),
                    ("wall_s_q1", q1.to_json()),
                    ("wall_s_q3", q3.to_json()),
                    ("wall_s", self.repeat_walls.to_json()),
                ]),
            ),
        ]);
        Json::obj(fields)
    }

    /// The summary line: the registered metrics of the mode.
    fn summary(&self) -> Json {
        let metrics = if self.traced {
            Self::render_metrics(&self.layers, |m| m.kind == Kind::Layer && m.registered())
        } else {
            Self::render_metrics(&self.metrics, |m| {
                m.kind == Kind::EndToEnd && m.registered()
            })
        };
        Json::obj(vec![
            ("correct", self.correct().to_json()),
            ("attempted", self.attempted.to_json()),
            ("failed", self.failed.to_json()),
            ("metrics", metrics),
        ])
    }
}

fn median_of(values: impl IntoIterator<Item = f64>) -> f64 {
    median(&values.into_iter().collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// Set up, run repeats for `seconds` (at least one), and with `traced`
/// add the traced pass.
fn measure(
    workload: Workload,
    plan: &Plan,
    run_dir: &RunDir,
    seconds: Duration,
    traced: bool,
) -> Result<Outcome, String> {
    let mut out = Outcome {
        traced,
        ..Outcome::default()
    };

    // Set-ups from nothing, each into an empty store, dropping the
    // previous inputs first; the last one's inputs feed the repeats.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let store = run_dir.store("store");
        let (built, times) = setup::set_up(workload, &store, plan)?;
        std::fs::remove_dir_all(store.dir())
            .map_err(|e| format!("{}: {e}", store.dir().display()))?;
        setups.push(times);
        inputs = Some(built);
    }
    let inputs = inputs.expect("at least one set-up ran");
    let setup_median = |field: fn(&SetupTimes) -> f64| median_of(setups.iter().map(field));

    let zoo = ModelZoo::default_zoo();
    let repeat = |threads: usize| -> Pass {
        match &inputs {
            Inputs::Grid(datasets) => grid::repeat(workload, plan, &zoo, datasets, threads),
            Inputs::Serve(pool) => serve::repeat(plan, &zoo, pool),
            Inputs::Hier(hier) => hier::repeat(plan, &zoo, hier, threads),
        }
    };
    // The first repeat fills the allocator's arenas and the CPU caches
    // and runs slower than the rest; it is checked but not timed.
    let mut passes = vec![repeat(plan.workers)];
    // Set-up and one pass is what a user's process holds at its peak;
    // later repeats only add allocator fragmentation, which varies
    // with their number.
    out.metrics.insert("peak_rss_mb", stats::peak_rss_mib()?);
    let start = Instant::now();
    while passes.len() < 2 || start.elapsed() < seconds {
        passes.push(repeat(plan.workers));
    }
    out.digest = passes[0].digest;
    for pass in &passes {
        out.tally(pass, "digest_stable");
    }
    let timed = &passes[1..];
    out.repeat_walls = timed.iter().map(|p| p.wall_s).collect();
    let wall_s = median_of(out.repeat_walls.iter().copied());

    out.metrics.extend([
        ("setup_s", setup_median(|t| t.total_s)),
        ("wall_s", wall_s),
        ("items_per_s", passes[0].items as f64 / wall_s),
        ("failed_frac", passes[0].failed_frac),
    ]);
    let mut repeat_values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (name, value) in timed.iter().flat_map(|p| p.values.iter().copied()) {
        repeat_values.entry(name).or_default().push(value);
    }
    for (name, values) in repeat_values {
        let kind = registry::metric(name)
            .unwrap_or_else(|| panic!("{name} is not in the registry"))
            .kind;
        let target = if kind == Kind::EndToEnd {
            &mut out.metrics
        } else {
            &mut out.layers
        };
        target.insert(name, median_of(values));
    }

    if traced {
        let t: Traced = match &inputs {
            Inputs::Grid(datasets) => grid::traced(workload, plan, &zoo, datasets, wall_s),
            Inputs::Serve(pool) => serve::traced(plan, &zoo, pool),
            Inputs::Hier(hier) => hier::traced(plan, &zoo, hier),
        };
        out.tally(&t.reference, "digest_stable");
        out.tally(&t.pass, "replay_matches");
        let llm = trace::totals_by_name(&t.spans)
            .get("llm")
            .copied()
            .unwrap_or_default();
        out.layers.extend(t.pass.values.iter().copied());
        out.layers.extend([
            ("synth.generate_s", setup_median(|t| t.generate_s)),
            ("taxonomy.save_s", setup_median(|t| t.save_s)),
            ("taxonomy.load_s", setup_median(|t| t.load_s)),
            (
                "taxonomy.snapshot_mb",
                setups[0].bytes as f64 / (1024.0 * 1024.0),
            ),
            ("dataset.build_s", setup_median(|t| t.build_s)),
            ("dataset.items", inputs.items() as f64),
            ("llm.self_s", llm.self_s()),
            ("llm.queries", llm.count as f64),
            ("llm.calls", llm.spans as f64),
            ("harness.self_s", t.pass.wall_s - llm.self_s()),
            (
                "report.serialize_s",
                median_of(timed.iter().map(|p| p.serialize_s)),
            ),
            (
                "trace.overhead_frac",
                t.pass.wall_s / t.reference.wall_s - 1.0,
            ),
        ]);
        out.spans = t.spans;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Command, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse() {
        assert_eq!(
            args(&[
                "--workload",
                "serve_mixed",
                "--seed",
                "7",
                "--seconds",
                "3",
                "--trace",
                "1"
            ]),
            Ok(Command::Run(Args {
                workload: Workload::ServeMixed,
                seed: 7,
                seconds: 3,
                trace: true,
                trace_out: None,
            }))
        );
        assert_eq!(args(&["--list"]), Ok(Command::List));
    }

    #[test]
    fn bad_arguments_are_errors() {
        for bad in [
            &["--workload", "bogus", "--seed", "1"][..],
            &["--workload", "paper_grid"],
            &["--seed", "1"],
            &["--workload", "paper_grid", "--seed", "x"],
            &["--workload", "paper_grid", "--seed", "1", "--trace", "yes"],
            &["--workload", "paper_grid", "--seed", "1", "--seconds", "0"],
            &[
                "--workload",
                "paper_grid",
                "--seed",
                "1",
                "--trace-out",
                "f",
            ],
            &["--workload", "paper_grid", "--seed"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn bad_arguments_exit_2() {
        let cli_of = |list: &[&str]| cli(list.iter().map(|s| s.to_string()));
        assert_eq!(cli_of(&["--workload", "bogus", "--seed", "1"]), 2);
        assert_eq!(cli_of(&["--seed", "1"]), 2);
        assert_eq!(cli_of(&["--list"]), 0);
    }

    /// Every workload at scale 0.05, the untimed and one timed repeat
    /// plus the traced pass, through the same code path as a benchmark
    /// run.
    fn smoke(workload: Workload) {
        let plan = Plan {
            seed: 5,
            scale: 0.05,
            workers: 2,
        };
        let run_dir =
            RunDir::create(&std::env::temp_dir().join("taxoglimpse-e2e-smoke")).expect("temp dir");
        let mut out =
            measure(workload, &plan, &run_dir, Duration::ZERO, true).expect("smoke run completes");
        assert!(out.correct(), "{workload:?}: {:?}", out.checks);
        for check in ["digest_stable", "replay_matches"] {
            assert_eq!(out.checks.get(check), Some(&true), "{workload:?}: {check}");
        }
        assert!(out.attempted > 0 && out.failed == 0);
        // Rendering panics on any metric the workload should report but
        // did not measure.
        let record = out.record(workload, 5, Json::Null).render();
        assert!(record.contains("\"layers\"") && out.summary().render().contains("\"llm.self_s\""));
        out.traced = false;
        assert!(out.summary().render().contains("\"setup_s\""));
        assert!(!out
            .record(workload, 5, Json::Null)
            .render()
            .contains("\"layers\""));
        for m in METRICS.iter().filter(|m| m.registered()) {
            let value = if m.kind == Kind::EndToEnd {
                out.metrics[m.name]
            } else {
                out.layers[m.name]
            };
            assert!(
                value.is_finite() && value != 0.0,
                "{workload:?}: {} = {value}",
                m.name
            );
        }
    }

    #[test]
    fn smoke_paper_grid() {
        smoke(Workload::PaperGrid);
    }

    #[test]
    fn smoke_grid_faults_cached() {
        smoke(Workload::GridFaultsCached);
    }

    #[test]
    fn smoke_serve_mixed() {
        smoke(Workload::ServeMixed);
    }

    #[test]
    fn smoke_hier_scale1() {
        smoke(Workload::HierScale1);
    }
}
