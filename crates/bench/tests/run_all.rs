//! Tier-1 gate for the experiment runner, `run_all`.
//!
//! One small-scale run (`--scale 0.05 --cap 5`) of every registry entry
//! but `ablation` must exit 0 with one section per entry, in order. Its
//! `cost` and `shots` sections must each print a GPT-4 row: `cost`
//! serves models through the fault/resilience tower, and `shots` runs
//! truncated exemplar pools through the grid runner. `ablation` is left
//! out of that run because its fourth section builds full-scale NCBI
//! whatever `--scale` says; the ledger test runs it.
//!
//! The ledger test runs every entry at the default flags (seed 42,
//! scale 1.0) and compares stdout with the committed
//! `results/run_all.txt` byte for byte, so a change that moves any
//! published number fails until the ledger is regenerated with it:
//! `target/release/run_all > results/run_all.txt`.

use std::process::{Command, Output};
use std::sync::OnceLock;

/// The registry, in the order a full run prints it.
const REGISTRY: [&str; 16] = [
    "table1", "fig2", "table4", "tables567", "fig3", "fig4", "fig5", "fig6", "fig7",
    "casestudy", "ablation", "maintenance", "cost", "analysis", "leaderboard", "shots",
];

const SMALL: [&str; 4] = ["--scale", "0.05", "--cap", "5"];
const HEADER: &str = "\n==================== ";
const TRAILER: &str = "\nall experiments completed\n";

/// The committed paper ledger: stdout of `run_all` at its default flags.
const LEDGER: &str = include_str!("../../../results/run_all.txt");

fn run_all(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(args)
        .env("TAXOGLIMPSE_CACHE_DIR", concat!(env!("CARGO_TARGET_TMPDIR"), "/taxo-cache"))
        .output()
        .expect("run_all starts")
}

/// Stdout of a successful run, checked to end with the trailer.
fn stdout_of(out: Output, what: &str) -> String {
    assert!(
        out.status.success(),
        "{what} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("run_all prints UTF-8");
    assert!(stdout.ends_with(TRAILER), "{what}: no trailer at the end of stdout");
    stdout
}

/// `(name, section)` pairs of a run's stdout; each section starts at
/// its header and runs up to the next header or the trailer.
fn sections(stdout: &str) -> Vec<(&str, &str)> {
    let body = &stdout[..stdout.len() - TRAILER.len()];
    let mut starts: Vec<usize> = body.match_indices(HEADER).map(|(i, _)| i).collect();
    assert_eq!(starts.first(), Some(&0), "stdout does not open with a header");
    starts.push(body.len());
    starts
        .windows(2)
        .map(|w| {
            let section = &body[w[0]..w[1]];
            let name = section[HEADER.len()..].split(' ').next().expect("header names its entry");
            (name, section)
        })
        .collect()
}

/// Stdout of the small run over every entry but `ablation`.
fn small_run() -> &'static str {
    static OUT: OnceLock<String> = OnceLock::new();
    OUT.get_or_init(|| {
        let mut args: Vec<&str> = REGISTRY.into_iter().filter(|&n| n != "ablation").collect();
        args.extend(SMALL);
        stdout_of(run_all(&args), "run_all <every entry but ablation>")
    })
}

#[test]
fn every_entry_but_ablation_runs_in_order() {
    let names: Vec<&str> = sections(small_run()).into_iter().map(|(name, _)| name).collect();
    let expected: Vec<&str> = REGISTRY.into_iter().filter(|&n| n != "ablation").collect();
    assert_eq!(names, expected);
}

#[test]
fn cost_and_shots_print_a_gpt4_row() {
    for entry in ["cost", "shots"] {
        let (_, section) = sections(small_run())
            .into_iter()
            .find(|&(name, _)| name == entry)
            .unwrap_or_else(|| panic!("no {entry} section"));
        assert!(
            section.lines().any(|line| line.starts_with("GPT-4 ")),
            "no GPT-4 row in the {entry} section:\n{section}"
        );
    }
}

#[test]
fn one_name_prints_its_section_of_the_full_run() {
    let (_, fig5) = sections(small_run())
        .into_iter()
        .find(|&(name, _)| name == "fig5")
        .expect("a fig5 section");
    let mut args = vec!["fig5"];
    args.extend(SMALL);
    let alone = stdout_of(run_all(&args), "run_all fig5");
    assert_eq!(alone, format!("{fig5}{TRAILER}"));
}

/// Where `got` first differs from `want`: the 1-based line, the
/// `==== name ====` header of the section in `got` holding it, and both
/// lines (`<end>` past the last one). `None` when they are equal.
fn first_difference(got: &str, want: &str) -> Option<String> {
    if got == want {
        return None;
    }
    let (mut got_lines, mut want_lines) = (got.split('\n'), want.split('\n'));
    let mut section = "(before the first header)";
    for line in 1.. {
        let (g, w) = (got_lines.next(), want_lines.next());
        if let Some(header) = g.filter(|g| g.starts_with(&HEADER[1..])) {
            section = header;
        }
        if g != w {
            return Some(format!(
                "first differing line {line} is in section {section}\n  got:  {}\n  want: {}",
                g.unwrap_or("<end>"),
                w.unwrap_or("<end>"),
            ));
        }
    }
    unreachable!("unequal texts differ at some line")
}

#[test]
fn default_run_matches_the_committed_ledger() {
    let stdout = stdout_of(run_all(&[]), "run_all");
    if let Some(difference) = first_difference(&stdout, LEDGER) {
        panic!("run_all output differs from results/run_all.txt: {difference}");
    }
}

#[test]
fn first_difference_names_the_line_and_its_section() {
    let header = |name: &str| format!("{}{name} ====================", &HEADER[1..]);
    let (a, b) = (header("a"), header("b"));
    let want = format!("\n{a}\nx\n\n{b}\ny\nz\n");
    assert_eq!(first_difference(&want, &want), None);
    assert_eq!(
        first_difference(&want.replace('z', "Z"), &want),
        Some(format!("first differing line 7 is in section {b}\n  got:  Z\n  want: z"))
    );
    assert_eq!(
        first_difference(&format!("\n{a}\nx\n"), &want),
        Some(format!("first differing line 5 is in section {a}\n  got:  <end>\n  want: {b}"))
    );
    assert_eq!(
        first_difference("x", "").as_deref(),
        Some("first differing line 1 is in section (before the first header)\n  got:  x\n  want: ")
    );
}

#[test]
fn unknown_name_exits_2_and_lists_the_registry() {
    let out = run_all(&["fig99"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "an unknown name must run nothing");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"fig99\""), "{stderr}");
    assert!(stderr.contains(&REGISTRY.join(", ")), "registry not listed in order: {stderr}");
}
