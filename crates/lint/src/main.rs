//! CLI for the in-tree linter.
//!
//! ```text
//! taxoglimpse-lint --workspace [--root DIR] [--check] [--json FILE] [--graph FILE]
//! taxoglimpse-lint --validate FILE
//! taxoglimpse-lint --explain RULE
//! taxoglimpse-lint --list-rules
//! ```
//!
//! Exit codes are stable so scripts can gate on them:
//! `0` clean (or valid), `1` findings with `--check` (or invalid with
//! `--validate`), `2` usage or I/O error (including an unknown rule id
//! passed to `--explain`).

use std::path::PathBuf;
use std::process::ExitCode;

use taxoglimpse_lint::{
    explain_rule, lint_workspace, lint_workspace_with_graph, validate_report, RULES,
};

const USAGE: &str = "usage:\n  taxoglimpse-lint --workspace [--root DIR] [--check] [--json FILE] [--graph FILE]\n  taxoglimpse-lint --validate FILE\n  taxoglimpse-lint --explain RULE\n  taxoglimpse-lint --list-rules\n";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut workspace = false;
    let mut check = false;
    let mut list_rules = false;
    let mut root = PathBuf::from(".");
    let mut json_out: Option<PathBuf> = None;
    let mut graph_out: Option<PathBuf> = None;
    let mut validate: Option<PathBuf> = None;
    let mut explain: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--check" => check = true,
            "--list-rules" => list_rules = true,
            "--root" => {
                root = PathBuf::from(
                    it.next().ok_or_else(|| "--root needs a directory".to_owned())?,
                );
            }
            "--json" => {
                json_out = Some(PathBuf::from(
                    it.next().ok_or_else(|| "--json needs a file path".to_owned())?,
                ));
            }
            "--graph" => {
                graph_out = Some(PathBuf::from(
                    it.next().ok_or_else(|| "--graph needs a file path".to_owned())?,
                ));
            }
            "--validate" => {
                validate = Some(PathBuf::from(
                    it.next().ok_or_else(|| "--validate needs a file path".to_owned())?,
                ));
            }
            "--explain" => {
                explain =
                    Some(it.next().ok_or_else(|| "--explain needs a rule id".to_owned())?.clone());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }

    if list_rules {
        for (id, summary) in RULES {
            println!("{id}  {summary}");
        }
        return Ok(ExitCode::SUCCESS);
    }

    if let Some(rule) = explain {
        let text = explain_rule(&rule)
            .ok_or_else(|| format!("unknown rule `{rule}` (see --list-rules)"))?;
        print!("{text}");
        return Ok(ExitCode::SUCCESS);
    }

    if let Some(path) = validate {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = match taxoglimpse_json::from_str_value(&text) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("invalid: {}: not JSON: {e}", path.display());
                return Ok(ExitCode::from(1));
            }
        };
        return match validate_report(&doc) {
            Ok(n) => {
                println!("valid: {} ({n} finding(s))", path.display());
                Ok(ExitCode::SUCCESS)
            }
            Err(e) => {
                eprintln!("invalid: {}: {e}", path.display());
                Ok(ExitCode::from(1))
            }
        };
    }

    if !workspace {
        return Err("nothing to do: pass --workspace, --validate, or --list-rules".to_owned());
    }

    let report = match &graph_out {
        Some(path) => {
            let (report, graph) = lint_workspace_with_graph(&root).map_err(|e| e.to_string())?;
            std::fs::write(path, graph).map_err(|e| format!("{}: {e}", path.display()))?;
            report
        }
        None => lint_workspace(&root).map_err(|e| e.to_string())?,
    };
    if let Some(path) = &json_out {
        let doc = report.to_json().render_pretty() + "\n";
        std::fs::write(path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    print!("{}", report.render_table());

    if check && !report.findings.is_empty() {
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}
