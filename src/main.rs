//! `taxoglimpse` — command-line interface to the benchmark.
//!
//! ```text
//! taxoglimpse generate <taxonomy> [--scale S] [--seed N] [--format tsv|json|binary] [--out FILE]
//! taxoglimpse stats    <taxonomy> [--scale S] [--seed N]
//! taxoglimpse dataset  <taxonomy> --flavor easy|hard|mcq [--cap N] [--seed N] [--out FILE]
//! taxoglimpse eval     <taxonomy> --model NAME [--flavor F] [--setting zero|few|cot] [--cap N]
//! taxoglimpse ask      <taxonomy> --model NAME [--setting zero|cot] [--scale S] [--seed N] <child> <parent>
//! taxoglimpse hybrid   <taxonomy> --model NAME --cutoff K [--cap N]
//! taxoglimpse enrich   <taxonomy> --model NAME [--cap N]
//! taxoglimpse evolve   <taxonomy> [--seed N] [--scale S]
//! taxoglimpse models
//! ```

use std::io::Write;
use taxoglimpse::core::hybrid::HybridTaxonomy;
use taxoglimpse::prelude::*;
use taxoglimpse::taxonomy::TaxonomyStats;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => println!("{output}"),
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

const USAGE: &str = "\
usage:
  taxoglimpse generate <taxonomy> [--scale S] [--seed N] [--format tsv|json|binary] [--out FILE]
  taxoglimpse stats    <taxonomy> [--scale S] [--seed N]
  taxoglimpse dataset  <taxonomy> --flavor easy|hard|mcq [--cap N] [--seed N] [--out FILE]
  taxoglimpse eval     <taxonomy> --model NAME [--flavor F] [--setting zero|few|cot] [--cap N]
  taxoglimpse ask      <taxonomy> --model NAME [--setting zero|cot] [--scale S] [--seed N] <child> <parent>
  taxoglimpse hybrid   <taxonomy> --model NAME --cutoff K [--cap N]
  taxoglimpse enrich   <taxonomy> --model NAME [--cap N]
  taxoglimpse evolve   <taxonomy> [--seed N] [--scale S]
  taxoglimpse models";

/// Parsed common flags.
#[derive(Debug)]
struct Flags {
    scale: f64,
    seed: u64,
    cap: Option<usize>,
    model: Option<String>,
    flavor: QuestionDataset,
    setting: PromptSetting,
    format: String,
    out: Option<String>,
    cutoff: Option<usize>,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        scale: 1.0,
        seed: 42,
        cap: None,
        model: None,
        flavor: QuestionDataset::Hard,
        setting: PromptSetting::ZeroShot,
        format: "tsv".to_owned(),
        out: None,
        cutoff: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--scale" => flags.scale = value("--scale")?.parse().map_err(|e| format!("--scale: {e}"))?,
            "--seed" => flags.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--cap" => flags.cap = Some(value("--cap")?.parse().map_err(|e| format!("--cap: {e}"))?),
            "--model" => flags.model = Some(value("--model")?),
            "--format" => flags.format = value("--format")?,
            "--out" => flags.out = Some(value("--out")?),
            "--cutoff" => {
                flags.cutoff = Some(value("--cutoff")?.parse().map_err(|e| format!("--cutoff: {e}"))?)
            }
            "--flavor" => {
                flags.flavor = match value("--flavor")?.to_ascii_lowercase().as_str() {
                    "easy" => QuestionDataset::Easy,
                    "hard" => QuestionDataset::Hard,
                    "mcq" => QuestionDataset::Mcq,
                    other => return Err(format!("unknown flavor {other:?}")),
                }
            }
            "--setting" => {
                flags.setting = match value("--setting")?.to_ascii_lowercase().as_str() {
                    "zero" | "zero-shot" => PromptSetting::ZeroShot,
                    "few" | "few-shot" => PromptSetting::FewShot,
                    "cot" => PromptSetting::ChainOfThought,
                    other => return Err(format!("unknown setting {other:?}")),
                }
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            positional => flags.positional.push(positional.to_owned()),
        }
    }
    Ok(flags)
}

fn run(args: &[String]) -> Result<String, String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("missing command".to_owned());
    };
    let flags = parse_flags(rest)?;
    match command.as_str() {
        "generate" => cmd_generate(&flags),
        "stats" => cmd_stats(&flags),
        "dataset" => cmd_dataset(&flags),
        "eval" => cmd_eval(&flags),
        "ask" => cmd_ask(&flags),
        "hybrid" => cmd_hybrid(&flags),
        "enrich" => cmd_enrich(&flags),
        "evolve" => cmd_evolve(&flags),
        "models" => Ok(cmd_models()),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn taxonomy_arg(flags: &Flags) -> Result<TaxonomyKind, String> {
    flags
        .positional
        .first()
        .ok_or_else(|| "missing taxonomy argument".to_owned())?
        .parse::<TaxonomyKind>()
}

fn model_arg(flags: &Flags) -> Result<std::sync::Arc<taxoglimpse::llm::SimulatedLlm>, String> {
    let name = flags.model.as_deref().ok_or("missing --model")?;
    ModelZoo::default_zoo()
        .by_name(name)
        .ok_or_else(|| format!("unknown model {name:?} (see `taxoglimpse models`)"))
}

fn emit(flags: &Flags, content: &[u8], what: &str) -> Result<String, String> {
    match &flags.out {
        Some(path) => {
            let mut file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            file.write_all(content).map_err(|e| format!("{path}: {e}"))?;
            Ok(format!("wrote {what} ({} bytes) to {path}", content.len()))
        }
        None => String::from_utf8(content.to_vec())
            .map_err(|_| format!("{what} is binary; pass --out FILE")),
    }
}

fn cmd_generate(flags: &Flags) -> Result<String, String> {
    let kind = taxonomy_arg(flags)?;
    let taxonomy = generate(kind, GenOptions { seed: flags.seed, scale: flags.scale })
        .map_err(|e| e.to_string())?;
    match flags.format.as_str() {
        "tsv" => emit(flags, taxonomy.to_tsv().as_bytes(), "taxonomy (tsv)"),
        "json" => emit(flags, taxonomy.to_json().as_bytes(), "taxonomy (json)"),
        "binary" if flags.out.is_none() => {
            Err("binary output goes to a file; pass --out FILE".to_owned())
        }
        "binary" => emit(flags, &taxonomy.to_binary(), "taxonomy (binary)"),
        other => Err(format!("unknown format {other:?} (tsv|json|binary)")),
    }
}

fn cmd_stats(flags: &Flags) -> Result<String, String> {
    let kind = taxonomy_arg(flags)?;
    let taxonomy = generate(kind, GenOptions { seed: flags.seed, scale: flags.scale })
        .map_err(|e| e.to_string())?;
    let stats = TaxonomyStats::compute(&taxonomy);
    Ok(format!(
        "{stats}\nleaves: {}, max branching: {}, mean internal branching: {:.2}",
        stats.num_leaves, stats.max_children, stats.mean_children_of_internal
    ))
}

fn cmd_dataset(flags: &Flags) -> Result<String, String> {
    let kind = taxonomy_arg(flags)?;
    let taxonomy = generate(kind, GenOptions { seed: flags.seed, scale: flags.scale })
        .map_err(|e| e.to_string())?;
    let dataset = DatasetBuilder::new(&taxonomy, kind, flags.seed)
        .sample_cap(flags.cap)
        .build(flags.flavor)
        .map_err(|e| e.to_string())?;
    let json = taxoglimpse_json::to_string_pretty(&dataset).map_err(|e| e.to_string())?;
    emit(flags, json.as_bytes(), "dataset (json)")
}

fn cmd_eval(flags: &Flags) -> Result<String, String> {
    let kind = taxonomy_arg(flags)?;
    let model = model_arg(flags)?;
    let taxonomy = generate(kind, GenOptions { seed: flags.seed, scale: flags.scale })
        .map_err(|e| e.to_string())?;
    let dataset = DatasetBuilder::new(&taxonomy, kind, flags.seed)
        .sample_cap(flags.cap)
        .build(flags.flavor)
        .map_err(|e| e.to_string())?;
    let report = GridRunner::builder().with_config(EvalConfig { setting: flags.setting, ..Default::default() }).build()
        .run(model.as_ref(), &dataset);
    let mut out = format!(
        "{} on {} {} ({}):\n  overall: {}\n",
        report.model, kind, flags.flavor, flags.setting, report.overall
    );
    for level in &report.by_level {
        out.push_str(&format!(
            "  level {} -> {}: A={:.3} M={:.3} (n={})\n",
            level.child_level,
            level.child_level - 1,
            level.metrics.accuracy(),
            level.metrics.miss_rate(),
            level.metrics.total(),
        ));
    }
    Ok(out.trim_end().to_owned())
}

fn cmd_ask(flags: &Flags) -> Result<String, String> {
    let kind = taxonomy_arg(flags)?;
    let model = model_arg(flags)?;
    let [_, child, parent] = flags.positional.as_slice() else {
        return Err("ask needs <taxonomy> <child> <parent>".to_owned());
    };
    if child.trim().is_empty() || parent.trim().is_empty() {
        return Err("ask needs a non-empty <child> and <parent>".to_owned());
    }
    if flags.setting == PromptSetting::FewShot {
        return Err("ask has no exemplar pool; use --setting zero or cot".to_owned());
    }
    // The model's knowledge declines with depth, so a parent the
    // taxonomy names unambiguously is probed at its own level; any
    // other name is probed as a root.
    let taxonomy = generate(kind, GenOptions { seed: flags.seed, scale: flags.scale })
        .map_err(|e| e.to_string())?;
    let (parent_level, level_note) = match taxonomy.name_index().lookup_unique(parent) {
        Some(id) => (taxonomy.level(id), String::new()),
        None => (0, format!(" ({parent:?} is not a unique {kind} name)")),
    };
    let question = Question::probe(kind, child, parent, parent_level, None);
    let runner =
        GridRunner::builder().with_config(EvalConfig::default().with_setting(flags.setting)).build();
    let answer = runner.ask(model.as_ref(), &question, &[]);
    let prompt = answer.prompt;
    Ok(match answer.response {
        Ok(response) => format!(
            "Q: {prompt}\n{}: {}\nparsed: {:?}\nparent level: {parent_level}{level_note}",
            model.id(),
            response.text,
            answer.parsed
        ),
        Err(error) => format!(
            "Q: {prompt}\n{}: request failed: {error}\nparent level: {parent_level}{level_note}",
            model.id()
        ),
    })
}

fn cmd_hybrid(flags: &Flags) -> Result<String, String> {
    let kind = taxonomy_arg(flags)?;
    let model = model_arg(flags)?;
    let cutoff = flags.cutoff.ok_or("missing --cutoff")?;
    let taxonomy = generate(kind, GenOptions { seed: flags.seed, scale: flags.scale })
        .map_err(|e| e.to_string())?;
    let hybrid = HybridTaxonomy::build(&taxonomy, kind, cutoff);
    let reliability = hybrid.reliability(&taxonomy, model.as_ref(), flags.seed, flags.cap);
    let mut out = format!(
        "hybrid {kind} at cutoff {cutoff}: kept {} of {} nodes ({:.1}% saving)\nper-level Is-A reliability with {}:\n",
        hybrid.explicit().len(),
        taxonomy.len(),
        hybrid.cost_saving() * 100.0,
        model.id(),
    );
    for (level, accuracy) in reliability {
        let source = if level < cutoff { "tree " } else { "model" };
        out.push_str(&format!("  L{level} [{source}]: {accuracy:.3}\n"));
    }
    Ok(out.trim_end().to_owned())
}

fn cmd_enrich(flags: &Flags) -> Result<String, String> {
    use taxoglimpse::core::enrich::evaluate_reattachment;
    let kind = taxonomy_arg(flags)?;
    let model = model_arg(flags)?;
    let taxonomy = generate(kind, GenOptions { seed: flags.seed, scale: flags.scale })
        .map_err(|e| e.to_string())?;
    let report = evaluate_reattachment(&taxonomy, kind, model.as_ref(), flags.seed, flags.cap.or(Some(200)));
    Ok(format!(
        "leaf re-attachment on {kind} with {}:\n  leaves evaluated:  {}\n  top-1 accuracy:    {:.3}\n  shortlist MRR:     {:.3}\n  model-confirmed:   {:.1}%",
        model.id(),
        report.evaluated,
        report.top1_accuracy,
        report.shortlist_mrr,
        report.confirmed_rate * 100.0
    ))
}

fn cmd_evolve(flags: &Flags) -> Result<String, String> {
    use taxoglimpse::synth::drift::{evolve, DriftConfig};
    use taxoglimpse::taxonomy::diff::diff;
    let kind = taxonomy_arg(flags)?;
    let v1 = generate(kind, GenOptions { seed: flags.seed, scale: flags.scale })
        .map_err(|e| e.to_string())?;
    let v2 = evolve(&v1, kind, DriftConfig::default(), flags.seed ^ 1);
    let d = diff(&v1, &v2);
    let mut out = format!(
        "simulated next release of {kind}: {} -> {} nodes\n  added {}, removed {}, moved {}\n",
        v1.len(),
        v2.len(),
        d.added.len(),
        d.removed.len(),
        d.moved.len()
    );
    for path in d.added.iter().take(5) {
        out.push_str(&format!("  + {path}\n"));
    }
    for path in d.removed.iter().take(5) {
        out.push_str(&format!("  - {path}\n"));
    }
    for (name, from, to) in d.moved.iter().take(5) {
        out.push_str(&format!("  ~ {name}: {from} -> {to}\n"));
    }
    Ok(out.trim_end().to_owned())
}

fn cmd_models() -> String {
    let mut out = String::from("the eighteen evaluated models:\n");
    for id in taxoglimpse::llm::profile::ModelId::ALL {
        let size = id
            .params_billion()
            .map(|b| format!("{b}B"))
            .unwrap_or_else(|| "closed".to_owned());
        out.push_str(&format!("  {:<12} {:?} ({size})\n", id.to_string(), id.family()));
    }
    out.trim_end().to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxoglimpse::core::prompts::COT_SUFFIX;

    fn runv(args: &[&str]) -> Result<String, String> {
        run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn models_lists_eighteen() {
        let out = runv(&["models"]).unwrap();
        assert_eq!(out.lines().count(), 19);
        assert!(out.contains("GPT-4"));
        assert!(out.contains("closed"));
    }

    #[test]
    fn stats_prints_table1_row() {
        let out = runv(&["stats", "ebay"]).unwrap();
        assert!(out.contains("595 entities"));
        assert!(out.contains("shape 13-110-472"));
    }

    #[test]
    fn generate_tsv_to_stdout() {
        let out = runv(&["generate", "geonames", "--scale", "0.5"]).unwrap();
        assert!(out.starts_with("# geonames"));
    }

    #[test]
    fn eval_reports_metrics() {
        let out = runv(&["eval", "ebay", "--model", "GPT-4", "--cap", "10"]).unwrap();
        assert!(out.contains("GPT-4 on eBay hard"));
        assert!(out.contains("level 1 -> 0"));
    }

    #[test]
    fn ask_round_trips() {
        // `ask` generates the taxonomy to look the parent up; a small
        // NCBI keeps the debug build quick.
        let out = runv(&["ask", "ncbi", "--scale", "0.01", "--model", "Flan-T5-3B", "Verbascum chaixii", "Verbascum"])
            .unwrap();
        assert!(out.contains("Is Verbascum chaixii a type of Verbascum?"));
        assert!(out.contains("parsed:"));
        // The printed prompt is the one sent: CoT carries its suffix.
        let cot = runv(&[
            "ask", "ncbi", "--scale", "0.01", "--model", "Flan-T5-3B", "--setting", "cot", "Verbascum chaixii",
            "Verbascum",
        ])
        .unwrap();
        let prompt = cot.lines().next().unwrap();
        assert!(prompt.ends_with(COT_SUFFIX), "{prompt}");
        // Without exemplars a few-shot prompt would be the zero-shot
        // text under a few-shot tag.
        let few = runv(&["ask", "ncbi", "--model", "GPT-4", "--setting", "few", "Verbascum chaixii", "Verbascum"]);
        assert!(few.unwrap_err().contains("no exemplar pool"));
        // Empty or blank names are refused before anything is generated.
        for (child, parent) in [("", ""), ("Verbascum chaixii", ""), (" \t", "Verbascum")] {
            let err = runv(&["ask", "ncbi", "--model", "GPT-4", child, parent]).unwrap_err();
            assert!(err.contains("non-empty"), "{child:?} / {parent:?}: {err}");
        }
    }

    #[test]
    fn ask_probes_a_known_pair_at_its_level() {
        let t = generate(TaxonomyKind::Glottolog, GenOptions { seed: 42, scale: 0.05 }).unwrap();
        let index = t.name_index();
        // A deepest-level child whose parent's name is unique.
        let (child, parent) = t
            .nodes_at_level(t.num_levels() - 1)
            .iter()
            .filter_map(|&c| Some((c, t.parent(c)?)))
            .find(|&(_, p)| index.lookup_unique(t.name(p)).is_some())
            .unwrap();
        let level = t.level(parent);
        assert!(level >= 3, "a deep pair, parent at level {level}");
        let out = runv(&[
            "ask", "glottolog", "--model", "GPT-4", "--scale", "0.05", "--seed", "42", t.name(child), t.name(parent),
        ])
        .unwrap();
        assert!(out.ends_with(&format!("parent level: {level}")), "{out}");
        let unknown = runv(&["ask", "glottolog", "--model", "GPT-4", "--scale", "0.05", "Hailu", "Hakka-Chinese"]).unwrap();
        assert!(unknown.ends_with("parent level: 0 (\"Hakka-Chinese\" is not a unique Glottolog name)"), "{unknown}");
    }

    #[test]
    fn hybrid_reports_reliability() {
        let out = runv(&[
            "hybrid", "ebay", "--model", "GPT-4", "--cutoff", "2", "--cap", "10",
        ])
        .unwrap();
        assert!(out.contains("saving"));
        assert!(out.contains("L1 [tree ]: 1.000"));
        assert!(out.contains("L2 [model]"));
    }

    #[test]
    fn enrich_reports_reattachment() {
        let out = runv(&["enrich", "oae", "--model", "GPT-4", "--scale", "0.1", "--cap", "20"]).unwrap();
        assert!(out.contains("top-1 accuracy"));
        assert!(out.contains("shortlist MRR"));
    }

    #[test]
    fn evolve_shows_a_release_diff() {
        let out = runv(&["evolve", "glottolog", "--scale", "0.05"]).unwrap();
        assert!(out.contains("simulated next release"));
        assert!(out.contains("added"));
    }

    #[test]
    fn errors_are_helpful() {
        assert!(runv(&[]).is_err());
        assert!(runv(&["bogus"]).unwrap_err().contains("unknown command"));
        assert!(runv(&["eval", "ebay"]).unwrap_err().contains("--model"));
        assert!(runv(&["eval", "ebay", "--model", "GPT-5"]).unwrap_err().contains("unknown model"));
        assert!(runv(&["generate", "nope"]).unwrap_err().contains("unknown taxonomy"));
        assert!(runv(&["generate", "ebay", "--format", "xml"]).unwrap_err().contains("unknown format"));
    }

    #[test]
    fn binary_format_requires_out_file() {
        let err = runv(&["generate", "ebay", "--format", "binary"]).unwrap_err();
        assert!(err.contains("--out"));
    }
}
