//! The benchmark's workloads and metrics, in one table.
//!
//! `BENCHMARK.json` at the repository root registers the workloads and
//! the metrics every workload reports; a unit test below keeps the two
//! identical, and `--list` prints this table.

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's closed-loop evaluation grid (Tables 5-7).
    PaperGrid,
    /// The grid path with faults and a shared response cache.
    GridFaultsCached,
    /// Open-loop virtual-time serving.
    ServeMixed,
    /// Two-stage hierarchical classification at paper scale.
    HierScale1,
}

use Workload::{GridFaultsCached, HierScale1, PaperGrid, ServeMixed};

const ALL: &[Workload] = &Workload::ALL;
const GRID: &[Workload] = &[PaperGrid, GridFaultsCached];
const TOWER: &[Workload] = &[GridFaultsCached, ServeMixed];
const FAULTS: &[Workload] = &[GridFaultsCached];
const SERVE: &[Workload] = &[ServeMixed];
const HIER: &[Workload] = &[HierScale1];

impl Workload {
    /// Every workload, in registry order.
    pub const ALL: [Workload; 4] = [PaperGrid, GridFaultsCached, ServeMixed, HierScale1];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            PaperGrid => "paper_grid",
            GridFaultsCached => "grid_faults_cached",
            ServeMixed => "serve_mixed",
            HierScale1 => "hier_scale1",
        }
    }

    /// Why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            PaperGrid => "The job users run (Tables 5-7): 18 models x 30 datasets x 3 prompt settings, no cache or faults; the model and parse layers dominate",
            GridFaultsCached => "The same grid path with 20% injected faults and a shared response cache, cold then warm, so cache, faults and resilience do real work",
            ServeMixed => "Open-loop virtual-time serving of about 2M arrivals over four faulty cached lanes: the only workload with queueing, shedding and batching",
            HierScale1 => "Hierarchical classification on all ten taxonomies: per-run state and leaf scans over the 2.19M-node NCBI dominate and the model barely shows",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end (what a user sees) or per-layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Printed by every run.
    EndToEnd,
    /// Printed by `--trace 1` runs.
    Layer,
}

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Printed name.
    pub name: &'static str,
    /// Printed unit.
    pub unit: &'static str,
    /// End-to-end or per-layer.
    pub kind: Kind,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `Some(0.0)` marks a deterministic metric that must match
    /// exactly; `None` for layer metrics.
    pub bound: Option<f64>,
    /// Workloads that report it.
    pub on: &'static [Workload],
    /// How it is measured.
    pub what: &'static str,
}

impl Metric {
    /// Registered in `BENCHMARK.json`: reported by every workload and,
    /// for end-to-end metrics, a measurement rather than a deterministic
    /// count (those are guarded exactly by the output checks and can be
    /// 0, which a registered metric must never be).
    pub fn registered(&self) -> bool {
        self.on.len() == Workload::ALL.len() && self.bound != Some(0.0)
    }

    /// Whether `workload` reports it.
    pub fn reported_by(&self, workload: Workload) -> bool {
        self.on.contains(&workload)
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    on: &'static [Workload],
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        kind: Kind::EndToEnd,
        better,
        bound: Some(bound),
        on,
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [Workload],
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        kind: Kind::Layer,
        better,
        bound: None,
        on,
        what,
    }
}

use Better::{Higher, Lower};

/// Every metric the benchmark prints, end-to-end first.
pub const METRICS: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25, ALL, "generate all ten taxonomies, save them into an empty store, load them back and build the inputs; median of the set-ups, each after dropping the previous inputs"),
    e2e("wall_s", "s", Lower, 0.25, ALL, "median wall time of one repeat, set-up and the untimed first repeat excluded"),
    e2e("items_per_s", "items/s", Higher, 0.25, ALL, "items per repeat / wall_s; items are scored queries, arrivals or instances"),
    e2e("peak_rss_mb", "MiB", Lower, 0.25, ALL, "VmHWM of the process after the set-ups and the first repeat"),
    e2e("failed_frac", "ratio", Lower, 0.0, ALL, "Failed outcomes / scored (grid); (shed + failed) / arrivals (serve); (hier + flat failed) / (2 x instances) (hier)"),
    e2e("virt_p50_ms", "ms", Lower, 0.0, SERVE, "virtual-time latency median over completed requests"),
    e2e("virt_p99_ms", "ms", Lower, 0.0, SERVE, "virtual-time latency p99 over completed requests"),
    e2e("virt_p999_ms", "ms", Lower, 0.0, SERVE, "virtual-time latency p99.9 over completed requests"),
    layer("synth.generate_s", "s", Lower, ALL, "sum of synth::generate over the ten taxonomies (median set-up)"),
    layer("taxonomy.save_s", "s", Lower, ALL, "sum of SnapshotStore::save (median set-up)"),
    layer("taxonomy.load_s", "s", Lower, ALL, "sum of SnapshotStore::load (median set-up)"),
    layer("taxonomy.snapshot_mb", "MiB", Lower, ALL, "snapshot bytes on disk"),
    layer("dataset.build_s", "s", Lower, ALL, "DatasetBuilder::build or HierWorkload::build over all inputs (median set-up)"),
    layer("dataset.items", "count", Higher, ALL, "questions or instances built"),
    layer("prompts.render_s", "s", Lower, GRID, "render_prefix + render_prompt_into in the traced replay"),
    layer("prompts.mb", "MiB", Lower, GRID, "prompt bytes rendered in the traced replay"),
    layer("llm.self_s", "s", Lower, ALL, "self time of the probe around SimulatedLlm in the traced pass"),
    layer("llm.queries", "count", Lower, ALL, "queries that reached SimulatedLlm in the traced pass"),
    layer("llm.calls", "count", Lower, ALL, "answer/answer_batch calls into SimulatedLlm in the traced pass"),
    layer("faults.self_s", "s", Lower, TOWER, "probe above FaultInjector minus probe above CachedModel"),
    layer("faults.injected", "count", Lower, TOWER, "FaultInjector::stats injected deliveries in the traced pass"),
    layer("cache.self_s", "s", Lower, TOWER, "probe above CachedModel minus the llm probe"),
    layer("cache.hit_rate", "ratio", Higher, FAULTS, "ResponseCache hits / lookups over one repeat (cold + warm passes)"),
    layer("cache.entries", "count", Lower, FAULTS, "ResponseCache::len after one repeat"),
    layer("cache.cold_pass_s", "s", Lower, FAULTS, "untraced wall of the cold pass (median repeat)"),
    layer("cache.warm_pass_s", "s", Lower, FAULTS, "untraced wall of a warm pass, mean of passes 2-3 (median repeat)"),
    layer("resilience.self_s", "s", Lower, GRID, "call_prefetched time minus the model time of its retries"),
    layer("resilience.retries", "count", Lower, GRID, "ResilienceStats::retries summed over the replay's sessions"),
    layer("resilience.amplification", "ratio", Lower, GRID, "deliveries / queries over the replay's sessions"),
    layer("parse.self_s", "s", Lower, GRID, "parse_tf + parse_mcq in the traced replay"),
    layer("parse.unparsed_frac", "ratio", Lower, GRID, "Unparsed answers / parsed answers"),
    layer("eval.score_s", "s", Lower, GRID, "score + Metrics::record in the traced replay"),
    layer("grid.other_s", "s", Lower, GRID, "replay wall minus every attributed stage"),
    layer("grid.wall_1t_s", "s", Lower, GRID, "one untraced 1-worker repeat"),
    layer("grid.speedup", "ratio", Higher, GRID, "grid.wall_1t_s / wall_s"),
    layer("harness.self_s", "s", Lower, ALL, "traced pass wall minus llm.self_s: all time spent outside the simulated model"),
    layer("report.serialize_s", "s", Lower, ALL, "to_string + digest over all reports of a repeat (median repeat)"),
    layer("serve.loop_s", "s", Lower, SERVE, "traced run_serve wall minus time inside the lane towers"),
    layer("serve.tower_s", "s", Lower, SERVE, "time inside the lane towers (faults + cache + llm)"),
    layer("serve.llm_s", "s", Lower, SERVE, "llm self time inside the lane towers"),
    layer("serve.cache_hit_rate", "ratio", Higher, SERVE, "lane ResponseCache hits / lookups"),
    layer("serve.events", "count", Higher, SERVE, "ServeReport::trace_events"),
    layer("serve.events_per_s", "1/s", Higher, SERVE, "trace events / untraced run_serve wall (median repeat)"),
    layer("serve.batches", "count", Lower, SERVE, "ServeReport::batches"),
    layer("serve.mean_occupancy", "count", Higher, SERVE, "ServeReport::mean_occupancy"),
    layer("serve.shed_rate_limited", "count", Lower, SERVE, "ShedStats::rate_limited"),
    layer("serve.shed_overload", "count", Lower, SERVE, "ShedStats::overload"),
    layer("serve.shed_queue_full", "count", Lower, SERVE, "ShedStats::queue_full"),
    layer("serve.retries", "count", Lower, SERVE, "lane ResilienceStats::retries"),
    layer("hier.state_s", "s", Lower, HIER, "HierWorkload::run on an empty HierDataset, summed over taxonomies"),
    layer("hier.route_s", "s", Lower, HIER, "HierWorkload::route over every instance"),
    layer("hier.llm_s", "s", Lower, HIER, "llm self time inside HierWorkload::run"),
    layer("hier.instance_s", "s", Lower, HIER, "(run - state - llm) / instances"),
    layer("hier.queries", "count", Lower, HIER, "HierMetrics::hier_queries"),
    layer("hier.prompt_tokens", "count", Lower, HIER, "HierMetrics::hier_prompt_tokens"),
    layer("hier.ncbi_frac", "ratio", Lower, HIER, "NCBI's share of the traced run wall"),
    layer("trace.overhead_frac", "ratio", Lower, ALL, "traced pass wall / untraced single-thread pass wall - 1"),
    layer("trace.unattributed_frac", "ratio", Lower, GRID, "grid.other_s / replay wall"),
];

/// Look a metric up by name.
pub fn metric(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

/// The table as `--list` prints it.
pub fn render_list() -> String {
    let mut out = String::from("workloads:\n");
    for w in Workload::ALL {
        out.push_str(&format!("  {:<20} {}\n", w.name(), w.why()));
    }
    out.push_str("metrics (name, unit, better, bound, registered, workloads):\n");
    for m in METRICS {
        let bound = match m.bound {
            Some(0.0) => "exact".to_owned(),
            Some(b) => format!("{b}"),
            None => "-".to_owned(),
        };
        let on: Vec<&str> = m.on.iter().map(|w| w.name()).collect();
        out.push_str(&format!(
            "  {:<26} {:<8} {:<6} {:<6} {:<5} {}\n      {}\n",
            m.name,
            m.unit,
            m.better.word(),
            bound,
            if m.registered() { "yes" } else { "no" },
            on.join(","),
            m.what,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxoglimpse_json::{from_str_value, Json};

    fn registered(kind: Kind) -> Vec<&'static Metric> {
        METRICS
            .iter()
            .filter(|m| m.kind == kind && m.registered())
            .collect()
    }

    fn strs<'a>(doc: &'a Json, key: &str) -> Vec<&'a str> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} is an array"))
            .iter()
            .map(|s| s.as_str().expect("array of strings"))
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_table() {
        let doc =
            from_str_value(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(strs(&doc, "paths"), ["e2e"]);
        assert!(strs(&doc, "command").contains(&"e2e/Cargo.toml"));

        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (entry, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(entry.as_obj().map(<[_]>::len), Some(2));
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(w.name()));
            assert_eq!(entry.get("why").and_then(Json::as_str), Some(w.why()));
        }

        for (key, kind, fields) in [
            ("end_to_end", Kind::EndToEnd, 4),
            ("per_layer", Kind::Layer, 3),
        ] {
            let entries = doc.get(key).and_then(Json::as_arr).expect(key);
            let table = registered(kind);
            let names: Vec<&str> = entries
                .iter()
                .map(|e| e.get("name").and_then(Json::as_str).expect("name"))
                .collect();
            let expected: Vec<&str> = table.iter().map(|m| m.name).collect();
            assert_eq!(names, expected, "{key} names");
            for (entry, m) in entries.iter().zip(&table) {
                assert_eq!(entry.as_obj().map(<[_]>::len), Some(fields), "{}", m.name);
                assert_eq!(
                    entry.get("unit").and_then(Json::as_str),
                    Some(m.unit),
                    "{}",
                    m.name
                );
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(m.better.word()),
                    "{}",
                    m.name
                );
                if kind == Kind::EndToEnd {
                    assert_eq!(
                        entry.get("bound").and_then(Json::as_f64),
                        m.bound,
                        "{}",
                        m.name
                    );
                }
            }
        }
    }

    #[test]
    fn table_is_well_formed() {
        for (i, m) in METRICS.iter().enumerate() {
            assert_eq!(
                METRICS.iter().position(|x| x.name == m.name),
                Some(i),
                "{} twice",
                m.name
            );
            assert!(!m.on.is_empty(), "{} is reported nowhere", m.name);
            assert_eq!(m.bound.is_some(), m.kind == Kind::EndToEnd, "{}", m.name);
            assert!(m.bound.unwrap_or(0.0) <= 0.25, "{}", m.name);
            if i > 0 && m.kind == Kind::EndToEnd {
                assert_eq!(
                    METRICS[i - 1].kind,
                    Kind::EndToEnd,
                    "end-to-end metrics come first"
                );
            }
        }
        let setup = metric("setup_s").expect("setup_s");
        for m in METRICS.iter().filter(|m| m.kind == Kind::EndToEnd) {
            assert!(m.bound <= setup.bound, "setup_s carries the largest bound");
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{}: why is too long", w.name());
        }
        assert_eq!(Workload::from_name("bogus"), None);
    }
}
