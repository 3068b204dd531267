//! The interprocedural passes: D101 (transitive non-determinism), L001
//! (lock-order cycles), L002 (model calls under a held lock), P001
//! (panic reachability from public entry points).
//!
//! All four run over the [`crate::graph::CallGraph`]; findings carry
//! the propagation chain (outermost context first) and suppress through
//! the same `lint:allow` ledger as the token rules — an allow targets
//! the finding's anchor line (the entropy source, the lock acquisition,
//! the panic site).

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::context::{AllowLedger, SourceFile};
use crate::findings::Finding;
use crate::graph::CallGraph;

/// Core modules whose functions form the deterministic root set for
/// D101, together with [`D101_ROOT_PREFIXES`]. Hand-maintained; the
/// S001 self-check fails `--check` if an entry goes stale.
pub const D101_ROOT_FILES: &[&str] = &[
    "crates/core/src/eval.rs",
    "crates/core/src/parse.rs",
    "crates/core/src/metrics.rs",
    "crates/core/src/grid.rs",
    "crates/core/src/hier.rs",
    "crates/core/src/workload.rs",
    "crates/core/src/cache.rs",
    "crates/core/src/resilience.rs",
    "crates/core/src/serve/mod.rs",
    "crates/core/src/serve/admission.rs",
    "crates/core/src/serve/batcher.rs",
    "crates/core/src/serve/sim.rs",
    "crates/core/src/serve/traffic.rs",
];

/// Whole crates that are deterministic roots for D101.
pub const D101_ROOT_PREFIXES: &[&str] =
    &["crates/synth/src/", "crates/taxonomy/src/", "crates/report/src/"];

/// `true` iff functions in `rel_path` are D101 roots.
pub fn is_d101_root(rel_path: &str) -> bool {
    D101_ROOT_FILES.contains(&rel_path)
        || D101_ROOT_PREFIXES.iter().any(|p| rel_path.starts_with(p))
}

/// `true` iff `rel_path` is binary-target code (panics are acceptable
/// CLI style there; D003 exempts it for the same reason).
fn is_bin(rel_path: &str) -> bool {
    rel_path.contains("/src/bin/") || rel_path.ends_with("src/main.rs")
}

/// Run all four passes, appending unsuppressed findings.
pub fn run_passes(
    files: &[SourceFile],
    graph: &CallGraph,
    ledger: &mut AllowLedger,
    findings: &mut Vec<Finding>,
) {
    let adj: Vec<Vec<usize>> = (0..graph.nodes.len()).map(|i| graph.callees(i)).collect();
    d101(files, graph, &adj, ledger, findings);
    locks(files, graph, &adj, ledger, findings);
    p001(files, graph, &adj, ledger, findings);
}

/// Multi-source BFS; returns `(dist, parent)` with `usize::MAX` for
/// unreached nodes and `parent[root] == root`.
fn bfs(adj: &[Vec<usize>], roots: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let n = adj.len();
    let mut dist = vec![usize::MAX; n];
    let mut parent = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for &r in roots {
        if dist[r] == usize::MAX {
            dist[r] = 0;
            parent[r] = r;
            queue.push_back(r);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u] {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                parent[v] = u;
                queue.push_back(v);
            }
        }
    }
    (dist, parent)
}

/// Root-to-node display chain following BFS parents.
fn chain_to(graph: &CallGraph, parent: &[usize], mut node: usize) -> Vec<String> {
    let mut rev = vec![graph.nodes[node].display.clone()];
    while parent[node] != node {
        node = parent[node];
        rev.push(graph.nodes[node].display.clone());
    }
    rev.reverse();
    rev
}

/// D101 — deterministic code must not transitively reach a D001/D002
/// source. Distance-0 sources (the source sits in a root file itself)
/// are the token rules' domain and are skipped to avoid double-reports.
fn d101(
    files: &[SourceFile],
    graph: &CallGraph,
    adj: &[Vec<usize>],
    ledger: &mut AllowLedger,
    findings: &mut Vec<Finding>,
) {
    let roots: Vec<usize> = (0..graph.nodes.len())
        .filter(|&i| {
            graph.nodes[i].has_body && is_d101_root(&files[graph.nodes[i].file].rel_path)
        })
        .collect();
    let (dist, parent) = bfs(adj, &roots);

    let mut seen = BTreeSet::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        if dist[i] == usize::MAX || dist[i] == 0 {
            continue;
        }
        let file = &files[node.file];
        for src in &graph.facts[i].det_sources {
            if !seen.insert((node.file, src.line, src.what.clone())) {
                continue;
            }
            if ledger.try_suppress(&file.rel_path, "D101", src.line) {
                continue;
            }
            let mut chain = chain_to(graph, &parent, i);
            chain.push(src.what.clone());
            findings.push(Finding {
                file: file.rel_path.clone(),
                line: src.line,
                rule: "D101",
                message: format!(
                    "`{}` ({} source) is transitively reachable from deterministic code via {}",
                    src.what,
                    src.rule,
                    chain.first().map(String::as_str).unwrap_or("?"),
                ),
                snippet: file.snippet(src.line),
                pass: "reach",
                chain,
            });
        }
    }
}

/// L001 + L002 — lock discipline. Held-lock ranges come from the graph;
/// lock sets and model reachability are propagated to a fixpoint over
/// call edges.
fn locks(
    files: &[SourceFile],
    graph: &CallGraph,
    adj: &[Vec<usize>],
    ledger: &mut AllowLedger,
    findings: &mut Vec<Finding>,
) {
    let n = graph.nodes.len();

    // Transitive lock sets: every lock a call into `i` may acquire.
    let mut all_locks: Vec<BTreeSet<u32>> = (0..n)
        .map(|i| graph.facts[i].locks.iter().map(|l| l.lock).collect())
        .collect();
    loop {
        let mut changed = false;
        for i in 0..n {
            for &c in &adj[i] {
                if !all_locks[c].is_empty() {
                    let add: Vec<u32> =
                        all_locks[c].iter().copied().filter(|l| !all_locks[i].contains(l)).collect();
                    if !add.is_empty() {
                        all_locks[i].extend(add);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Model reachability (for L002): a direct protocol call, or any
    // callee that reaches one.
    let mut reaches_model: Vec<bool> =
        (0..n).map(|i| !graph.facts[i].model_sinks.is_empty()).collect();
    loop {
        let mut changed = false;
        for i in 0..n {
            if !reaches_model[i] && adj[i].iter().any(|&c| reaches_model[c]) {
                reaches_model[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Lock-order edges: (held, acquired) → witness. First writer wins,
    // and iteration order is deterministic, so witnesses are stable.
    type Witness = (usize, u32, Vec<String>); // (file, line, chain)
    let mut edges: BTreeMap<(u32, u32), Witness> = BTreeMap::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        let facts = &graph.facts[i];
        for lock in &facts.locks {
            let held_over = |tok: usize| tok > lock.tok && tok >= lock.hold.0 && tok < lock.hold.1;
            for other in &facts.locks {
                if other.tok != lock.tok && held_over(other.tok) {
                    edges.entry((lock.lock, other.lock)).or_insert((
                        node.file,
                        other.line,
                        vec![node.display.clone()],
                    ));
                }
            }
            for call in &facts.calls {
                if !held_over(call.tok) {
                    continue;
                }
                for &g in &call.callees {
                    for &acquired in &all_locks[g] {
                        edges.entry((lock.lock, acquired)).or_insert((
                            node.file,
                            call.line,
                            vec![node.display.clone(), graph.nodes[g].display.clone()],
                        ));
                    }
                }
            }
        }
    }

    // L001: any cycle in the lock-order graph. SCCs via iterative
    // path-based search would be overkill at this size; a simple DFS
    // per unvisited lock id with an on-stack set finds each cycle, and
    // dedup by cycle key reports it once.
    let lock_adj: BTreeMap<u32, Vec<u32>> = {
        let mut m: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for &(a, b) in edges.keys() {
            m.entry(a).or_default().push(b);
        }
        m
    };
    let mut reported = BTreeSet::new();
    for &start in lock_adj.keys() {
        // DFS from each lock; a back-edge onto the current path is a cycle.
        let mut stack = vec![(start, 0usize)];
        let mut path = vec![start];
        let mut on_path: BTreeSet<u32> = [start].into_iter().collect();
        let mut visited_from_start: BTreeSet<u32> = BTreeSet::new();
        while let Some((u, next_i)) = stack.last_mut() {
            let u = *u;
            let succs = lock_adj.get(&u).map(Vec::as_slice).unwrap_or_default();
            if *next_i >= succs.len() {
                stack.pop();
                path.pop();
                on_path.remove(&u);
                continue;
            }
            let v = succs[*next_i];
            *next_i += 1;
            if on_path.contains(&v) {
                // Cycle: the path suffix from v back to v.
                let pos = path.iter().position(|&x| x == v).unwrap_or(0);
                let mut cycle: Vec<u32> = path[pos..].to_vec();
                // Canonical rotation: smallest lock id first.
                let min_pos = cycle
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &l)| l)
                    .map(|(p, _)| p)
                    .unwrap_or(0);
                cycle.rotate_left(min_pos);
                if !reported.insert(cycle.clone()) {
                    continue;
                }
                let names: Vec<String> = cycle
                    .iter()
                    .chain(cycle.first())
                    .map(|&l| graph.lock_names[l as usize].clone())
                    .collect();
                let key = (cycle[0], cycle[1 % cycle.len()]);
                let Some((wfile, wline, via)) = edges.get(&key) else { continue };
                let file = &files[*wfile];
                if ledger.try_suppress(&file.rel_path, "L001", *wline) {
                    continue;
                }
                findings.push(Finding {
                    file: file.rel_path.clone(),
                    line: *wline,
                    rule: "L001",
                    message: format!(
                        "lock-order cycle: {} (this edge acquired in {})",
                        names.join(" → "),
                        via.join(" → "),
                    ),
                    snippet: file.snippet(*wline),
                    pass: "locks",
                    chain: names,
                });
                continue;
            }
            if visited_from_start.insert(v) {
                stack.push((v, 0));
                path.push(v);
                on_path.insert(v);
            }
        }
    }

    // L002: a model call (direct or transitive) inside a hold range.
    for (i, node) in graph.nodes.iter().enumerate() {
        let facts = &graph.facts[i];
        let file = &files[node.file];
        for lock in &facts.locks {
            let in_hold = |tok: usize| tok >= lock.hold.0 && tok < lock.hold.1;
            let lock_name = &graph.lock_names[lock.lock as usize];

            // Direct protocol call under the hold?
            let direct = facts.model_sinks.iter().find(|s| in_hold(s.tok));
            // Or a call whose callee transitively makes one?
            let transitive = facts
                .calls
                .iter()
                .find(|c| in_hold(c.tok) && c.callees.iter().any(|&g| reaches_model[g]));

            let chain = if let Some(sink) = direct {
                vec![node.display.clone(), sink.name.clone()]
            } else if let Some(call) = transitive {
                let g = call
                    .callees
                    .iter()
                    .copied()
                    .find(|&g| reaches_model[g])
                    .unwrap_or_default();
                // Shortest path from g to a node with a direct sink.
                let (dist, parent) = bfs(adj, &[g]);
                let target = (0..graph.nodes.len())
                    .filter(|&t| dist[t] != usize::MAX && !graph.facts[t].model_sinks.is_empty())
                    .min_by_key(|&t| dist[t]);
                let mut chain = vec![node.display.clone()];
                if let Some(t) = target {
                    chain.extend(chain_to(graph, &parent, t));
                    if let Some(sink) = graph.facts[t].model_sinks.first() {
                        chain.push(sink.name.clone());
                    }
                }
                chain
            } else {
                continue;
            };

            if ledger.try_suppress(&file.rel_path, "L002", lock.line) {
                continue;
            }
            findings.push(Finding {
                file: file.rel_path.clone(),
                line: lock.line,
                rule: "L002",
                message: format!(
                    "model call while `{lock_name}` is held — the lock serializes every \
                     in-flight request behind the slowest model turn",
                ),
                snippet: file.snippet(lock.line),
                pass: "locks",
                chain,
            });
        }
    }
}

/// P001 — panic-family sites reachable from public entry points.
/// Library `unwrap()`/`expect()` stay D003's business (token-local);
/// this pass covers what D003 cannot see across calls.
fn p001(
    files: &[SourceFile],
    graph: &CallGraph,
    adj: &[Vec<usize>],
    ledger: &mut AllowLedger,
    findings: &mut Vec<Finding>,
) {
    let roots: Vec<usize> = (0..graph.nodes.len())
        .filter(|&i| {
            let node = &graph.nodes[i];
            node.has_body
                && !is_bin(&files[node.file].rel_path)
                && (node.is_pub || node.via_trait)
        })
        .collect();
    let (dist, parent) = bfs(adj, &roots);

    let mut seen = BTreeSet::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        if dist[i] == usize::MAX {
            continue;
        }
        let file = &files[node.file];
        if is_bin(&file.rel_path) {
            continue; // panics in CLI glue are acceptable style
        }
        for sink in &graph.facts[i].panic_sinks {
            if !seen.insert((node.file, sink.line, sink.what.clone())) {
                continue;
            }
            if ledger.try_suppress(&file.rel_path, "P001", sink.line) {
                continue;
            }
            let mut chain = chain_to(graph, &parent, i);
            let entry = chain.first().cloned().unwrap_or_default();
            chain.push(sink.what.clone());
            findings.push(Finding {
                file: file.rel_path.clone(),
                line: sink.line,
                rule: "P001",
                message: format!(
                    "`{}` is reachable from public entry `{entry}` — return an error or \
                     justify the invariant",
                    sink.what,
                ),
                snippet: file.snippet(sink.line),
                pass: "reach",
                chain,
            });
        }
    }
}
