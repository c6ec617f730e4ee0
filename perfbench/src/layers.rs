//! The traced run's span buffer, kept apart from the program's
//! `obs::Trace`.
//!
//! The benchmark records one span around every call it makes into a
//! layer, then grafts the program's own span trees (`CsaSystem::last_trace`,
//! `QueryServer::session_trace`) under them. Program
//! spans carry wall times relative to their own trace's epoch, which the
//! program creates inside the call; they are placed at the start of the
//! enclosing benchmark span (or of the span named by the caller).
//!
//! A span's self time is its duration minus the part of it its children
//! cover. Layers are the crate names; a span that only groups others
//! (`query/*`, `stage*`, `statement/*`) names no layer, and its self time
//! is reported as `unattributed`.

use ironsafe_obs::span::{SpanRecord, TraceSnapshot};
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// The bucket for time inside a request that no layer span covers.
pub const UNATTRIBUTED: &str = "unattributed";

#[derive(Debug, Clone)]
pub struct Node {
    pub name: String,
    pub layer: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// The benchmark's own span buffer. Disabled buffers record nothing.
pub struct BenchTrace {
    enabled: bool,
    epoch: Instant,
    pub nodes: Vec<Node>,
}

/// The layer a program span belongs to, from its name.
pub fn layer_of(name: &str) -> &'static str {
    const PREFIXES: [(&str, &str); 16] = [
        ("pager/", "storage"),
        ("freshness/", "storage"),
        ("storage/execute", "sql"),
        ("storage/", "storage"),
        ("crypto/", "crypto"),
        ("host/", "sql"),
        ("exec/", "sql"),
        ("fragment/", "csa"),
        ("channel/", "csa"),
        ("net/", "csa"),
        ("plan/", "csa"),
        ("retry", "csa"),
        ("tee/", "tee"),
        ("monitor/", "monitor"),
        ("policy/", "policy"),
        ("session-", "serve"),
    ];
    PREFIXES
        .iter()
        .find(|(p, _)| name.starts_with(p))
        .map_or(UNATTRIBUTED, |(_, layer)| layer)
}

/// The time origin every buffer shares: the first call, which `main`
/// makes at start-up, so any instant the workloads record comes after it.
pub fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

impl BenchTrace {
    pub fn new(enabled: bool) -> Self {
        BenchTrace {
            enabled,
            epoch: process_epoch(),
            nodes: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// `t` in ns since the buffer's epoch.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a benchmark span `[start, end)` around a call into `layer`.
    pub fn span(
        &mut self,
        name: &str,
        layer: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.ns(start);
        self.nodes.push(Node {
            name: name.to_string(),
            layer,
            parent,
            start_ns,
            dur_ns: self.ns(end).saturating_sub(start_ns),
        });
        Some(self.nodes.len() - 1)
    }

    /// Graft the spans of `snap` into the buffer with the snapshot's
    /// time origin at `origin_ns`. Each root span goes under the node
    /// `root_parent` names (or is skipped with its subtree when it names
    /// none). Returns, per snapshot span, the node it became.
    pub fn graft(
        &mut self,
        snap: &TraceSnapshot,
        origin_ns: u64,
        mut root_parent: impl FnMut(&SpanRecord) -> Option<usize>,
    ) -> Vec<Option<usize>> {
        let mut map: Vec<Option<usize>> = vec![None; snap.spans.len()];
        if !self.enabled {
            return map;
        }
        for (i, s) in snap.spans.iter().enumerate() {
            let parent = match s.parent {
                None => root_parent(s),
                Some(p) => map.get(p).copied().flatten(),
            };
            let Some(parent) = parent else { continue };
            self.nodes.push(Node {
                name: s.name.clone(),
                layer: layer_of(&s.name),
                parent: Some(parent),
                start_ns: origin_ns + s.start_wall_ns,
                dur_ns: s.wall_ns,
            });
            map[i] = Some(self.nodes.len() - 1);
        }
        map
    }

    /// Self time of every node: its duration minus the union of its
    /// children's intervals clipped to it.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            if let Some(p) = n.parent {
                children[p].push(i);
            }
        }
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let (lo, hi) = (n.start_ns, n.start_ns + n.dur_ns);
                let mut iv: Vec<(u64, u64)> = children[i]
                    .iter()
                    .map(|&c| {
                        let c = &self.nodes[c];
                        (
                            c.start_ns.clamp(lo, hi),
                            (c.start_ns + c.dur_ns).clamp(lo, hi),
                        )
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                iv.sort_unstable();
                let mut covered = 0u64;
                let mut cur: Option<(u64, u64)> = None;
                for (a, b) in iv {
                    match cur {
                        Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            cur = Some((a, b));
                        }
                        None => cur = Some((a, b)),
                    }
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                n.dur_ns.saturating_sub(covered)
            })
            .collect()
    }

    /// Sum of self time (ns) and span count per layer.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let selfs = self.self_times();
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (n, s) in self.nodes.iter().zip(selfs) {
            let e = out.entry(n.layer).or_default();
            e.0 += s;
            e.1 += 1;
        }
        out
    }

    /// Total self time (ns) of spans whose name satisfies `pred`.
    pub fn self_ns_where(&self, pred: impl Fn(&Node) -> bool) -> u64 {
        self.nodes
            .iter()
            .zip(self.self_times())
            .filter(|(n, _)| pred(n))
            .map(|(_, s)| s)
            .sum()
    }

    /// Total duration (ns) of spans whose name satisfies `pred`.
    pub fn dur_ns_where(&self, pred: impl Fn(&Node) -> bool) -> u64 {
        self.nodes
            .iter()
            .filter(|n| pred(n))
            .map(|n| n.dur_ns)
            .sum()
    }

    /// Sum of the durations of the benchmark's root spans — the time the
    /// workload spent inside calls into the program.
    pub fn root_ns(&self) -> u64 {
        self.dur_ns_where(|n| n.parent.is_none())
    }

    /// The per-layer table: self time, span count and share of the root
    /// spans' time, one row per layer, `unattributed` named explicitly.
    pub fn table(&self, title: &str) -> String {
        let totals = self.layer_totals();
        let root = self.root_ns().max(1) as f64;
        let mut rows: Vec<(&str, u64, u64)> =
            totals.iter().map(|(l, (s, c))| (*l, *s, *c)).collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1));
        let mut t = format!(
            "per-layer self time, {title} (share of {:.1} ms inside calls into the program)\n\
             {:<14} {:>12} {:>10} {:>8}\n",
            root / 1e6,
            "layer",
            "self_ms",
            "spans",
            "share"
        );
        for (layer, s, c) in rows {
            t.push_str(&format!(
                "{layer:<14} {:>12.3} {c:>10} {:>7.2}%\n",
                s as f64 / 1e6,
                100.0 * s as f64 / root
            ));
        }
        t
    }

    /// Chrome `trace_event` JSON of the merged tree, written with
    /// `ironsafe_obs`'s exporter. The exporter lays spans out on the
    /// simulated timeline, so each span is handed over with its wall
    /// start as the timeline offset and its wall self time as its only
    /// cost category: the rendered timeline is wall-clock. One exporter
    /// call per root keeps the exporter's per-span subtree walk small.
    pub fn chrome_trace(&self) -> String {
        let selfs = self.self_times();
        let mut subtree_of: Vec<usize> = vec![0; self.nodes.len()];
        let mut roots: Vec<Vec<usize>> = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            match n.parent {
                None => {
                    subtree_of[i] = roots.len();
                    roots.push(vec![i]);
                }
                Some(p) => {
                    subtree_of[i] = subtree_of[p];
                    roots[subtree_of[p]].push(i);
                }
            }
        }
        let mut parts = Vec::new();
        for (tid, members) in roots.iter().enumerate() {
            let mut local: BTreeMap<usize, usize> = BTreeMap::new();
            let mut spans: Vec<SpanRecord> = Vec::with_capacity(members.len());
            for (li, &gi) in members.iter().enumerate() {
                local.insert(gi, li);
                let n = &self.nodes[gi];
                let parent = n.parent.and_then(|p| local.get(&p).copied());
                let depth = parent.map_or(0, |p| spans[p].depth + 1);
                spans.push(SpanRecord {
                    name: format!("{}:{}", n.layer, n.name),
                    parent,
                    depth,
                    start_wall_ns: n.start_ns,
                    wall_ns: n.dur_ns,
                    start_sim_ns: n.start_ns as f64,
                    sim_ns: selfs[gi] as f64,
                    categories: vec![("wall_self", selfs[gi] as f64)],
                    closed: true,
                    ctx: None,
                    error: None,
                });
            }
            let json = ironsafe_obs::export::spans_to_chrome_trace(
                &TraceSnapshot { spans },
                1,
                tid as u64,
            );
            let body = json
                .trim()
                .trim_start_matches('[')
                .trim_end_matches(']')
                .trim();
            if !body.is_empty() {
                parts.push(body.to_string());
            }
        }
        format!("[\n{}\n]\n", parts.join(",\n"))
    }
}
